"""repro.api — the stable user-facing facade.

One import, one object: a :class:`Session` bundles the machine, the OS
under test, optional observability and optional chaos injection behind
keyword knobs, so experiment code reads as *what* is being measured
instead of *how* the simulator is wired::

    from repro.api import Session

    with Session(strategy="copa", obs=True) as sim:
        parent = sim.spawn()
        child = parent.fork()
        child.exit(0)
        parent.wait(child.pid)
        print(sim.report()["simulated_ns"])

Everything here is a thin veneer over the long-standing constructors
(:class:`repro.machine.Machine`, :class:`repro.core.UForkOS`, ...);
nothing about simulated behaviour changes.  The facade's surface —
names and call signatures — is contract-tested
(``tests/test_api_contract.py``), so accidental breakage of downstream
scripts fails CI.

The old entry points remain importable from here as deprecation shims
(:func:`Machine`, :func:`make_scheduler`) that forward unchanged after
emitting a :class:`DeprecationWarning`; new code should construct a
:class:`Session` instead.
"""

from __future__ import annotations

import warnings
from typing import Any, Callable, Dict, Optional, TypeVar

from repro.harness.matrix import SASOS_STRATEGIES

__all__ = [
    "OSES",
    "STRATEGIES",
    "ISOLATIONS",
    "Session",
    "Machine",
    "make_scheduler",
]

_T = TypeVar("_T")

#: facade name → OS class path (resolved lazily to keep import light)
OSES = ("ufork", "monolithic", "vmclone", "isounik")
#: facade name → fork copy strategy (μFork §3.8): the harness matrix's
#: μFork strategies (the monolithic baseline is an ``os``, not one)
STRATEGIES = SASOS_STRATEGIES
#: facade name → isolation preset (μFork §3.6)
ISOLATIONS = ("none", "fault", "full")


def _resolve_os(name: str):
    from repro.baselines import IsoUnikOS, MonolithicOS, VMCloneOS
    from repro.core import UForkOS
    classes = {"ufork": UForkOS, "monolithic": MonolithicOS,
               "vmclone": VMCloneOS, "isounik": IsoUnikOS}
    if name not in classes:
        raise ValueError(f"unknown os {name!r}; choose from {OSES}")
    return classes[name]


def _resolve_strategy(name: str):
    from repro.core import CopyStrategy
    if name not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {name!r}; choose from {STRATEGIES}")
    return CopyStrategy(name)


def _resolve_isolation(name: str):
    from repro.core import IsolationConfig
    factories = {"none": IsolationConfig.none, "fault": IsolationConfig.fault,
                 "full": IsolationConfig.full}
    if name not in factories:
        raise ValueError(
            f"unknown isolation {name!r}; choose from {ISOLATIONS}")
    return factories[name]()


class Session:
    """One hermetic simulator run: machine + OS + optional obs/chaos.

    Parameters (all keyword-only, all strings/ints so scripts and CLIs
    can pass them through untyped):

    * ``os`` — ``"ufork"`` (default), ``"monolithic"`` (CheriBSD-like),
      ``"vmclone"`` (Nephele-like) or ``"isounik"``;
    * ``strategy`` — fork copy strategy for μFork: ``"full"``,
      ``"coa"`` or ``"copa"`` (default; ignored by the baselines);
    * ``isolation`` — ``"none"``, ``"fault"`` (default) or ``"full"``;
    * ``cpus`` — online CPU count (1 = the pre-SMP machine, bit for bit);
    * ``seed`` — machine randomness seed (ASLR etc.);
    * ``obs`` — enable :mod:`repro.obs` metrics/span recording at boot;
    * ``chaos`` — a fault-mix spec string (see docs/CHAOS.md), e.g.
      ``"default=0.01,core.ufork.abort.*=0.2"``, to attach a seeded
      :class:`repro.chaos.ChaosEngine`; ``None`` (default) runs clean.
    * ``perf`` — deprecated, no effect: the simulator has one memory
      representation (docs/ARCHITECTURE.md "Vectorized engine").  Any
      value other than ``None`` emits a :class:`DeprecationWarning`;
      the keyword is removed in repro 2.0.

    ``boot()`` is idempotent and implied by ``spawn``/``run``/``report``
    and by entering the session as a context manager.
    """

    def __init__(self, *, os: str = "ufork", strategy: str = "copa",
                 isolation: str = "fault", cpus: int = 1, seed: int = 7,
                 obs: bool = False, chaos: Optional[str] = None,
                 perf: Optional[bool] = None) -> None:
        # validate eagerly so typos fail at construction, not at boot
        _resolve_os(os)
        _resolve_strategy(strategy)
        _resolve_isolation(isolation)
        if cpus < 1:
            raise ValueError("cpus must be >= 1")
        if perf is not None:
            warnings.warn(
                "Session(perf=) is deprecated, has no effect and will be "
                "removed in repro 2.0: the simulator has one memory "
                "representation", DeprecationWarning, stacklevel=2)
        self.os_name = os
        self.strategy = strategy
        self.isolation = isolation
        self.cpus = cpus
        self.seed = seed
        self.obs_enabled = obs
        self.chaos_spec = chaos
        self.machine: Optional[Any] = None
        self.os: Optional[Any] = None

    # -- lifecycle -------------------------------------------------------

    def boot(self) -> "Session":
        """Create the machine and the OS (idempotent)."""
        if self.os is not None:
            return self
        from repro.machine import Machine as _MachineCls
        self.machine = _MachineCls(seed=self.seed, num_cpus=self.cpus)
        if self.chaos_spec is not None:
            from repro.chaos import ChaosEngine, FaultMix
            ChaosEngine(seed=self.seed,
                        mix=FaultMix.parse(self.chaos_spec)
                        ).attach(self.machine)
        os_cls = _resolve_os(self.os_name)
        kwargs: Dict[str, Any] = {
            "machine": self.machine,
            "isolation": _resolve_isolation(self.isolation),
        }
        if self.os_name == "ufork":
            kwargs["copy_strategy"] = _resolve_strategy(self.strategy)
        self.os = os_cls(**kwargs)
        if self.obs_enabled:
            self.machine.obs.enable()
        return self

    def __enter__(self) -> "Session":
        return self.boot()

    def __exit__(self, *exc: Any) -> None:
        if self.machine is not None and self.obs_enabled:
            self.machine.obs.disable()

    # -- running work ----------------------------------------------------

    def spawn(self, image: Optional[Any] = None, name: str = "app"):
        """Load a program; returns its :class:`~repro.apps.guest.GuestContext`.

        ``image`` defaults to the hello-world :class:`ProgramImage` —
        enough heap for small demos and benchmarks.
        """
        self.boot()
        from repro.apps.guest import GuestContext
        if image is None:
            from repro.apps.hello import hello_world_image
            image = hello_world_image()
        return GuestContext(self.os, self.os.spawn(image, name))

    def run(self, workload: Callable[["Session"], _T]) -> _T:
        """Boot (if needed) and hand the session to ``workload``."""
        self.boot()
        return workload(self)

    # -- cluster hooks (docs/CLUSTER.md) ---------------------------------

    def warm_pool(self, size: int, *, image: Optional[Any] = None,
                  warm: Optional[Callable[[Any], None]] = None,
                  name: str = "zygote"):
        """Spawn one zygote, warm it, and fork ``size`` serving workers.

        The scale-out primitive of :mod:`repro.cluster`: returns a
        :class:`repro.cluster.pool.WarmPool` whose ``fork_worker`` /
        ``retire`` grow and shrink this session's serving capacity one
        fast fork (or one exit/reap) at a time.  ``warm`` is called
        once with the zygote's :class:`GuestContext` before any worker
        is forked.
        """
        self.boot()
        from repro.cluster.pool import WarmPool
        return WarmPool(self, size, image=image, warm=warm, name=name)

    # -- snapshot hooks (docs/SNAPSHOT.md) -------------------------------

    def checkpoint(self, pid: int, *, incremental: bool = False) -> bytes:
        """Serialize the μprocess ``pid`` into a ``repro.snapshot/v1``
        blob (:mod:`repro.snapshot`): registers, page mappings, page
        bytes with capability tags recorded *logically*, allocator
        metadata, fd-table policy and signal dispositions.

        ``incremental=True`` captures only the pages that diverged from
        the zygote since fork (refcount-1 frames) — the payload of a
        live migration (docs/CLUSTER.md); apply it with
        :meth:`restore` on a fork twin via :func:`repro.snapshot.restore_into`.
        """
        self.boot()
        from repro.snapshot import checkpoint as _checkpoint
        return _checkpoint(self.os, self.os.procs.get(pid),
                           incremental=incremental)

    def restore(self, blob: bytes, *, name: Optional[str] = None) -> int:
        """Rebuild a checkpointed μprocess from ``blob`` in this
        session's OS and return the new pid.

        Every capability is re-minted through the fork relocation path
        (:func:`repro.core.relocate.relocate_cap`) against the restored
        process's freshly reserved region, so restoring on a different
        machine — or a different seed — yields a process whose logical
        behaviour is identical to the uninterrupted original.
        """
        self.boot()
        from repro.snapshot import restore as _restore
        return _restore(self.os, blob, name=name).pid

    def obs_export(self) -> Dict[str, Any]:
        """This session's ``repro.obs/v1`` export, ready for
        :func:`repro.obs.merge_exports` — how the cluster runner folds
        per-shard metrics into one report.  Requires ``obs=True``.
        """
        if not self.obs_enabled:
            raise ValueError("obs_export() needs Session(obs=True)")
        self.boot()
        return self.machine.obs.export()

    # -- reporting -------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """JSON-ready summary of the run so far.

        Always contains the simulated clock and its buckets plus the
        machine's event counters; the ``obs`` key holds the full
        ``repro.obs/v1`` export when observability is on, and ``chaos``
        the ``repro.chaos/v1`` injection log when a chaos spec was set.
        """
        self.boot()
        machine = self.machine
        out: Dict[str, Any] = {
            "schema": "repro.api/v1",
            "os": self.os_name,
            "strategy": self.strategy,
            "isolation": self.isolation,
            "cpus": self.cpus,
            "seed": self.seed,
            "simulated_ns": machine.clock.now_ns,
            "buckets": dict(machine.clock.buckets),
            "counters": machine.counters.snapshot(),
        }
        if self.obs_enabled:
            out["obs"] = machine.obs.export()
        if self.chaos_spec is not None:
            out["chaos"] = machine.chaos.export()
        return out


# -- deprecation shims ----------------------------------------------------

def Machine(*args: Any, **kwargs: Any):
    """Deprecated: construct a :class:`Session` instead.

    Forwards unchanged to :class:`repro.machine.Machine`.
    """
    warnings.warn(
        "repro.api.Machine is deprecated and will be removed in "
        "repro 2.0; use repro.api.Session "
        "(or repro.machine.Machine for low-level work)",
        DeprecationWarning, stacklevel=2)
    from repro.machine import Machine as _MachineCls
    return _MachineCls(*args, **kwargs)


def make_scheduler(machine: Any, same_address_space: bool):
    """Deprecated: :meth:`Session.boot` wires the scheduler for you.

    Returns the machine's :class:`repro.smp.sched.SmpScheduler`, the
    one scheduler every OS boots with.
    """
    warnings.warn(
        "repro.api.make_scheduler is deprecated and will be removed in "
        "repro 2.0; Session.boot() selects the scheduler from cpus=",
        DeprecationWarning, stacklevel=2)
    from repro.smp.sched import SmpScheduler
    return SmpScheduler(machine, same_address_space)
