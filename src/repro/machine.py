"""The simulated Morello-like machine.

A :class:`Machine` bundles the shared hardware state — configuration,
cost model, clock, counters, physical memory, capability codec, cores —
that every address space, kernel and application in one experiment uses.
Experiments create one Machine per measured configuration, which keeps
runs hermetic and deterministic.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import replace
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.chaos.engine import NULL_CHAOS
from repro.cheri.codec import CapabilityCodec
from repro.clock import SimClock
from repro.events import Event, EventCounters
from repro.hw.cpu import Core
from repro.hw.phys import PhysicalMemory
from repro.obs import Observability, session_adopt
from repro.params import DEFAULT_COSTS, DEFAULT_MACHINE, CostModel, MachineConfig
from repro.smp.ipi import IpiBus, tlb_shootdown
from repro.smp.locks import KernelLocks

#: every Machine constructed in this interpreter, weakly held — the
#: test suite's leak fixture walks this to audit kernels created inside
#: one test without threading the machine through every helper
_LIVE_MACHINES: "weakref.WeakSet[Machine]" = weakref.WeakSet()


def live_machines() -> List["Machine"]:
    """The machines still alive in this interpreter (audit hook)."""
    return list(_LIVE_MACHINES)


class EventSink:
    """Where every emit lands: the always-on counters, the obs facade
    and the optional tracer of one machine.

    It holds no machine, so the machine's own parts (physical memory,
    the chaos engine) keep its bound :meth:`emit` without a reference
    cycle, and a dead machine is freed by reference counting alone.
    """

    __slots__ = ("counters", "obs", "tracer")

    def __init__(self, counters: EventCounters, obs: Observability) -> None:
        self.counters = counters
        self.obs = obs
        self.tracer: Any = None

    def emit(self, entry: Event, n: int = 1, *,
             amount: Optional[int] = None,
             records: Optional[Iterable[Tuple[Event, dict]]] = None,
             **fields: Any) -> None:
        """The one instrumentation sink: record ``n`` occurrences of
        ``entry``, a :mod:`repro.events` table entry.

        Its ``counter`` grows by ``amount`` (default ``n``) in the
        always-on :attr:`counters`; with observability enabled its
        ``metric`` grows by ``amount`` and ``trace.<trace>`` by ``n``; an
        attached tracer receives ``n`` records of ``(trace, fields)``,
        or one per ``(event, fields)`` pair of ``records`` — a bulk
        path's ordered per-item stream, iterated only while a tracer is
        attached.  A batch whose records interleave several events
        emits its counts with ``records=()`` and hands the whole stream
        to one :data:`repro.events.RECORDS` emit.  Watching never
        changes what runs.
        """
        if amount is None:
            amount = n
        slot = entry.slot
        if slot is not None:
            values = self.counters.values
            values[slot] = values.get(slot, 0) + amount
        obs = self.obs
        if obs.enabled:
            metric, trace = obs.bound.get(entry) or obs.bind(entry)
            if metric is not None:
                metric.inc(amount)
            if trace is not None:
                trace.inc(n)
        tracer = self.tracer
        if tracer is not None:
            if records is not None:
                for item, item_fields in records:
                    tracer.record(item.trace, **item_fields)
            elif entry.trace is not None:
                for _ in range(n):
                    tracer.record(entry.trace, **fields)


class Machine:
    """Shared simulated-hardware state for one experiment run.

    Ownership is a tree rooted here: the parts the machine owns (cores
    and their TLBs, the IPI bus, the kernel locks) hold it through a
    weak proxy, and physical memory and the chaos engine hold only the
    :class:`EventSink`, so the last reference to a machine frees it.
    """

    def __init__(self, config: Optional[MachineConfig] = None,
                 costs: Optional[CostModel] = None, seed: int = 0,
                 num_cpus: int = 1) -> None:
        self.config = config or DEFAULT_MACHINE
        self.costs = costs or DEFAULT_COSTS
        #: online CPUs actually scheduling work (``num_cpus=1``, the
        #: default, gives the scheduler one queue and sends no IPIs; the
        #: config's ``cores`` stays the bookkeeping core count and grows
        #: only when more CPUs are brought online than it has cores)
        self.num_cpus = max(1, int(num_cpus))
        if self.num_cpus > self.config.cores:
            self.config = replace(self.config, cores=self.num_cpus)
        self.clock = SimClock()
        #: unified observability (disabled by default; see :mod:`repro.obs`)
        self.obs = Observability(self.clock)
        session_adopt(self.obs)
        #: fault injection (permanently-disabled null engine by default;
        #: a :class:`repro.chaos.ChaosEngine` installs itself here via
        #: ``engine.attach(machine)`` — see :mod:`repro.chaos`)
        self.chaos = NULL_CHAOS
        self.counters = EventCounters()
        #: where every emit lands: the counters, obs and the tracer
        self.sink = EventSink(self.counters, self.obs)
        #: the one instrumentation sink, :meth:`EventSink.emit` (the
        #: sink's own bound method: no extra frame per emit)
        self.emit = self.sink.emit
        #: machine-wide translation generation: bumped by every TLB
        #: flush and shootdown acknowledgement so the host-side
        #: page-walk caches (:class:`repro.hw.paging.AddressSpace`)
        #: drop entries exactly when simulated TLB state is invalidated
        self.translation_gen = 0
        self.phys = PhysicalMemory(self.config, self.costs, self.clock,
                                   self.emit, obs=self.obs)
        self.codec = CapabilityCodec()
        #: clean capability-flow verdicts (see
        #: :func:`repro.sec.auditor.audit_cap_flow`): (frame, lo, hi,
        #: region base, region top, gate triple) -> the ``Frame.version``
        #: last audited clean under those bounds.  Host-side only, and
        #: sound because a frame number's ``version`` never repeats
        self._audit_memo: dict = {}
        # the parts the machine owns hold it weakly (see the class doc)
        owner = weakref.proxy(self)
        self.cores: List[Core] = [
            Core(owner, core_id) for core_id in range(self.config.cores)
        ]
        #: CPU 0's private TLB (single-CPU call sites and tests use
        #: this alias; each core owns its own instance)
        self.tlb = self.cores[0].tlb
        #: the inter-processor-interrupt bus (see :mod:`repro.smp.ipi`)
        self.ipi = IpiBus(owner)
        #: kernel spinlocks (free no-ops while ``num_cpus == 1``)
        self.locks = KernelLocks(owner)
        #: CPU the kernel is currently executing on (the SMP executor
        #: flips this around each step)
        self.current_cpu = 0
        #: IRQ-disable nesting depth (see :class:`repro.smp.locks.IrqGuard`)
        self.irq_depth = 0
        #: deterministic randomness source (ASLR etc.)
        self.rng = random.Random(seed)
        #: optional syscall-boundary tap, called as
        #: ``tap(os, proc, name, args, result, error)`` after every
        #: syscall dispatch (see :mod:`repro.conform`); ``None`` keeps
        #: the hot path a single attribute check
        self.syscall_tap: Optional[Callable[..., None]] = None
        #: kernels booted on this machine, weakly referenced
        self._kernels: List["weakref.ref[Any]"] = []
        _LIVE_MACHINES.add(self)

    def register_kernel(self, os: Any) -> None:
        """Record a kernel booted on this machine (weak, audit-only)."""
        self._kernels.append(weakref.ref(os))

    def kernels(self) -> List[Any]:
        """The still-alive kernels booted on this machine."""
        return [os for os in (ref() for ref in self._kernels)
                if os is not None]

    @property
    def tracer(self) -> Any:
        """The optional structured-event tracer (see :mod:`repro.trace`),
        kept on the :attr:`sink` that every emit reads."""
        return self.sink.tracer

    @tracer.setter
    def tracer(self, tracer: Any) -> None:
        self.sink.tracer = tracer

    @property
    def cpus(self) -> List[Core]:
        """The online CPUs (the first ``num_cpus`` cores)."""
        return self.cores[:self.num_cpus]

    def tlb_shootdown(self, targets: Iterable[int],
                      initiator: Optional[int] = None,
                      reason: str = "shootdown") -> int:
        """Ack-based cross-core TLB shootdown (see :mod:`repro.smp.ipi`);
        returns the number of recipient CPUs actually interrupted."""
        return tlb_shootdown(self, targets, initiator=initiator,
                             reason=reason)

    def charge(self, ns: float, bucket: Optional[str] = None) -> None:
        """Charge simulated time (convenience passthrough to the clock)."""
        self.clock.advance(ns, bucket)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine(cores={len(self.cores)}, "
            f"now={self.clock.now_us:.1f}us, "
            f"frames={self.phys.allocated_frames})"
        )
