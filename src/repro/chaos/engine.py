"""The deterministic, seed-driven fault-injection engine.

A :class:`ChaosEngine` decides, at every registered injection point,
whether the fault fires — from nothing but ``(seed, point, hit_index)``.
The draw is a keyed hash, so the schedule is a pure function of the
seed and the sequence of point hits: the same seed over the same
workload replays every injection bit-identically, adding a new point
never perturbs another point's schedule, and any failure reproduces
from its seed alone.

Machines carry a permanently disabled :data:`NULL_CHAOS` by default
(the same contract as ``machine.obs``): every site guards on
``machine.chaos.enabled``, one attribute check, and a disabled engine
never fires, never charges simulated time, and never records a metric
— figures with injection off are bit-identical to a build without
chaos at all.

Usage::

    machine = Machine(seed=7)
    engine = ChaosEngine(seed=7, mix=FaultMix.parse("default=0.05"))
    engine.attach(machine)
    ... run a workload ...
    engine.fired                  # point -> injection count
    engine.export()               # JSON-ready repro.chaos/v1 dict
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.chaos.faults import (
    INJECTION_POINTS,
    InjectedInterrupt,
    InjectedSyscallNoMem,
    InjectedWouldBlock,
)

SCHEMA = "repro.chaos/v1"

#: spurious cap-load-fault storms tolerated per degradation tier; at
#: ``DEGRADE_AFTER`` storms CoPA falls back to CoA, at twice that to
#: eager full copy (see docs/CHAOS.md)
DEGRADE_AFTER = 6


def _draw(seed: int, point: str, index: int) -> float:
    """Deterministic uniform draw in [0, 1) for one point hit."""
    data = f"{seed}:{point}:{index}".encode()
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2 ** 64


def deterministic_draw(seed: int, point: str, index: int = 0) -> float:
    """The engine's keyed-hash draw, exposed for other deterministic
    machinery (the conformance explorer orders its schedule frontier
    with it): a pure function of ``(seed, point, index)``, uniform in
    [0, 1), stable across platforms and Python versions."""
    return _draw(seed, point, index)


class FaultMix:
    """Per-point firing rates: ``pattern=rate`` pairs.

    Patterns are exact point names, ``prefix.*`` wildcards, or the
    special key ``default`` (the baseline rate for every point).  The
    most specific match wins: exact > longest wildcard > default.

    >>> mix = FaultMix.parse("default=0.01,core.ufork.abort.*=0.2")
    >>> mix.rate_for("core.ufork.abort.reserve")
    0.2
    """

    def __init__(self, rates: Optional[Dict[str, float]] = None,
                 default: float = 0.0) -> None:
        self.default = default
        self._exact: Dict[str, float] = {}
        self._prefixes: List[Tuple[str, float]] = []
        for pattern, rate in (rates or {}).items():
            self._add(pattern, rate)

    def _add(self, pattern: str, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate for {pattern!r} must be in [0, 1], "
                             f"got {rate}")
        if pattern == "default":
            self.default = rate
        elif pattern.endswith(".*"):
            prefix = pattern[:-1]  # keep the trailing dot
            if not any(name.startswith(prefix) for name in INJECTION_POINTS):
                raise ValueError(f"fault-mix pattern {pattern!r} matches "
                                 f"no registered injection point")
            self._prefixes.append((prefix, rate))
            self._prefixes.sort(key=lambda item: -len(item[0]))
        else:
            if pattern not in INJECTION_POINTS:
                raise ValueError(f"fault-mix names unknown injection "
                                 f"point {pattern!r}")
            self._exact[pattern] = rate

    @classmethod
    def parse(cls, spec: str) -> "FaultMix":
        """Parse ``pattern=rate,pattern=rate,...`` (docs/CHAOS.md)."""
        mix = cls()
        for part in filter(None, (p.strip() for p in spec.split(","))):
            if "=" not in part:
                raise ValueError(f"fault-mix entry {part!r} is not "
                                 f"'pattern=rate'")
            pattern, _, rate = part.partition("=")
            mix._add(pattern.strip(), float(rate))
        return mix

    def rate_for(self, point: str) -> float:
        rate = self._exact.get(point)
        if rate is not None:
            return rate
        for prefix, prefix_rate in self._prefixes:
            if point.startswith(prefix):
                return prefix_rate
        return self.default

    def to_spec(self) -> str:
        """A canonical, re-parseable spec string (export stability)."""
        parts = [f"default={self.default!r}"]
        parts += [f"{prefix}*={rate!r}"
                  for prefix, rate in sorted(self._prefixes)]
        parts += [f"{name}={rate!r}"
                  for name, rate in sorted(self._exact.items())]
        return ",".join(parts)


class ChaosEngine:
    """Seed-driven fault injection with full accounting.

    ``hits`` counts how often each point was consulted, ``fired`` how
    often it injected, ``recovered`` how often a survival path reported
    success — all exported, and mirrored as ``chaos.*`` observability
    counters so chaos runs are attributable in ``repro.obs`` sidecars.
    """

    def __init__(self, seed: int, mix: Optional[FaultMix] = None,
                 enabled: bool = True,
                 degrade_after: int = DEGRADE_AFTER) -> None:
        self.seed = seed
        self.mix = mix or FaultMix()
        self.enabled = enabled
        self.degrade_after = degrade_after
        self.machine: Optional[Any] = None
        self.hits: Dict[str, int] = {}
        self.fired: Dict[str, int] = {}
        self.recovered: Dict[str, int] = {}
        #: replayable injection log: (point, hit_index) in firing order
        self.injections: List[Tuple[str, int]] = []

    # -- lifecycle -------------------------------------------------------

    def attach(self, machine: Any) -> "ChaosEngine":
        """Install as ``machine.chaos`` (and on its physical memory,
        which holds no machine reference)."""
        self.machine = machine
        machine.chaos = self
        machine.phys.chaos = self
        return self

    def enable(self) -> "ChaosEngine":
        self.enabled = True
        return self

    def disable(self) -> None:
        self.enabled = False

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Suspend injection inside the block (setup/teardown code)."""
        previous = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = previous

    # -- the schedule ----------------------------------------------------

    def should_fire(self, point: str) -> bool:
        """Consult the schedule at one injection point (counts the hit)."""
        if point not in INJECTION_POINTS:
            raise ValueError(f"unregistered injection point {point!r}")
        if not self.enabled:
            return False
        index = self.hits.get(point, 0) + 1
        self.hits[point] = index
        rate = self.mix.rate_for(point)
        if rate <= 0.0 or _draw(self.seed, point, index) >= rate:
            return False
        self.fired[point] = self.fired.get(point, 0) + 1
        self.injections.append((point, index))
        if self.machine is not None:
            self.machine.emit("chaos_inject",
                              metric=f"chaos.injected.{point}",
                              point=point, hit=index)
        return True

    def lookahead(self, point: str, count: int) -> int:
        """Offset of the first of the next ``count`` hits of ``point``
        that would fire, or ``count`` if none would (``count`` too when
        the engine is disabled or paused).  Consumes nothing: batch
        paths size themselves with it, then consult the schedule."""
        if point not in INJECTION_POINTS:
            raise ValueError(f"unregistered injection point {point!r}")
        rate = self.mix.rate_for(point)
        if not self.enabled or rate <= 0.0:
            return count
        first = self.hits.get(point, 0) + 1
        for offset in range(count):
            if _draw(self.seed, point, first + offset) < rate:
                return offset
        return count

    def fire_each(self, point: str, count: int) -> List[int]:
        """Consult the schedule ``count`` times at ``point``, exactly as
        ``count`` :meth:`should_fire` calls would; returns the offsets
        (0-based, ascending) of the hits that fired."""
        if point not in INJECTION_POINTS:
            raise ValueError(f"unregistered injection point {point!r}")
        if not self.enabled or count <= 0:
            return []
        if self.mix.rate_for(point) <= 0.0:
            self.hits[point] = self.hits.get(point, 0) + count
            return []
        should_fire = self.should_fire
        return [offset for offset in range(count) if should_fire(point)]

    def note_recovery(self, point: str) -> None:
        """A survival path absorbed the most recent fault at ``point``."""
        self.recovered[point] = self.recovered.get(point, 0) + 1
        if self.machine is not None:
            self.machine.emit(metric=f"chaos.recovered.{point}")

    # -- syscall faults --------------------------------------------------

    def syscall_fault(self, name: str) -> Optional[Exception]:
        """The fault (if any) to inject at one syscall entry."""
        if self.should_fire("kernel.syscall.eintr"):
            return InjectedInterrupt(f"injected EINTR entering {name!r}")
        if self.should_fire("kernel.syscall.enomem"):
            return InjectedSyscallNoMem(
                f"injected transient ENOMEM entering {name!r}")
        if self.should_fire("kernel.syscall.eagain"):
            return InjectedWouldBlock(f"injected EAGAIN entering {name!r}")
        return None

    # -- graceful degradation -------------------------------------------

    def degrade_tiers(self) -> int:
        """How many strategy tiers to fall back (0, 1 or 2), based on
        how many capability-load fault storms have been injected.

        μFork's strategies form a ladder CoPA → CoA → eager copy: each
        rung trades fork-time cost for fewer lazy faults, so under a
        fault storm the cheapest-but-laziest strategy is the most
        exposed and falling down the ladder restores forward progress
        (docs/CHAOS.md)."""
        if not self.enabled:
            return 0
        storms = self.fired.get("core.strategies.cap_fault_storm", 0)
        return min(storms // self.degrade_after, 2)

    # -- export ----------------------------------------------------------

    def export(self) -> Dict:
        """JSON-ready injection record (deterministic for one seed)."""
        return {
            "schema": SCHEMA,
            "seed": self.seed,
            "mix": self.mix.to_spec(),
            "hits": dict(sorted(self.hits.items())),
            "fired": dict(sorted(self.fired.items())),
            "recovered": dict(sorted(self.recovered.items())),
            "injections": [list(entry) for entry in self.injections],
        }


class NullChaos:
    """The permanently disabled engine every machine starts with."""

    enabled = False
    seed = None

    def should_fire(self, point: str) -> bool:  # pragma: no cover - guard
        return False

    def lookahead(self, point: str, count: int) -> int:
        return count

    def fire_each(self, point: str, count: int) -> List[int]:
        return []

    def note_recovery(self, point: str) -> None:  # pragma: no cover
        return None

    def syscall_fault(self, name: str):  # pragma: no cover - guarded
        return None

    def degrade_tiers(self) -> int:
        return 0

    @contextmanager
    def paused(self):
        """No-op pause (drop-in for :meth:`ChaosEngine.paused`)."""
        yield


NULL_CHAOS = NullChaos()
