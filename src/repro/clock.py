"""Deterministic simulated time.

Every latency the reproduction reports is *simulated* time, accumulated on
a :class:`SimClock` as the machine model charges costs for primitive
operations (traps, page copies, tag scans, ...).  Nothing in the core
library reads the wall clock, which keeps all experiments deterministic
and independent of host speed.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, Tuple

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


class SimClock:
    """A monotonically increasing nanosecond counter with attribution.

    ``advance`` optionally attributes the charged time to a named bucket
    (e.g. ``"fork"``, ``"page_copy"``) so experiments can break latency
    down the way the paper's figures do.

    Nothing is called back on an advance: the observability layer
    (:mod:`repro.obs`) reads ``now_ns`` and ``buckets`` by difference.
    """

    def __init__(self) -> None:
        self._now_ns = 0
        self.buckets: Dict[str, int] = {}

    # -- reading ------------------------------------------------------

    @property
    def now_ns(self) -> int:
        return self._now_ns

    @property
    def now_us(self) -> float:
        return self._now_ns / NS_PER_US

    @property
    def now_ms(self) -> float:
        return self._now_ns / NS_PER_MS

    @property
    def now_s(self) -> float:
        return self._now_ns / NS_PER_S

    # -- advancing ----------------------------------------------------

    def advance(self, ns: float, bucket: str | None = None) -> None:
        """Advance simulated time by ``ns`` nanoseconds (>= 0)."""
        if ns < 0:
            raise ValueError(f"cannot advance clock by negative time: {ns}")
        ns_int = int(round(ns))
        self._now_ns += ns_int
        if bucket is not None:
            self.buckets[bucket] = self.buckets.get(bucket, 0) + ns_int

    def advance_planned(self, charges: Iterable[Tuple[int, str]]) -> None:
        """What one :meth:`advance` per ``(ns, bucket)`` of ``charges``
        does, in order, for charges already rounded and checked
        non-negative."""
        buckets = self.buckets
        for ns, bucket in charges:
            self._now_ns += ns
            buckets[bucket] = buckets.get(bucket, 0) + ns

    def advance_to(self, ns: int) -> None:
        """Move the clock forward to an absolute time (no-op if in the past)."""
        if ns > self._now_ns:
            self._now_ns = ns

    # -- measurement helpers -------------------------------------------

    @contextmanager
    def measure(self) -> Iterator["Stopwatch"]:
        """Measure simulated time elapsed inside a ``with`` block."""
        watch = Stopwatch(self)
        watch.start()
        try:
            yield watch
        finally:
            watch.stop()

    def bucket_ns(self, name: str) -> int:
        return self.buckets.get(name, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now_ns}ns)"


class Stopwatch:
    """Captures an interval of simulated time on a :class:`SimClock`."""

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._start: int | None = None
        self._elapsed = 0

    def start(self) -> None:
        self._start = self._clock.now_ns

    def stop(self) -> None:
        if self._start is not None:
            self._elapsed += self._clock.now_ns - self._start
            self._start = None

    @property
    def elapsed_ns(self) -> int:
        if self._start is not None:
            return self._elapsed + (self._clock.now_ns - self._start)
        return self._elapsed

    @property
    def elapsed_us(self) -> float:
        return self.elapsed_ns / NS_PER_US

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_ns / NS_PER_MS

