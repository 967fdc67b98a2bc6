"""The metrics registry: counters, gauges, histograms.

Every metric has a dotted ``layer.component.event`` name (at least two
lowercase ``[a-z0-9_]`` segments — see ``docs/OBSERVABILITY.md`` for the
naming contract).  Metrics are created on first use and accumulate for
the lifetime of their registry; values are plain integers/floats of
*simulated* quantities, so recording them never advances the clock.

Usage::

    registry = MetricsRegistry()
    registry.counter("hw.tlb.flush").inc()
    registry.gauge("kernel.sched.runqueue_depth").set(3)
    registry.histogram("span.syscall.fork").observe(54_000)
    registry.export()          # JSON-ready dict (see docs/OBSERVABILITY.md)
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")

#: Default histogram layout: log-spaced nanosecond buckets on a 1-2-5
#: decade series from 1 ns to 5×10⁹ ns, plus an overflow bucket.  The
#: layout is fixed so histograms from different runs/machines merge
#: bucket-for-bucket.
DEFAULT_BUCKETS_NS: Tuple[int, ...] = tuple(
    mantissa * 10 ** exponent
    for exponent in range(10)
    for mantissa in (1, 2, 5)
)


def check_metric_name(name: str) -> str:
    """Validate a metric/span name against the naming contract."""
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} violates the layer.component.event "
            f"contract (>= 2 dotted lowercase [a-z0-9_] segments)"
        )
    return name


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (n={n})")
        self.value += n


class Gauge:
    """A point-in-time value (queue depths, resident frames, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A fixed-bucket histogram of simulated-ns (or count) samples.

    ``bounds`` are inclusive upper bounds: a sample lands in the first
    bucket whose bound is >= the sample; larger samples land in the
    overflow bucket.  Exported buckets are non-cumulative.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "overflow",
                 "count", "sum", "min", "max")

    def __init__(self, name: str,
                 bounds: Sequence[int] = DEFAULT_BUCKETS_NS) -> None:
        self.name = name
        self.bounds = tuple(bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError(f"histogram {name}: bounds must be "
                             f"strictly increasing")
        self.bucket_counts = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.sum = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = self._bucket_index(value)
        if index is None:
            self.overflow += 1
        else:
            self.bucket_counts[index] += 1

    def _bucket_index(self, value: float) -> Optional[int]:
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        return lo if lo < len(self.bounds) else None

    def export(self) -> Dict:
        """JSON-ready form; only non-empty buckets are listed, the
        overflow bucket's bound is ``null``."""
        buckets: List[List] = [
            [bound, count]
            for bound, count in zip(self.bounds, self.bucket_counts)
            if count
        ]
        if self.overflow:
            buckets.append([None, self.overflow])
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Name → metric store with get-or-create accessors.

    A name is bound to one metric kind forever; asking for the same
    name as a different kind raises.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: counters computed when read, listed among the stored ones
        self.derived: Callable[[], Dict[str, int]] = dict

    # -- accessors -----------------------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_unbound(name, self._gauges, self._histograms)
            metric = self._counters[name] = Counter(check_metric_name(name))
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_unbound(name, self._counters, self._histograms)
            metric = self._gauges[name] = Gauge(check_metric_name(name))
        return metric

    def histogram(self, name: str,
                  bounds: Sequence[int] = DEFAULT_BUCKETS_NS) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_unbound(name, self._counters, self._gauges)
            metric = self._histograms[name] = Histogram(
                check_metric_name(name), bounds)
        return metric

    @staticmethod
    def _check_unbound(name: str, *other_kinds: Dict) -> None:
        for kind in other_kinds:
            if name in kind:
                raise ValueError(
                    f"metric {name!r} already registered as another kind")

    # -- introspection -------------------------------------------------

    def counters(self) -> Dict[str, int]:
        values = {name: c.value for name, c in self._counters.items()}
        values.update(self.derived())
        return dict(sorted(values.items()))

    def gauges(self) -> Dict[str, float]:
        return {name: g.value for name, g in sorted(self._gauges.items())}

    def histograms(self) -> Dict[str, Histogram]:
        return dict(sorted(self._histograms.items()))

    def export(self) -> Dict:
        """The ``metrics`` section of the export schema."""
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": {name: h.export()
                           for name, h in self.histograms().items()},
        }

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
