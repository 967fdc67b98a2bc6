"""Host-speed calibration and the statistics the benchmark reports.

The sandbox this benchmark runs in drifts, and fast: the same Python
loop runs at one speed for a few hundred milliseconds, then at half
that speed, then at full speed again (neighbours on shared cores).
Identical code measured in two runs can differ by 15-25% in raw ops/s.
So every worker runs a :class:`SpeedSampler`: every
:data:`SAMPLE_INTERVAL_S` of wall time a timer signal runs one
:func:`reference_slice`, a fixed stdlib-only loop plus page copies, and
records when it ended and how long it took.  The samples fall at
uniform wall-clock times, inside long ops too, so the mean speed of the
samples taken around an op is the host's speed while it ran.
:func:`local_factors` turns that into a factor per op, and the op's
time times its factor is what it would have taken on a host that runs
the slice in ``nominal_s`` (pinned in ``bench/pins.json``).  The time
the sampler itself takes is subtracted from every op; raw times are
reported beside the scaled ones.
"""

from __future__ import annotations

import bisect
import math
import signal
import struct
import time
from typing import Any, List, Optional, Sequence, Tuple

_PAIR = struct.Struct("<QQ")

#: wall-clock seconds between two reference slices
SAMPLE_INTERVAL_S = 0.02
#: an op is scaled by the samples taken within this many seconds of it
WINDOW_S = 0.05
#: interpreter iterations of one slice
_SLICE_ITERATIONS = 500
#: the slice also copies pages around an arena larger than a core's L2
#: cache, as fork copies frames around the simulator's frame banks
_PAGE = 4096
_ARENA_PAGES = 2048
_PAGE_COPIES = 128
#: bytes the sampler keeps resident; workers subtract them from RSS
ARENA_BYTES = _PAGE * _ARENA_PAGES


def reference_slice(arena: memoryview, draw: int) -> int:
    """The fixed reference work: dict probes, integer arithmetic,
    struct packing and bytearray slicing, then page copies between
    pseudo-random pages of ``arena``.  Returns the next ``draw``.  It
    allocates no objects the cyclic garbage collector keeps, so sampling
    does not move the workload's collections."""
    table = {}
    page = bytearray(_PAGE)
    acc = 0
    for i in range(_SLICE_ITERATIONS):
        table[i & 511] = i
        hit = table.get((i * 7) & 511)
        if hit is not None:
            acc += hit
        offset = (i * 64) & 4095
        page[offset:offset + 16] = _PAIR.pack(i, acc & 0xFFFF)
        acc ^= _PAIR.unpack_from(page, offset)[1]
    for _ in range(_PAGE_COPIES):
        draw = (draw * 1103515245 + 12345) & 0x7FFFFFFF
        src = (draw % _ARENA_PAGES) * _PAGE
        draw = (draw * 1103515245 + 12345) & 0x7FFFFFFF
        dst = (draw % _ARENA_PAGES) * _PAGE
        arena[dst:dst + _PAGE] = arena[src:src + _PAGE]
    return draw


class SpeedSampler:
    """Times one :func:`reference_slice` every ``interval_s`` of wall
    time from ``SIGALRM``, in whatever code the main thread is running.

    ``samples`` holds ``(end, seconds)`` per slice, in time order;
    ``spent_s`` is the running total of sampling time, so a caller can
    subtract the sampler's share from an interval it timed.
    """

    def __init__(self, interval_s: float = SAMPLE_INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.spent_s = 0.0
        self.samples: List[Tuple[float, float]] = []
        self._previous: Any = None
        # written once, so every page of the arena is resident
        self._arena = memoryview(bytearray(b"\x5a") * ARENA_BYTES)
        self._draw = 1

    def sample(self, signum: Any = None, frame: Any = None) -> None:
        """Time one slice now (the signal handler; callable directly)."""
        started = time.perf_counter()
        self._draw = reference_slice(self._arena, self._draw)
        ended = time.perf_counter()
        self.samples.append((ended, ended - started))
        self.spent_s += ended - started

    def start(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def local_factors(intervals: Sequence[Tuple[float, float]],
                  samples: Sequence[Tuple[float, float]],
                  nominal_s: float,
                  window_s: float = WINDOW_S) -> List[float]:
    """For each ``(start, end)`` interval, the mean of ``nominal_s /
    seconds`` over the samples that ended within ``window_s`` of it (the
    nearest sample when none did): how many nominal seconds one host
    second was worth while the interval ran."""
    if not samples:
        raise ValueError("no speed samples")
    ends = [end for end, _ in samples]
    prefix = [0.0]
    for _, seconds in samples:
        prefix.append(prefix[-1] + nominal_s / seconds)
    factors = []
    for start, end in intervals:
        lo = bisect.bisect_left(ends, start - window_s)
        hi = bisect.bisect_right(ends, end + window_s)
        if lo == hi:
            # no sample in the window: the nearest one
            lo = min(lo, len(ends) - 1)
            if lo > 0 and start - ends[lo - 1] < ends[lo] - end:
                lo -= 1
            hi = lo + 1
        factors.append((prefix[hi] - prefix[lo]) / (hi - lo))
    return factors


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100)."""
    ordered = sorted(values)
    # rounded first: 99.9 * 10_000 / 100 is 9990.000000000002 in floats
    rank = max(1, math.ceil(round(q * len(ordered) / 100.0, 9)))
    return ordered[rank - 1]


def tail_quantile(samples: int) -> Optional[float]:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it,
    or None when even p90 has fewer."""
    for per_mille in (999, 990, 900):
        if samples * (1000 - per_mille) >= 10 * 1000:
            return per_mille / 10
    return None
