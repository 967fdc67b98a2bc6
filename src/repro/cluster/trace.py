"""Seed-deterministic planet-scale traffic synthesis.

One :class:`TraceConfig` describes a population of simulated users
hitting a keyed service; :func:`slot_columns` streams the request
records — ``(arrival_ns, user_id, key, klass)`` — in arrival order, one
slot's columns at a time, as a pure function of the config
(:func:`synthesize` is the same stream one record at a time).  Two
same-config calls produce byte-identical streams (:func:`trace_digest`,
pinned by tests/test_cluster_determinism.py).

The traffic shape has the three properties real planet-scale serving
traces have and uniform synthetic load does not:

* **Zipf key popularity** — request keys follow a Zipf(``zipf_s``)
  rank-frequency law, so a handful of hot keys dominate and consistent
  hashing produces genuinely hot shards worth rebalancing.
* **Diurnal load waves** — the per-slot arrival rate is modulated by a
  sinusoid of amplitude ``diurnal_amplitude`` across the horizon (one
  compressed "day"), so the cluster sees troughs it can drain in and
  peaks that push it past saturation.
* **Flash crowds** — ``flash_crowds`` deterministic burst events
  multiply the rate of a few adjacent slots by up to
  ``flash_multiplier`` (decaying linearly), the p999 tail-makers.

The generator never materializes the trace, only one slot of it: a
million-request stream costs O(largest slot + keys) memory.  Total
request count is exact — slot counts are apportioned from the modulated
weights by largest-remainder rounding, so
``sum(slot_counts(cfg)) == cfg.requests`` always.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from itertools import repeat
from operator import mul
from typing import Iterator, List, Optional, Tuple

#: request classes (FunctionBench workloads, repro.apps.faas) and the
#: probability of each — the index into CLASSES is the trace's ``klass``
CLASSES = ("float_operation", "json_dumps", "matmul", "pyaes")
#: cumulative class probabilities, aligned with CLASSES
_CLASS_CDF = (0.80, 0.92, 0.94, 1.00)

#: one record on the wire: arrival_ns, user_id, key, klass
RECORD = struct.Struct("<QIIB")
#: the most ``users`` or ``keys`` a trace may have: RECORD packs user
#: ids and keys as unsigned 32-bit fields
MAX_IDS = (1 << 32) - 1

#: one slot of the trace: (arrivals, users, keys, klasses), equal lengths
Columns = Tuple[List[int], List[int], List[int], List[int]]


@dataclass(frozen=True)
class TraceConfig:
    """Everything the synthesizer is a pure function of."""

    seed: int = 42
    #: total requests in the trace (exact)
    requests: int = 1_000_000
    #: key universe size (Zipf ranks; key 0 is the hottest)
    keys: int = 16_384
    #: simulated user population; user ids are drawn uniformly from it
    users: int = 4_000_000
    #: time slots across the horizon (the diurnal cycle's resolution)
    slots: int = 1_440
    #: simulated duration of one slot
    slot_ns: int = 35_000_000
    #: Zipf exponent for key popularity
    zipf_s: float = 1.1
    #: diurnal sinusoid amplitude (0 disables the wave)
    diurnal_amplitude: float = 0.6
    #: number of flash-crowd burst events
    flash_crowds: int = 2
    #: peak rate multiplier at the center of a flash crowd
    flash_multiplier: float = 8.0

    def __post_init__(self) -> None:
        if self.requests < 0:
            raise ValueError("requests must be >= 0")
        for name in ("keys", "users", "slots"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("keys", "users"):
            if getattr(self, name) > MAX_IDS:
                raise ValueError(f"{name} must be <= {MAX_IDS}")

    def scaled(self, **overrides) -> "TraceConfig":
        """Return a copy with individual fields overridden."""
        return replace(self, **overrides)

    @property
    def horizon_ns(self) -> int:
        return self.slots * self.slot_ns


def _zipf_cdf(keys: int, s: float) -> List[float]:
    """Cumulative Zipf(s) distribution over ``keys`` ranks."""
    weights = [1.0 / (rank ** s) for rank in range(1, keys + 1)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for weight in weights:
        acc += weight
        cdf.append(acc / total)
    cdf[-1] = 1.0
    return cdf


def slot_weights(cfg: TraceConfig) -> List[float]:
    """Per-slot rate multipliers: diurnal wave × flash crowds.

    Flash-crowd centers are drawn from ``Random(cfg.seed)`` before any
    per-request randomness, so the *shape* of the day is fixed by the
    seed alone.
    """
    rng = random.Random(cfg.seed)
    weights = [
        1.0 + cfg.diurnal_amplitude
        * math.sin(2.0 * math.pi * slot / cfg.slots)
        for slot in range(cfg.slots)
    ]
    width = max(2, cfg.slots // 100)
    for _ in range(cfg.flash_crowds):
        center = rng.randrange(cfg.slots)
        for offset in range(-width, width + 1):
            slot = center + offset
            if 0 <= slot < cfg.slots:
                decay = 1.0 - abs(offset) / (width + 1)
                weights[slot] += (cfg.flash_multiplier - 1.0) * decay
    return weights


def slot_counts(cfg: TraceConfig) -> List[int]:
    """Exact per-slot request counts (largest-remainder rounding of the
    modulated weights; always sums to ``cfg.requests``)."""
    weights = slot_weights(cfg)
    total = sum(weights)
    shares = [cfg.requests * weight / total for weight in weights]
    counts = [int(share) for share in shares]
    remainder = cfg.requests - sum(counts)
    order = sorted(range(cfg.slots),
                   key=lambda t: (counts[t] - shares[t], t))
    for t in order[:remainder]:
        counts[t] += 1
    return counts


def slot_columns(cfg: TraceConfig) -> Iterator[Columns]:
    """Stream the trace one slot at a time, as columns.

    Yields ``(arrivals, users, keys, klasses)`` — four equal-length
    lists — for every slot in order (empty lists for a slot with no
    requests).  ``klass`` indexes :data:`CLASSES`.  Arrivals within a
    slot are evenly spaced; key, user and class are drawn, in that
    order per request, from one ``Random(cfg.seed)`` stream (after the
    flash-crowd placement draws), so the whole trace is a pure function
    of the config.
    """
    counts = slot_counts(cfg)
    rng = random.Random(cfg.seed)
    for _ in range(cfg.flash_crowds):  # mirror slot_weights' draws
        rng.randrange(cfg.slots)
    zipf = _zipf_cdf(cfg.keys, cfg.zipf_s)
    users = cfg.users
    slot_ns = cfg.slot_ns
    uniform = rng.random
    class_cdf = _CLASS_CDF[:3]
    for slot, count in enumerate(counts):
        base = slot * slot_ns
        draws = [uniform() for _ in repeat(None, 3 * count)]
        yield ([base + (index * slot_ns) // count for index in range(count)],
               list(map(int, map(mul, draws[1::3], repeat(users)))),
               list(map(bisect_left, repeat(zipf), draws[0::3])),
               list(map(bisect_right, repeat(class_cdf), draws[2::3])))


def pack_columns(columns: Columns) -> bytes:
    """One slot's records packed back to back (:data:`RECORD` each)."""
    return b"".join(map(RECORD.pack, *columns))


def synthesize(cfg: TraceConfig) -> Iterator[Tuple[int, int, int, int]]:
    """Stream the trace in arrival order: the records of
    :func:`slot_columns`, one ``(arrival_ns, user_id, key, klass)``
    tuple at a time."""
    for columns in slot_columns(cfg):
        yield from zip(*columns)


def trace_digest(cfg: TraceConfig, limit: Optional[int] = None) -> str:
    """SHA-256 over the packed record stream (or its first ``limit``
    records) — the byte-equality witness the determinism tests pin."""
    hasher = hashlib.sha256()
    left = cfg.requests if limit is None else limit
    for columns in slot_columns(cfg):
        if left <= 0:
            break
        packed = pack_columns(columns)
        hasher.update(packed[:left * RECORD.size])
        left -= len(columns[0])
    return hasher.hexdigest()
