"""Differential: slot-at-a-time serving against the per-request loop.

:func:`repro.cluster.runner.run_cluster` serves the trace one slot at
a time: :func:`repro.cluster.trace.slot_columns` draws a slot's
records as four columns, the trace digest takes one ``update`` per
slot, and :meth:`Batcher.route` walks a chunk of requests in one frame,
handing closed batches to a callback.  This module keeps the serving
path as it used to be — the ``synthesize`` generator drawing one record
per resume, ``Batcher.add`` as a generator per request, one
``hasher.update`` per packed record and the audit, batching and
rebalance steps interleaved per request — as the reference, and
compares whole ``repro.cluster/v1`` reports byte for byte
(:func:`repro.harness.reportio.dumps_report`) over small runs that hit
every edge: one-member batches, windows shorter and longer than the
arrival spacing, rebalance indices inside a slot with migrations
firing, an audit budget that outlasts a rebalance index, empty slots
and fewer requests than slots.

Hypothesis checks the two halves on their own: the flattened slot
columns equal the reference record stream and ``trace_digest`` equals
the per-record hash; ``Batcher.route`` over arbitrary chunk cuts
dispatches the batches the per-request generator yields, in order.
"""

from __future__ import annotations

import hashlib
import random
from array import array
from bisect import bisect_left
from dataclasses import asdict
from itertools import accumulate
from typing import Any, Dict, Iterator, List, Optional, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster import (
    DEFAULT_CLUSTER_COSTS,
    RECORD,
    Batcher,
    ConsistentHashRing,
    TraceConfig,
    run_cluster,
    slot_counts,
    synthesize,
    trace_digest,
)
from repro.cluster.balancer import Batch
from repro.cluster.runner import RUN_SCHEMA, _POPCOUNT, _auto_trace
from repro.cluster.trace import _CLASS_CDF, _zipf_cdf, slot_columns
from repro.harness.reportio import dumps_report


# ---------------------------------------------------------------------------
# The reference: the per-request serving path
# ---------------------------------------------------------------------------

def reference_synthesize(cfg: TraceConfig
                         ) -> Iterator[Tuple[int, int, int, int]]:
    """The trace one record per resume, with the class ``if`` chain."""
    counts = slot_counts(cfg)
    rng = random.Random(cfg.seed)
    for _ in range(cfg.flash_crowds):
        rng.randrange(cfg.slots)
    zipf = _zipf_cdf(cfg.keys, cfg.zipf_s)
    c0, c1, c2 = _CLASS_CDF[0], _CLASS_CDF[1], _CLASS_CDF[2]
    for slot, count in enumerate(counts):
        base = slot * cfg.slot_ns
        for index in range(count):
            arrival = base + (index * cfg.slot_ns) // count
            key = bisect_left(zipf, rng.random())
            user = int(rng.random() * cfg.users)
            draw = rng.random()
            if draw < c0:
                klass = 0
            elif draw < c1:
                klass = 1
            elif draw < c2:
                klass = 2
            else:
                klass = 3
            yield arrival, user, key, klass


class ReferenceBatcher:
    """The batcher with ``add`` as a generator per request."""

    def __init__(self, shards: int, window_ns: int, max_batch: int) -> None:
        self.window_ns = window_ns
        self.max_batch = max_batch
        self._open: List[Optional[Batch]] = [None] * shards
        self.batches = 0
        self.max_size = 0
        self.held_requests = 0

    def add(self, shard: int, arrival_ns: int,
            klass: int) -> Iterator[Tuple[Batch, int]]:
        batch = self._open[shard]
        if batch is not None and arrival_ns - batch.open_ns > self.window_ns:
            self._open[shard] = None
            yield self._account(batch), batch.open_ns + self.window_ns
            batch = None
        if batch is None:
            batch = Batch(shard=shard, open_ns=arrival_ns)
            self._open[shard] = batch
        batch.members.append((arrival_ns, klass))
        if len(batch.members) >= self.max_batch:
            self._open[shard] = None
            yield self._account(batch), arrival_ns

    def flush(self) -> Iterator[Tuple[Batch, int]]:
        for shard, batch in enumerate(self._open):
            if batch is not None:
                self._open[shard] = None
                yield self._account(batch), batch.open_ns + self.window_ns

    def _account(self, batch: Batch) -> Batch:
        self.batches += 1
        size = len(batch.members)
        self.held_requests += size
        if size > self.max_size:
            self.max_size = size
        return batch

    def mean_size_ppm(self) -> int:
        if not self.batches:
            return 0
        return (self.held_requests * 1_000_000) // self.batches


def reference_run_cluster(*, seed: int = 42, shards: int = 4,
                          workers: int = 4, requests: int = 1_000_000,
                          keys: int = 16_384, users: int = 4_000_000,
                          cpus: int = 1, strategy: str = "copa",
                          audit: int = 16, vnodes: int = 64,
                          max_migrations: int = 8,
                          rebalance_every: Optional[int] = None,
                          utilization_ppm: int = 550_000,
                          costs: Any = None,
                          trace: Optional[TraceConfig] = None
                          ) -> Dict[str, Any]:
    """``run_cluster`` with the per-request serving loop."""
    from repro.cluster.migrate import migrate_worker
    from repro.cluster.shard import Shard
    from repro.obs import obs_session

    costs = costs or DEFAULT_CLUSTER_COSTS
    if rebalance_every is None:
        rebalance_every = max(1_000, requests // 8)

    with obs_session() as session:
        shard_objs = [
            Shard(index, seed=seed + 7_919 * index + 1, workers=workers,
                  cpus=cpus, strategy=strategy, audit=audit)
            for index in range(shards)
        ]
        if trace is None:
            trace = _auto_trace(TraceConfig(seed=seed, requests=requests,
                                            keys=keys, users=users),
                                shard_objs, shards * workers,
                                utilization_ppm)
        ring = ConsistentHashRing(shards, vnodes=vnodes, seed=seed)
        key_shard = ring.shard_map(trace.keys)

        latencies = array("q")
        batcher = ReferenceBatcher(shards, costs.batch_window_ns,
                                   costs.max_batch)
        free: List[List[int]] = [[0] * workers for _ in range(shards)]
        service = [shard.service_by_klass for shard in shard_objs]
        shard_load = [0] * shards
        user_bits = bytearray((trace.users >> 3) + 1)
        hasher = hashlib.sha256()
        last_completion = 0
        migrations: List[Dict[str, int]] = []

        def dispatch(batch: Batch, close_ns: int) -> None:
            nonlocal last_completion
            slot_list = free[batch.shard]
            busy_until = close_ns + costs.per_batch_overhead_ns
            worker = slot_list.index(min(slot_list))
            if slot_list[worker] > busy_until:
                busy_until = slot_list[worker]
            by_klass = service[batch.shard]
            for arrival, klass in batch.members:
                busy_until += by_klass[klass]
                latencies.append(busy_until + costs.net_hop_ns
                                 + costs.per_request_overhead_ns - arrival)
            slot_list[worker] = busy_until
            if busy_until > last_completion:
                last_completion = busy_until

        def rebalance(now: int, at_request: int) -> None:
            backlogs = [sum(f - now for f in slot_list if f > now)
                        for slot_list in free]
            hot = backlogs.index(max(backlogs))
            donors = [s for s in range(shards)
                      if s != hot and len(free[s]) > 1]
            if not donors:
                return
            cold = min(donors, key=lambda s: (backlogs[s], s))
            if backlogs[hot] <= (2 * backlogs[cold]
                                 + costs.migration_fixed_ns):
                return
            record = migrate_worker(shard_objs[cold], shard_objs[hot],
                                    costs)
            idle = free[cold].index(min(free[cold]))
            free[cold].pop(idle)
            free[hot].append(now + record["ns"])
            record["at_request"] = at_request
            record["at_ns"] = now
            migrations.append(record)

        index = 0
        next_rebalance = rebalance_every
        for arrival, user, key, klass in reference_synthesize(trace):
            hasher.update(RECORD.pack(arrival, user, key, klass))
            user_bits[user >> 3] |= 1 << (user & 7)
            shard = key_shard[key]
            shard_load[shard] += 1
            shard_obj = shard_objs[shard]
            if shard_obj.audit_left > 0:
                shard_obj.observe(klass)
            for batch, close_ns in batcher.add(shard, arrival, klass):
                dispatch(batch, close_ns)
            index += 1
            if index == next_rebalance:
                next_rebalance += rebalance_every
                if len(migrations) < max_migrations:
                    rebalance(arrival, index)
        for batch, close_ns in batcher.flush():
            dispatch(batch, close_ns)

        for shard, shard_obj in enumerate(shard_objs):
            shard_obj.requests = shard_load[shard]
        per_shard = [shard_obj.stats() for shard_obj in shard_objs]
        merged_obs = session.export()

    ordered = sorted(latencies)
    count = len(ordered)

    def percentile(q_ppm: int) -> int:
        if not count:
            return 0
        rank = (q_ppm * count + 999_999) // 1_000_000
        return ordered[max(0, rank - 1)]

    return {
        "schema": RUN_SCHEMA,
        "seed": seed,
        "shards": shards,
        "workers": workers,
        "cpus": cpus,
        "strategy": strategy,
        "requests": trace.requests,
        "trace": {
            "digest_sha256": hasher.hexdigest(),
            "keys": trace.keys,
            "users": trace.users,
            "unique_users": sum(_POPCOUNT[byte] for byte in user_bits),
            "slots": trace.slots,
            "slot_ns": trace.slot_ns,
            "horizon_ns": trace.horizon_ns,
            "zipf_s": trace.zipf_s,
            "flash_crowds": trace.flash_crowds,
        },
        "latency_ns": {
            "p50": percentile(500_000),
            "p99": percentile(990_000),
            "p999": percentile(999_000),
            "mean": (sum(ordered) // count) if count else 0,
            "min": ordered[0] if count else 0,
            "max": ordered[-1] if count else 0,
        },
        "makespan_ns": last_completion,
        "throughput_rps": (trace.requests * 1_000_000_000
                           // last_completion) if last_completion else 0,
        "batches": {
            "count": batcher.batches,
            "mean_size_ppm": batcher.mean_size_ppm(),
            "max_size": batcher.max_size,
        },
        "balancer": {
            "vnodes": vnodes,
            "shard_load": shard_load,
            "hottest_share_ppm": (max(shard_load) * 1_000_000
                                  // trace.requests)
            if trace.requests else 0,
        },
        "migrations": migrations,
        "costs": asdict(costs),
        "per_shard": per_shard,
        "obs": merged_obs,
    }


# ---------------------------------------------------------------------------
# Whole reports, byte for byte
# ---------------------------------------------------------------------------

BASE = dict(seed=9, shards=2, workers=2, requests=3_000, keys=96,
            users=3_000, audit=2)
COSTS = DEFAULT_CLUSTER_COSTS
SPARSE = TraceConfig(seed=4, requests=9, keys=96, users=3_000, slots=24,
                     slot_ns=1_000_000)


def trace_of(report: Dict[str, Any]) -> TraceConfig:
    """The trace a report served (default shape parameters)."""
    trace = report["trace"]
    return TraceConfig(seed=report["seed"], requests=report["requests"],
                       keys=trace["keys"], users=trace["users"],
                       slots=trace["slots"], slot_ns=trace["slot_ns"])


def slot_ends(report: Dict[str, Any]) -> set:
    """Request indices at which the report's trace crosses a slot."""
    return set(accumulate(slot_counts(trace_of(report))))


def audits_end(report: Dict[str, Any], budget: int) -> int:
    """The request index of the last audited request."""
    owner = ConsistentHashRing(report["shards"],
                               vnodes=report["balancer"]["vnodes"],
                               seed=report["seed"]).shard_map(
                                   report["trace"]["keys"])
    seen = [0] * report["shards"]
    last = 0
    for index, (_, _, key, _) in enumerate(synthesize(trace_of(report))):
        seen[owner[key]] += 1
        if seen[owner[key]] <= budget:
            last = index + 1
    return last


#: name -> (run_cluster kwargs, check on the report that the edge is hit)
EDGES = {
    "one-member-batches": (
        dict(BASE, costs=COSTS.scaled(max_batch=1)),
        lambda r: r["batches"]["count"] == r["requests"]),
    "window-shorter-than-spacing": (
        dict(BASE, costs=COSTS.scaled(batch_window_ns=1)),
        lambda r: r["batches"]["max_size"] == 1),
    "window-longer-than-spacing": (
        dict(BASE, costs=COSTS.scaled(batch_window_ns=10 ** 12,
                                      max_batch=7)),
        lambda r: r["batches"]["max_size"] == 7
        and r["batches"]["count"] <= r["requests"] // 7 + 2),
    "rebalance-mid-slot-with-migrations": (
        dict(BASE, shards=3, requests=20_000, rebalance_every=777),
        lambda r: len(r["migrations"]) >= 2
        and any(m["at_request"] not in slot_ends(r)
                for m in r["migrations"])),
    "audit-outlasts-a-rebalance-index": (
        dict(BASE, audit=400, rebalance_every=250),
        lambda r: all(s["audited"] == 400 for s in r["per_shard"])
        and any(m["at_request"] < audits_end(r, 400)
                for m in r["migrations"])),
    "empty-slots-and-fewer-requests-than-slots": (
        dict(BASE, rebalance_every=2, trace=SPARSE),
        lambda r: r["requests"] == 9 < r["trace"]["slots"]
        and 0 in slot_counts(SPARSE)),
    "no-audit": (dict(BASE, audit=0), lambda r: True),
}


@pytest.mark.parametrize("edge", sorted(EDGES))
def test_report_matches_per_request_reference(edge):
    kwargs, hits_edge = EDGES[edge]
    report = run_cluster(**kwargs)
    assert hits_edge(report), f"{edge}: the run does not reach its edge"
    assert dumps_report(report) == \
        dumps_report(reference_run_cluster(**kwargs))


def test_rebalance_every_must_be_positive():
    with pytest.raises(ValueError):
        run_cluster(**dict(BASE, rebalance_every=0))


# ---------------------------------------------------------------------------
# The halves on their own
# ---------------------------------------------------------------------------

trace_configs = st.builds(
    TraceConfig,
    seed=st.integers(0, 2 ** 32),
    requests=st.integers(0, 400),
    keys=st.integers(1, 64),
    users=st.integers(1, 10_000),
    slots=st.integers(1, 40),
    slot_ns=st.integers(1, 5_000_000),
    zipf_s=st.sampled_from([0.5, 1.1, 2.0]),
    diurnal_amplitude=st.sampled_from([0.0, 0.6, 0.99]),
    flash_crowds=st.integers(0, 3),
    flash_multiplier=st.sampled_from([1.0, 8.0]),
)


@settings(max_examples=60, deadline=None)
@given(cfg=trace_configs, limit=st.one_of(st.none(), st.integers(0, 450)))
def test_slot_columns_are_the_reference_stream(cfg, limit):
    reference = list(reference_synthesize(cfg))
    columns = list(slot_columns(cfg))
    assert [len(arrivals) for arrivals, *_ in columns] == slot_counts(cfg)
    assert [record for slot in columns for record in zip(*slot)] == \
        reference
    hasher = hashlib.sha256()
    for record in reference[:limit]:
        hasher.update(RECORD.pack(*record))
    assert trace_digest(cfg, limit) == hasher.hexdigest()


requests_streams = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3_000),
              st.integers(0, 3)),
    max_size=80)


@settings(max_examples=150, deadline=None)
@given(stream=requests_streams, window=st.integers(0, 2_000),
       max_batch=st.integers(1, 5),
       cuts=st.lists(st.integers(0, 80), max_size=6))
# an arrival exactly one window after the batch opened still joins it
@example(stream=[(0, 0, 0), (1, 50, 1), (0, 50, 2), (0, 1, 0)],
         window=100, max_batch=5, cuts=[2])
def test_route_dispatches_what_add_yields(stream, window, max_batch, cuts):
    shards, gaps, klasses = zip(*stream) if stream else ((), (), ())
    arrivals = []
    now = 0
    for gap in gaps:
        now += gap
        arrivals.append(now)

    reference = ReferenceBatcher(4, window, max_batch)
    expected = [(batch.shard, batch.open_ns, batch.members, close_ns)
                for request in zip(shards, arrivals, klasses)
                for batch, close_ns in reference.add(*request)]
    expected_tail = [(batch.shard, batch.open_ns, batch.members, close_ns)
                     for batch, close_ns in reference.flush()]

    batcher = Batcher(4, window, max_batch)
    got = []
    bounds = sorted({0, len(stream), *(c for c in cuts if c < len(stream))})
    for start, stop in zip(bounds, bounds[1:]):
        batcher.route(shards[start:stop], arrivals[start:stop],
                      klasses[start:stop],
                      lambda shard, members, close_ns: got.append(
                          (shard, members[0][0], members, close_ns)))
    tail = [(batch.shard, batch.open_ns, batch.members, close_ns)
            for batch, close_ns in batcher.flush()]
    assert got == expected
    assert tail == expected_tail
    assert (batcher.batches, batcher.held_requests, batcher.max_size,
            batcher.mean_size_ppm()) == \
        (reference.batches, reference.held_requests, reference.max_size,
         reference.mean_size_ppm())
    assert batcher.held_requests == len(stream)
