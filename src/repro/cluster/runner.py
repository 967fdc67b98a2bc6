"""The cluster runner behind ``python -m repro.harness cluster``.

Boots N independent shard machines (each a real
:class:`repro.api.Session` with a zygote warm pool), synthesizes a
planet-scale request trace (:mod:`repro.cluster.trace`), routes it
through the deterministic consistent-hash balancer with batching
(:mod:`repro.cluster.balancer`), serves it against per-shard capacity
whose service times are *calibrated on the real machines*, rebalances
hot shards by migrating workers (:mod:`repro.cluster.migrate`), and
merges every shard's ``repro.obs/v1`` export into one
``repro.cluster/v1`` report with p50/p99/p999 latency and makespan.

Everything is a pure function of the keyword arguments: the trace, the
ring, the calibrated service times, the migration schedule and the
merged observability export are all seed-deterministic, so two
same-argument runs emit **byte-identical** reports
(tests/test_cluster_determinism.py pins this; the CI cluster job
uploads the artifact).

Scale note: requests are *simulated through the cluster's queueing
model*, served one trace slot at a time in columns, at about 2.1 μs of
host time per request (470k requests/s in ``bench/run.py --workload
cluster``, at that benchmark's nominal host speed), while a budgeted
subset (per-class calibration plus ``audit`` requests per shard)
executes on the real machines — which is what makes a million-request
run finish in a few host seconds without the model ever detaching from
measured mechanism.  Each latency is kept in 4 bytes (8 from 2^32 ns
up), grouped by bit length, and only the octaves that hold a reported
percentile are sorted (:func:`summarize_latencies`).

Like the chaos/smp/conform runners, this module imports the full OS
stack and is *not* re-exported from :mod:`repro.cluster`.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.balancer import Batcher, ConsistentHashRing
from repro.cluster.params import DEFAULT_CLUSTER_COSTS, ClusterCosts
from repro.cluster.trace import TraceConfig, pack_columns, slot_columns

#: schema tag for the report / ``*.cluster.json`` sidecar
RUN_SCHEMA = "repro.cluster/v1"

#: the acceptance-scale default: one million simulated requests
DEFAULT_REQUESTS = 1_000_000

#: per-class request probabilities in ppm, aligned with trace.CLASSES
_CLASS_PROB_PPM = (800_000, 120_000, 20_000, 60_000)

#: latencies of bit length 32 or less fit a 4-byte unsigned octave
_NARROW = "I" if array("I").itemsize == 4 else "q"

#: the nearest-rank percentiles a report carries, in rank order
_PERCENTILES_PPM = (("p50", 500_000), ("p99", 990_000), ("p999", 999_000))

#: 3.9-compatible popcount table for the unique-user bitset, as a
#: ``bytes.translate`` table (byte -> its set-bit count)
_POPCOUNT = bytes(bin(value).count("1") for value in range(256))


def latency_octaves() -> List[array]:
    """Empty latency storage grouped by bit length: a non-negative
    latency ``ns`` is filed as ``octaves[ns.bit_length()].append(ns)``,
    in 4 bytes up to bit length 32 and in 8 beyond."""
    return [array(_NARROW if bits <= 32 else "q") for bits in range(64)]


def summarize_latencies(octaves: List[array]) -> Dict[str, int]:
    """The report's ``latency_ns`` block from :func:`latency_octaves`.

    Octave order is value order, because every latency is non-negative,
    so each nearest-rank percentile is found by walking the octaves'
    sizes and sorting only the octave that holds the rank, at most once
    per octave."""
    filled = [octave for octave in octaves if octave]
    count = sum(map(len, filled))
    if not count:
        return {"p50": 0, "p99": 0, "p999": 0,
                "mean": 0, "min": 0, "max": 0}
    summary: Dict[str, int] = {}
    walk = iter(filled)
    octave = next(walk)
    below = 0  # requests in the octaves before ``octave``
    ordered: Optional[List[int]] = None
    for name, q_ppm in _PERCENTILES_PPM:
        rank = max(1, (q_ppm * count + 999_999) // 1_000_000)
        while rank > below + len(octave):
            below += len(octave)
            octave = next(walk)
            ordered = None
        if ordered is None:
            ordered = sorted(octave)
        summary[name] = ordered[rank - below - 1]
    summary["mean"] = sum(map(sum, filled)) // count
    summary["min"] = min(filled[0])
    summary["max"] = max(filled[-1])
    return summary


def _auto_trace(trace: TraceConfig, shard_objs: List[Any],
                workers_total: int, utilization_ppm: int) -> TraceConfig:
    """Size ``trace``'s horizon from the *calibrated* service times so
    the offered load sits at ``utilization_ppm`` of cluster capacity —
    peaks saturate, troughs drain, and the defaults stay sane at any
    request count or cost model."""
    total = 0
    for shard in shard_objs:
        total += sum(ns * prob for ns, prob
                     in zip(shard.service_by_klass, _CLASS_PROB_PPM)
                     ) // 1_000_000
    mean_service_ns = max(1, total // len(shard_objs))
    horizon_ns = (trace.requests * mean_service_ns * 1_000_000
                  // (workers_total * utilization_ppm))
    slots = min(1_440, max(8, trace.requests // 32))
    return trace.scaled(slots=slots, slot_ns=max(1_000, horizon_ns // slots))


def run_cluster(*, seed: int = 42, shards: int = 4, workers: int = 4,
                requests: int = DEFAULT_REQUESTS, keys: int = 16_384,
                users: int = 4_000_000, cpus: int = 1,
                strategy: str = "copa", audit: int = 16,
                vnodes: int = 64, max_migrations: int = 8,
                rebalance_every: Optional[int] = None,
                utilization_ppm: int = 550_000,
                costs: Optional[ClusterCosts] = None,
                trace: Optional[TraceConfig] = None,
                obs_dir: Optional[str] = None) -> Dict[str, Any]:
    """Serve one synthesized trace on a sharded cluster; returns the
    JSON-ready ``repro.cluster/v1`` report.

    With ``obs_dir`` set, writes two sidecars there:
    ``cluster-<seed>.obs.json`` (the merged ``repro.obs/v1`` export,
    also embedded in the report under ``"obs"``) and
    ``cluster-<seed>.cluster.json`` (the report itself), through
    :func:`repro.harness.matrix.write_sidecars`.
    """
    from repro.cluster.shard import Shard
    from repro.cluster.migrate import migrate_worker
    from repro.obs import obs_session

    if shards < 1:
        raise ValueError("shards must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if audit < 0:
        raise ValueError("audit must be >= 0")
    if max_migrations < 0:
        raise ValueError("max_migrations must be >= 0")
    if utilization_ppm < 1:
        raise ValueError("utilization_ppm must be >= 1")
    costs = costs or DEFAULT_CLUSTER_COSTS
    if rebalance_every is None:
        rebalance_every = max(1_000, requests // 8)
    if rebalance_every < 1:
        raise ValueError("rebalance_every must be >= 1")
    auto = trace is None
    if auto:
        # rejects a bad requests, keys or users before any shard boots
        trace = TraceConfig(seed=seed, requests=requests, keys=keys,
                            users=users)

    with obs_session() as session:
        shard_objs = [
            Shard(index, seed=seed + 7_919 * index + 1, workers=workers,
                  cpus=cpus, strategy=strategy, audit=audit)
            for index in range(shards)
        ]
        if auto:
            trace = _auto_trace(trace, shard_objs, shards * workers,
                                utilization_ppm)
        ring = ConsistentHashRing(shards, vnodes=vnodes, seed=seed)
        key_shard = ring.shard_map(trace.keys)

        # -- the serving loop: one trace slot at a time, in columns --
        octaves = latency_octaves()
        batcher = Batcher(shards, costs.batch_window_ns, costs.max_batch)
        free: List[List[int]] = [[0] * workers for _ in range(shards)]
        service = [shard.service_by_klass for shard in shard_objs]
        per_batch = costs.per_batch_overhead_ns
        #: what each request pays on top of its queueing and service
        overhead = costs.net_hop_ns + costs.per_request_overhead_ns
        shard_load = [0] * shards
        user_bits = bytearray((trace.users >> 3) + 1)
        hasher = hashlib.sha256()
        last_completion = 0
        migrations: List[Dict[str, int]] = []

        def dispatch(shard: int, members: List[Tuple[int, int]],
                     close_ns: int) -> None:
            nonlocal last_completion
            slot_list = free[shard]
            earliest = min(slot_list)
            worker = slot_list.index(earliest)
            busy_until = close_ns + per_batch
            if earliest > busy_until:
                busy_until = earliest
            by_klass = service[shard]
            for arrival, klass in members:
                busy_until += by_klass[klass]
                latency = busy_until + overhead - arrival
                octaves[latency.bit_length()].append(latency)
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

        def audit(targets: List[int], klasses: List[int]) -> None:
            # re-execute, in request order, the chunk's requests that
            # still fall in their shard's audit budget
            due = sum(min(shard_objs[shard].audit_left, targets.count(shard))
                      for shard in auditing)
            for shard, klass in zip(targets, klasses):
                if not due:
                    break
                shard_obj = shard_objs[shard]
                if shard_obj.audit_left > 0:
                    shard_obj.observe(klass)
                    due -= 1

        auditing = [shard for shard in range(shards)
                    if shard_objs[shard].audit_left > 0]
        served = 0
        next_rebalance = rebalance_every
        for columns in slot_columns(trace):
            arrivals, users, keys, klasses = columns
            hasher.update(pack_columns(columns))
            for user in users:
                user_bits[user >> 3] |= 1 << (user & 7)
            targets = list(map(key_shard.__getitem__, keys))
            for shard in range(shards):
                shard_load[shard] += targets.count(shard)
            count = len(targets)
            start = 0
            while start < count:
                # a chunk ends at the slot's end or at the next
                # rebalance index, where the rebalance runs
                stop = min(count, next_rebalance - served)
                chunk = targets[start:stop]
                chunk_klasses = klasses[start:stop]
                if auditing:
                    audit(chunk, chunk_klasses)
                    auditing = [shard for shard in auditing
                                if shard_objs[shard].audit_left > 0]
                batcher.route(chunk, arrivals[start:stop], chunk_klasses,
                              dispatch)
                if served + stop == next_rebalance:
                    next_rebalance += rebalance_every
                    if len(migrations) < max_migrations:
                        rebalance(arrivals[stop - 1], served + stop)
                start = stop
            served += count
        for batch, close_ns in batcher.flush():
            dispatch(batch.shard, batch.members, close_ns)

        for shard, shard_obj in enumerate(shard_objs):
            shard_obj.requests = shard_load[shard]
        per_shard = [shard_obj.stats() for shard_obj in shard_objs]
        merged_obs = session.export()

    # -- aggregation ----------------------------------------------------
    unique_users = sum(user_bits.translate(_POPCOUNT))
    report: Dict[str, Any] = {
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
            "unique_users": unique_users,
            "slots": trace.slots,
            "slot_ns": trace.slot_ns,
            "horizon_ns": trace.horizon_ns,
            "zipf_s": trace.zipf_s,
            "flash_crowds": trace.flash_crowds,
        },
        "latency_ns": summarize_latencies(octaves),
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

    if obs_dir is not None:
        from repro.harness.matrix import write_sidecars
        write_sidecars(obs_dir, f"cluster-{seed}", obs=merged_obs,
                       cluster=report)
    return report


def format_summary(report: Dict[str, Any]) -> str:
    """Render a cluster report for the CLI."""
    latency = report["latency_ns"]
    batches = report["batches"]
    balancer = report["balancer"]
    lines = [
        f"cluster run: shards={report['shards']} "
        f"workers={report['workers']}/shard seed={report['seed']} "
        f"strategy={report['strategy']} requests={report['requests']:,}",
        f"  trace: {report['trace']['unique_users']:,} unique users of "
        f"{report['trace']['users']:,}, {report['trace']['keys']:,} keys "
        f"(zipf {report['trace']['zipf_s']}), "
        f"{report['trace']['flash_crowds']} flash crowds over "
        f"{report['trace']['horizon_ns'] / 1e9:.2f} simulated s",
        f"  latency: p50={latency['p50'] / 1e6:.3f} ms "
        f"p99={latency['p99'] / 1e6:.3f} ms "
        f"p999={latency['p999'] / 1e6:.3f} ms "
        f"max={latency['max'] / 1e6:.3f} ms",
        f"  makespan={report['makespan_ns'] / 1e9:.3f} s "
        f"throughput={report['throughput_rps']:,} req/s",
        f"  batches: {batches['count']:,} "
        f"(mean {batches['mean_size_ppm'] / 1e6:.2f} req, "
        f"max {batches['max_size']}); hottest shard carries "
        f"{balancer['hottest_share_ppm'] / 1e4:.1f}% of traffic",
    ]
    for migration in report["migrations"]:
        lines.append(
            f"  migration @req {migration['at_request']:,}: shard "
            f"{migration['from']} -> {migration['to']} "
            f"({migration['divergent_bytes']} divergent bytes, "
            f"{migration['ns'] / 1e6:.2f} ms)")
    for shard in report["per_shard"]:
        lines.append(
            f"  shard {shard['shard']}: {shard['requests']:,} reqs "
            f"({shard['workers']} workers, {shard['audited']} audited, "
            f"{shard['forks']} real forks) "
            f"digest={shard['kernel_state_digest'][:16]}…")
    return "\n".join(lines)
