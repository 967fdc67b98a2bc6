"""The cluster layer: pools, shards, batching, migration, the report.

Functional contract of :mod:`repro.cluster` (docs/CLUSTER.md).  The
determinism half lives in tests/test_cluster_determinism.py; this file
checks that the pieces *do the right thing*: warm pools really fork and
reap on the kernel, shard calibration measures real cycles, batches
dispatch under the window/size policy, migration moves capacity, and
the ``repro.cluster/v1`` report is internally consistent.
"""

import json
from dataclasses import asdict

import pytest

from repro.cluster import (
    Batcher,
    CLASSES,
    ClusterCosts,
    DEFAULT_CLUSTER_COSTS,
    ConsistentHashRing,
    RECORD,
    TraceConfig,
    run_cluster,
)
from repro.cluster.trace import MAX_IDS
from repro.machine import live_machines

SMALL_RUN = dict(seed=9, shards=2, workers=2, requests=1_200,
                 keys=96, users=3_000, audit=2)


class TestClusterCosts:
    def test_derived_helpers_match_constants(self):
        costs = DEFAULT_CLUSTER_COSTS
        assert costs.per_request_overhead_ns == (
            costs.lb_route_ns + costs.wire_ns_per_byte
            * (costs.request_bytes + costs.response_bytes))
        assert costs.per_batch_overhead_ns == \
            costs.net_hop_ns + costs.batch_dispatch_ns
        assert costs.migration_ns(0) == costs.migration_fixed_ns
        assert costs.migration_ns(4_096) == \
            costs.migration_fixed_ns + 4_096 * costs.wire_ns_per_byte

    def test_scaled_overrides_and_freezes(self):
        costs = ClusterCosts().scaled(net_hop_ns=1)
        assert costs.net_hop_ns == 1
        with pytest.raises(Exception):
            costs.net_hop_ns = 2

    def test_all_constants_are_integers(self):
        assert all(isinstance(v, int)
                   for v in asdict(DEFAULT_CLUSTER_COSTS).values())

    @pytest.mark.parametrize("name", sorted(asdict(DEFAULT_CLUSTER_COSTS)))
    def test_negative_cost_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            DEFAULT_CLUSTER_COSTS.scaled(**{name: -1})

    def test_zero_costs_accepted_but_not_an_empty_batch(self):
        zero = {name: 0 for name in asdict(DEFAULT_CLUSTER_COSTS)}
        with pytest.raises(ValueError, match="max_batch"):
            ClusterCosts(**zero)
        assert ClusterCosts(**dict(zero, max_batch=1)).max_batch == 1


class TestTraceConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("requests", -1), ("keys", 0), ("users", 0), ("slots", 0),
        ("keys", 1 << 32), ("users", 1 << 32)])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TraceConfig(**{field: value})

    def test_widest_ids_the_record_packs_accepted(self):
        # constructing only: synthesizing this trace would build a
        # list of 2**32 - 1 Zipf weights
        widest = TraceConfig(keys=MAX_IDS, users=MAX_IDS)
        assert (widest.keys, widest.users) == (MAX_IDS, MAX_IDS)
        RECORD.pack(0, MAX_IDS - 1, MAX_IDS - 1, 0)

    def test_empty_trace_accepted(self):
        assert TraceConfig(requests=0).requests == 0


class TestBatcher:
    def test_size_dispatch_closes_at_triggering_arrival(self):
        batcher = Batcher(shards=1, window_ns=10_000, max_batch=2)
        assert list(batcher.add(0, 100, 0)) == []
        ((batch, close_ns),) = batcher.add(0, 150, 1)
        assert close_ns == 150
        assert batch.members == [(100, 0), (150, 1)]

    def test_window_dispatch_closes_at_timer_deadline(self):
        batcher = Batcher(shards=1, window_ns=1_000, max_batch=99)
        list(batcher.add(0, 100, 0))
        ((batch, close_ns),) = batcher.add(0, 9_999, 0)
        assert close_ns == 100 + 1_000
        assert len(batch.members) == 1
        # the late arrival opened a fresh batch
        ((tail, tail_close),) = batcher.flush()
        assert tail.members == [(9_999, 0)]
        assert tail_close == 9_999 + 1_000

    def test_shards_batch_independently(self):
        batcher = Batcher(shards=2, window_ns=1_000, max_batch=2)
        list(batcher.add(0, 10, 0))
        assert list(batcher.add(1, 20, 0)) == []   # other shard: no close
        assert len(list(batcher.flush())) == 2

    def test_accounting(self):
        batcher = Batcher(shards=1, window_ns=1_000, max_batch=3)
        for arrival in (1, 2, 3, 4):
            list(batcher.add(0, arrival, 0))
        list(batcher.flush())
        assert batcher.batches == 2
        assert batcher.held_requests == 4
        assert batcher.max_size == 3
        assert batcher.mean_size_ppm() == 2_000_000


class TestRingValidation:
    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(shards=0)
        with pytest.raises(ValueError):
            ConsistentHashRing(shards=1, vnodes=0)

    def test_single_shard_owns_everything(self):
        assert set(ConsistentHashRing(shards=1).shard_map(256)) == {0}


class TestWarmPool:
    def test_forks_are_real_and_reaps_are_real(self):
        from repro.api import Session

        session = Session(os="ufork", seed=21, obs=True).boot()
        pool = session.warm_pool(2)
        assert session.machine.counters.get("fork") == 2
        pids = {worker.pid for worker in pool.workers}
        assert len(pids) == 2 and pool.zygote.pid not in pids

        retired = pool.retire()
        assert retired in pids
        assert len(pool) == 1
        counters = session.obs_export()["metrics"]["counters"]
        assert counters["cluster.pool.forked"] == 2
        assert counters["cluster.pool.retired"] == 1

    def test_warm_runs_once_before_forks(self):
        from repro.api import Session

        calls = []
        session = Session(os="ufork", seed=22).boot()
        pool = session.warm_pool(3, warm=calls.append)
        assert calls == [pool.zygote]

    def test_size_must_be_positive(self):
        from repro.api import Session

        with pytest.raises(ValueError):
            Session(os="ufork", seed=23).warm_pool(0)

    def test_divergent_bytes_grow_with_private_writes(self):
        from repro.api import Session

        session = Session(os="ufork", seed=24).boot()
        pool = session.warm_pool(1)
        worker = pool.workers[-1]
        before = pool.divergent_bytes(worker)
        page = session.machine.config.page_size
        buf = worker.malloc(4 * page)
        worker.store(buf, b"x" * (4 * page))
        assert pool.divergent_bytes(worker) > before


class TestShard:
    def test_calibration_measures_every_class(self):
        from repro.cluster.shard import Shard

        shard = Shard(0, seed=31, workers=1, audit=1)
        assert set(shard.service_ns) == set(CLASSES)
        assert all(ns > 0 for ns in shard.service_ns.values())
        assert shard.service_by_klass == \
            [shard.service_ns[name] for name in CLASSES]

    def test_audit_budget_is_respected(self):
        from repro.cluster.shard import Shard

        shard = Shard(0, seed=32, workers=1, audit=2)
        for klass in (0, 0, 0, 0):
            shard.observe(klass)
        assert shard.audited == 2
        assert shard.requests == 4
        stats = shard.stats()
        assert stats["audited"] == 2
        assert stats["forks"] >= 1 + len(CLASSES) + 2
        assert len(stats["kernel_state_digest"]) == 64


class TestMigration:
    def test_migrate_moves_one_worker_between_real_shards(self):
        from repro.cluster.migrate import migrate_worker
        from repro.cluster.shard import Shard

        source = Shard(0, seed=41, workers=2)
        target = Shard(1, seed=42, workers=1)
        record = migrate_worker(source, target, DEFAULT_CLUSTER_COSTS)
        assert len(source.pool) == 1
        assert len(target.pool) == 2
        assert record["from"] == 0 and record["to"] == 1
        assert record["ns"] == DEFAULT_CLUSTER_COSTS.migration_ns(
            record["divergent_bytes"])
        counters = source.session.obs_export()["metrics"]["counters"]
        assert counters["cluster.migrate.out"] == 1

    def test_migration_transfers_the_workers_divergent_state(self):
        """The replacement on the target shard is not a fresh fork: it
        carries the migrated worker's private pages (shipped as an
        incremental repro.snapshot/v1 blob) and its registers, with
        every capability re-minted for the target machine."""
        from repro.cluster.migrate import migrate_worker
        from repro.cluster.shard import Shard

        source = Shard(0, seed=43, workers=1)
        target = Shard(1, seed=44, workers=1)
        worker = source.pool.workers[-1]
        cap = worker.malloc(64)
        worker.store(cap, b"migrated worker state")
        worker.store_cap(cap, cap.add(8), offset=32)
        worker.set_reg("c19", cap)
        divergent = source.pool.divergent_bytes(worker)

        record = migrate_worker(source, target, DEFAULT_CLUSTER_COSTS)
        assert record["divergent_bytes"] == divergent > 0

        twin = target.pool.workers[-1]
        tcap = twin.reg("c19")
        assert twin.load(tcap, 21) == b"migrated worker state"
        inner = twin.load_cap(tcap, offset=32)
        assert inner.valid and inner.base == tcap.base
        assert inner.cursor - tcap.cursor == 8
        counters = target.session.obs_export()["metrics"]["counters"]
        assert counters["cluster.migrate.in"] == 1
        assert counters["core.snapshot.pages_applied"] >= 1


class TestRunClusterReport:
    def test_report_is_internally_consistent(self):
        report = run_cluster(**SMALL_RUN)
        assert report["schema"] == "repro.cluster/v1"
        assert report["requests"] == SMALL_RUN["requests"]
        assert sum(report["balancer"]["shard_load"]) == report["requests"]
        latency = report["latency_ns"]
        assert latency["min"] <= latency["p50"] <= latency["p99"] \
            <= latency["p999"] <= latency["max"]
        assert latency["min"] > 0
        assert report["makespan_ns"] >= latency["max"]
        assert report["batches"]["count"] > 0
        assert report["batches"]["mean_size_ppm"] >= 1_000_000
        assert len(report["per_shard"]) == SMALL_RUN["shards"]
        for shard in report["per_shard"]:
            assert shard["audited"] == SMALL_RUN["audit"]
        assert report["obs"]["schema"] == "repro.obs/v1"
        assert report["obs"]["metrics"]["counters"][
            "cluster.shard.calibrations"] == \
            SMALL_RUN["shards"] * len(CLASSES)
        json.dumps(report)  # JSON-ready, no stray types

    def test_report_is_all_integers_where_it_matters(self):
        report = run_cluster(**SMALL_RUN)
        assert all(isinstance(v, int)
                   for v in report["latency_ns"].values())
        assert isinstance(report["makespan_ns"], int)
        assert isinstance(report["throughput_rps"], int)

    def test_migrations_move_worker_counts(self):
        report = run_cluster(seed=42, shards=2, workers=2,
                             requests=30_000, keys=512, users=5_000,
                             audit=0)
        workers = [s["workers"] for s in report["per_shard"]]
        assert sum(workers) == 4
        if report["migrations"]:       # capacity followed the load
            assert max(workers) > 2
            for record in report["migrations"]:
                assert record["from"] != record["to"]
                assert record["ns"] >= \
                    DEFAULT_CLUSTER_COSTS.migration_fixed_ns

    def test_validation(self):
        with pytest.raises(ValueError):
            run_cluster(shards=0)
        with pytest.raises(ValueError):
            run_cluster(workers=0)

    @pytest.mark.parametrize("argument,value", [
        ("audit", -1), ("max_migrations", -1), ("utilization_ppm", 0),
        ("requests", -5), ("keys", 0), ("users", 0), ("keys", 1 << 32),
        ("users", 1 << 32)])
    def test_out_of_range_arguments_rejected(self, argument, value):
        before = live_machines()  # held, so none of them can die
        with pytest.raises(ValueError, match=argument):
            run_cluster(**dict(SMALL_RUN, shards=1, **{argument: value}))
        # rejected before any shard boots
        assert len(live_machines()) == len(before)

    def test_zero_requests_still_run(self):
        report = run_cluster(**dict(SMALL_RUN, requests=0))
        assert report["requests"] == 0
        assert report["balancer"]["shard_load"] == [0, 0]
        assert report["balancer"]["hottest_share_ppm"] == 0
        assert report["throughput_rps"] == 0
        assert report["batches"]["count"] == 0
        assert set(report["latency_ns"].values()) == {0}

    def test_obs_dir_sidecars_match_reportio(self, tmp_path):
        from repro.harness.reportio import dumps_report, load_report
        from repro.obs import validate_export

        report = run_cluster(obs_dir=str(tmp_path), **SMALL_RUN)
        sidecar = tmp_path / f"cluster-{SMALL_RUN['seed']}.cluster.json"
        assert load_report(str(sidecar)) == report
        assert sidecar.read_text(encoding="utf-8") == \
            dumps_report(report)
        obs_path = tmp_path / f"cluster-{SMALL_RUN['seed']}.obs.json"
        with open(obs_path, encoding="utf-8") as handle:
            validate_export(json.load(handle))


class TestClusterCLI:
    def test_subcommand_prints_summary_and_writes_json(self, tmp_path,
                                                       capsys):
        from repro.harness.__main__ import main

        json_path = tmp_path / "cluster.json"
        assert main(["cluster", "--seed", "9", "--shards", "2",
                     "--workers", "2", "--requests", "1200",
                     "--keys", "96", "--users", "3000",
                     "--audit", "2", "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "cluster run: shards=2" in out
        with open(json_path, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["schema"] == "repro.cluster/v1"
        assert document == run_cluster(**SMALL_RUN)

    def test_foreign_flags_rejected(self):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit):
            main(["cluster", "--depth-bound", "3"])

    @pytest.mark.parametrize("flag,value", [
        ("--requests", "-5"), ("--keys", "0"), ("--users", "0"),
        ("--shards", "0"), ("--workers", "0"), ("--audit", "-1"),
        ("--max-migrations", "-1"), ("--shards", "two"),
        ("--keys", str(1 << 32)), ("--users", str(1 << 32))])
    def test_out_of_range_flags_are_usage_errors(self, flag, value, capsys):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["cluster", flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err
        assert "Traceback" not in err
