"""Tests for the unified observability layer (repro.obs)."""

import json
import os

import pytest

from repro.apps.guest import GuestContext
from repro.apps.hello import hello_world_image
from repro.clock import SimClock
from repro.core import CopyStrategy, IsolationConfig, UForkOS
from repro.machine import Machine
from repro.obs import (
    DEFAULT_BUCKETS_NS,
    Histogram,
    MetricsRegistry,
    Observability,
    SCHEMA,
    check_metric_name,
    merge_exports,
    obs_session,
    to_json,
    validate_export,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def boot_ufork():
    os_ = UForkOS(machine=Machine(),
                  copy_strategy=CopyStrategy.COPA,
                  isolation=IsolationConfig.fault())
    ctx = GuestContext(os_, os_.spawn(hello_world_image(), "app"))
    return os_, ctx


def run_hello_forks(os_, ctx, n=3):
    for _ in range(n):
        child = ctx.fork()
        child.exit(0)
        ctx.wait(child.pid)


# ---------------------------------------------------------------------------
# Naming contract
# ---------------------------------------------------------------------------

class TestMetricNames:
    def test_valid_names(self):
        for name in ("hw.tlb.flush", "kernel.syscall.entries",
                     "span.syscall.fork", "a.b", "x_1.y_2"):
            assert check_metric_name(name) == name

    @pytest.mark.parametrize("bad", [
        "single", "Upper.case", "has.space bad", "has..empty",
        "trailing.", ".leading", "has-dash.x", "",
    ])
    def test_invalid_names_raise(self, bad):
        with pytest.raises(ValueError):
            check_metric_name(bad)

    def test_registry_rejects_kind_rebinding(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        with pytest.raises(ValueError):
            registry.gauge("a.b")
        with pytest.raises(ValueError):
            registry.histogram("a.b")


# ---------------------------------------------------------------------------
# Counters and gauges
# ---------------------------------------------------------------------------

class TestCounters:
    def test_monotonic_accumulation(self):
        registry = MetricsRegistry()
        counter = registry.counter("hw.tlb.flush")
        counter.inc()
        counter.inc(4)
        assert registry.counters() == {"hw.tlb.flush": 5}
        # get-or-create returns the same metric
        assert registry.counter("hw.tlb.flush") is counter

    def test_negative_increment_raises(self):
        counter = MetricsRegistry().counter("hw.tlb.flush")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("kernel.sched.runqueue_depth")
        gauge.set(5)
        gauge.set(2)
        assert gauge.value == 2


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------

class TestHistogram:
    def test_default_bucket_layout(self):
        # 1-2-5 decade series, 1 ns .. 5e9 ns, strictly increasing
        assert DEFAULT_BUCKETS_NS[0] == 1
        assert DEFAULT_BUCKETS_NS[-1] == 5 * 10 ** 9
        assert len(DEFAULT_BUCKETS_NS) == 30
        assert list(DEFAULT_BUCKETS_NS) == sorted(set(DEFAULT_BUCKETS_NS))

    def test_value_on_bound_lands_in_that_bucket(self):
        hist = Histogram("span.syscall.fork")
        for bound in (1, 2, 5, 10, 200, 5 * 10 ** 9):
            hist.observe(bound)
        exported = dict(
            (le, n) for le, n in hist.export()["buckets"])
        assert exported == {1: 1, 2: 1, 5: 1, 10: 1, 200: 1,
                            5 * 10 ** 9: 1}

    def test_between_bounds_rounds_up(self):
        hist = Histogram("span.syscall.fork")
        hist.observe(3)          # 2 < 3 <= 5
        assert hist.export()["buckets"] == [[5, 1]]

    def test_overflow_bucket(self):
        hist = Histogram("span.syscall.fork")
        hist.observe(5 * 10 ** 9 + 1)
        assert hist.overflow == 1
        assert hist.export()["buckets"] == [[None, 1]]

    def test_summary_stats(self):
        hist = Histogram("span.syscall.fork")
        for value in (10, 30, 20):
            hist.observe(value)
        export = hist.export()
        assert export["count"] == 3
        assert export["sum"] == 60
        assert export["min"] == 10
        assert export["max"] == 30

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("a.b", bounds=(5, 2, 10))


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class TestSpans:
    def test_nested_attribution(self):
        clock = SimClock()
        obs = Observability(clock).enable()
        with obs.span("syscall.fork"):
            with obs.span("copy_pages"):
                clock.advance(640, "page_copy")
            clock.advance(100, "fork_fixed")
        clock.advance(60)   # outside any span -> root self time

        root = obs.span_tree.root
        fork = obs.span_tree.node("syscall.fork")
        copy = obs.span_tree.node("syscall.fork.copy_pages")
        assert copy.self_ns == 640
        assert fork.self_ns == 100
        assert fork.total_ns == 740
        assert root.self_ns == 60
        assert root.total_ns == clock.now_ns == 800

    def test_span_duration_recorded_as_histogram(self):
        clock = SimClock()
        obs = Observability(clock).enable()
        with obs.span("syscall.fork"):
            clock.advance(1234)
        hist = obs.registry.histograms()["span.syscall.fork"]
        assert hist.count == 1
        assert hist.sum == 1234

    def test_reentry_aggregates(self):
        clock = SimClock()
        obs = Observability(clock).enable()
        for _ in range(3):
            with obs.span("syscall.fork"):
                clock.advance(10)
        node = obs.span_tree.node("syscall.fork")
        assert node.count == 3
        assert node.self_ns == 30

    def test_out_of_order_close_raises(self):
        obs = Observability(SimClock()).enable()
        outer = obs.span_tree.open("a")
        obs.span_tree.open("b")
        with pytest.raises(RuntimeError):
            obs.span_tree.close(outer)

    def test_time_mirrored_to_bucket_counters(self):
        clock = SimClock()
        obs = Observability(clock).enable()
        clock.advance(500, "fork_fixed")
        clock.advance(250, "fork_fixed")
        assert obs.registry.counters()["time.fork_fixed"] == 750


# ---------------------------------------------------------------------------
# Disabled path: zero overhead, zero simulated-time impact
# ---------------------------------------------------------------------------

class TestDisabledPath:
    def test_disabled_records_nothing(self):
        obs = Observability(SimClock())
        obs.count("a.b")
        obs.gauge_set("a.c", 1)
        obs.observe("a.d", 5)
        with obs.span("a.e"):
            pass
        assert obs.registry.export() == {
            "counters": {}, "gauges": {}, "histograms": {}}
        assert obs.span_tree.root.total_ns == 0

    def test_machine_obs_disabled_by_default(self):
        machine = Machine()
        assert machine.obs.enabled is False
        clock = machine.clock
        machine.charge(5, "fork_fixed")

        def state():
            return {name: dict(value) if isinstance(value, dict) else value
                    for name, value in vars(clock).items()}

        before = state()
        # obs reads the clock by difference: switching it on and off
        # installs nothing on the clock and changes none of its state
        for switch in (machine.obs.enable, machine.obs.disable):
            switch()
            assert type(clock) is SimClock
            assert state() == before

    def test_workload_leaves_disabled_registry_empty(self):
        os_, ctx = boot_ufork()
        run_hello_forks(os_, ctx, n=2)
        assert os_.machine.obs.registry.export() == {
            "counters": {}, "gauges": {}, "histograms": {}}

    def test_enabling_does_not_change_simulated_results(self):
        os_a, ctx_a = boot_ufork()
        run_hello_forks(os_a, ctx_a, n=3)

        os_b, ctx_b = boot_ufork()
        os_b.machine.obs.enable()
        run_hello_forks(os_b, ctx_b, n=3)

        assert os_a.machine.clock.now_ns == os_b.machine.clock.now_ns
        assert (os_a.machine.counters.snapshot()
                == os_b.machine.counters.snapshot())
        assert os_a.machine.clock.buckets == os_b.machine.clock.buckets


# ---------------------------------------------------------------------------
# Root invariant on a real workload
# ---------------------------------------------------------------------------

class TestWorkloadAttribution:
    def test_root_total_equals_observed_clock_time(self):
        os_, ctx = boot_ufork()
        obs = os_.machine.obs.enable()
        start = os_.machine.clock.now_ns
        run_hello_forks(os_, ctx, n=3)
        elapsed = os_.machine.clock.now_ns - start
        assert obs.span_tree.root.total_ns == elapsed
        export = obs.export()
        assert export["observed_ns"] == elapsed
        validate_export(export)

    def test_fork_phases_nest_under_syscall_fork(self):
        os_, ctx = boot_ufork()
        obs = os_.machine.obs.enable()
        run_hello_forks(os_, ctx, n=1)
        fork = obs.span_tree.node("syscall.fork")
        assert fork is not None
        assert set(fork.children) >= {"fixed", "copy_pages", "registers"}

    def test_instrumented_counters_fire(self):
        os_, ctx = boot_ufork()
        obs = os_.machine.obs.enable()
        run_hello_forks(os_, ctx, n=1)
        counters = obs.registry.counters()
        assert counters["core.ufork.forks"] == 1
        assert counters["kernel.syscall.entries"] >= 3
        assert counters["hw.phys.frames_copied"] >= 1
        assert counters["core.relocate.frames_scanned"] >= 1


# ---------------------------------------------------------------------------
# Export / merge / golden file
# ---------------------------------------------------------------------------

def golden_scenario_export():
    """A deterministic, hand-auditable scenario (no machine involved)."""
    clock = SimClock()
    obs = Observability(clock).enable()
    with obs.span("syscall.fork"):
        with obs.span("copy_pages"):
            clock.advance(640, "page_copy")
            clock.advance(640, "page_copy")
        with obs.span("registers"):
            clock.advance(60, "reloc_reg")
        clock.advance(500, "fork_fixed")
    obs.count("hw.tlb.flush")
    obs.count("core.ufork.forks")
    obs.gauge_set("kernel.sched.runqueue_depth", 2)
    obs.observe("kernel.ipc.msg_bytes", 4096)
    clock.advance(100)
    return obs.export()


class TestExport:
    def test_golden_file(self):
        export = golden_scenario_export()
        validate_export(export)
        path = os.path.join(GOLDEN_DIR, "obs_export.json")
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle) == export

    def test_to_json_is_deterministic(self):
        a = to_json(golden_scenario_export())
        b = to_json(golden_scenario_export())
        assert a == b
        assert json.loads(a)["schema"] == SCHEMA

    def test_merge_sums_counters_and_spans(self):
        first = golden_scenario_export()
        second = golden_scenario_export()
        merged = merge_exports([first, second])
        validate_export(merged)
        assert merged["observed_ns"] == 2 * first["observed_ns"]
        assert merged["metrics"]["counters"]["hw.tlb.flush"] == 2
        # gauges keep the maximum
        assert merged["metrics"]["gauges"][
            "kernel.sched.runqueue_depth"] == 2
        assert merged["spans"]["total_ns"] == 2 * first["spans"]["total_ns"]

    def test_merge_rejects_foreign_schema(self):
        with pytest.raises(ValueError):
            merge_exports([{"schema": "something/else"}])

    def test_validate_rejects_inconsistent_span_totals(self):
        export = golden_scenario_export()
        export["spans"]["total_ns"] += 1
        with pytest.raises(ValueError):
            validate_export(export)


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------

class TestSession:
    def test_session_adopts_and_merges_machines(self):
        with obs_session() as session:
            os_a, ctx_a = boot_ufork()
            run_hello_forks(os_a, ctx_a, n=1)
            os_b, ctx_b = boot_ufork()
            run_hello_forks(os_b, ctx_b, n=1)
        assert os_a.machine.obs.enabled
        assert os_b.machine.obs.enabled
        assert len(session.observabilities) == 2
        merged = session.export()
        validate_export(merged)
        assert merged["metrics"]["counters"]["core.ufork.forks"] == 2
        assert merged["observed_ns"] == (os_a.machine.clock.now_ns
                                         + os_b.machine.clock.now_ns)

    def test_machines_outside_session_stay_disabled(self):
        with obs_session():
            pass
        machine = Machine()
        assert machine.obs.enabled is False


# ---------------------------------------------------------------------------
# The obs-report harness entry point
# ---------------------------------------------------------------------------

class TestObsReport:
    def test_report_runs_and_exports(self, tmp_path, capsys):
        from repro.harness.obsreport import obs_report
        json_path = str(tmp_path / "profile.json")
        exports = obs_report(samples=2, json_path=json_path)
        assert set(exports) == {"ufork", "cheribsd", "nephele"}
        for export in exports.values():
            validate_export(export)
            assert export["spans"]["total_ns"] == export["observed_ns"]
        out = capsys.readouterr().out
        assert "syscall.fork" in out
        with open(json_path, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["workload"] == "fig8_hello_fork"
        assert set(document["systems"]) == {"ufork", "cheribsd", "nephele"}

    def test_cli_subcommand(self, tmp_path, capsys):
        from repro.harness.__main__ import main
        assert main(["obs-report"]) == 0
        assert "syscall.fork" in capsys.readouterr().out

    def test_cli_obs_dir_sidecar(self, tmp_path, capsys):
        from repro.harness.__main__ import main
        obs_dir = str(tmp_path)
        assert main(["--only", "fig8", "--obs-dir", obs_dir]) == 0
        path = tmp_path / "fig8.obs.json"
        with open(path, encoding="utf-8") as handle:
            export = json.load(handle)
        validate_export(export)
        assert export["spans"]["total_ns"] == export["observed_ns"]
