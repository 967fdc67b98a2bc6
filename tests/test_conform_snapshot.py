"""Conformance coverage of the snapshot op: the sim-only
checkpoint/restore scenarios run under every fork strategy at 1/2/4
CPUs, through the interleaving explorer (clean and with injected
mid-restore aborts), and ride in the farm's work matrix.  There is no
host oracle here — the host has no CRIU — so the ground truth is the
op's documented semantics plus trace stability across strategies,
schedules and seeds."""

from __future__ import annotations

import pytest

from repro.conform.dsl import Scenario, snapshot_
from repro.conform.scenarios import by_name, corpus, snapshot_corpus
from repro.conform.simrun import run_sim
from repro.harness.matrix import CONFORM_STRATEGIES

SCENARIOS = snapshot_corpus()


def test_snapshot_corpus_is_sim_only():
    host_names = {scenario.name for scenario in corpus()}
    for scenario in SCENARIOS:
        assert scenario.name not in host_names
        assert by_name(scenario.name).name == scenario.name
    assert len(SCENARIOS) >= 5


def test_dsl_accepts_and_validates_snapshot():
    assert snapshot_("c") == ("snapshot", "c")
    with pytest.raises(ValueError, match="snapshot of unknown"):
        Scenario("bad", {"main": (snapshot_("nope"),)})
    scenario = SCENARIOS[0]
    # snapshot clones every resource the caller holds: never
    # independent of anything (the DPOR fork/exit caveat applies)
    assert not scenario.ops_independent(("snapshot", "c"),
                                        ("heap_set", "x", 1))
    assert scenario.op_footprint(("snapshot", "c")) == \
        frozenset({"proctree"})


@pytest.mark.parametrize("strategy", CONFORM_STRATEGIES)
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_trace_is_strategy_and_cpu_invariant(scenario, strategy):
    """One logical trace per scenario, whatever kernel runs it."""
    reference, _ = run_sim(scenario, strategy="copa", num_cpus=1, seed=1)
    for cpus in (1, 2, 4):
        trace, _meta = run_sim(scenario, strategy=strategy,
                               num_cpus=cpus, seed=1)
        assert trace == reference, f"{scenario.name} [{strategy} c{cpus}]"


def test_clone_semantics_differ_from_fork_where_documented():
    """The pipe-duplication scenario is the semantic wedge between
    snapshot and fork: both sides read the buffered bytes."""
    trace, _ = run_sim(by_name("snapshot-pipe-buffer-duplicated"),
                       strategy="copa", num_cpus=1, seed=0)
    assert ["read", "p.r", "ab"] in trace["procs"]["main/c1"]
    assert ["read", "p.r", "ab"] in trace["procs"]["main"]


def test_shm_gate_degrades_to_err_and_rolls_back():
    trace, meta = run_sim(by_name("snapshot-shm-gated"),
                          strategy="copa", num_cpus=1, seed=0)
    assert ["err", "snapshot", "EINVAL"] in trace["procs"]["main"]
    assert trace["status"]["main"] == ["exit", 0]
    machine = meta["machine"]
    assert machine.counters.snapshot().get("restore") is None


def test_explorer_finds_no_violations_clean_or_chaotic():
    from repro.conform.explorer import explore
    from repro.conform.farm import DEFAULT_CHAOS_MIX

    scenario = by_name("snapshot-nested")
    clean = explore(scenario, strategy="copa", num_cpus=2, seed=0,
                    depth_bound=3, budget=12)
    assert clean["violations"] == []
    assert clean["schedules"] >= 2
    chaotic = explore(scenario, strategy="copa", num_cpus=2, seed=0,
                      depth_bound=3, budget=12,
                      chaos_mix=DEFAULT_CHAOS_MIX)
    assert chaotic["violations"] == []


def test_farm_matrix_includes_snapshot_units_and_abort_mix():
    from repro.conform.farm import DEFAULT_CHAOS_MIX, plan_units

    assert "core.snapshot.abort.*=0.05" in DEFAULT_CHAOS_MIX
    units = plan_units(strategies=["copa"], cpus=[1])
    names = {unit["scenario"] for unit in units}
    for scenario in SCENARIOS:
        assert scenario.name in names
