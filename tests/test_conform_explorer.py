"""The bounded interleaving explorer: coverage, determinism, and
invariant enforcement — including under injected faults.
"""

from __future__ import annotations

import json

import pytest

import repro.conform.explorer as explorer_mod
from repro.conform.dsl import Scenario
from repro.conform.explorer import _run_schedule, explore
from repro.conform.invariants import (
    check_end_state,
    check_invariants,
    frame_baseline,
)
from repro.conform.scenarios import by_name, corpus
from repro.conform.simrun import SimRun
from repro.errors import SimError
from repro.harness.matrix import CONFORM_STRATEGIES, boot


def test_contended_pipe_reaches_500_schedules():
    """The acceptance bar: ≥500 distinct depth-3 schedules on a
    contention-heavy scenario, zero invariant violations."""
    result = explore(by_name("contended-pipe"), strategy="copa",
                     num_cpus=2, seed=7, depth_bound=3, budget=520)
    assert result["schedules"] >= 500
    assert result["violations"] == []


def test_exploration_is_deterministic():
    first = explore(by_name("pipe-grandchild"), strategy="coa",
                    num_cpus=2, seed=11, depth_bound=3, budget=60)
    second = explore(by_name("pipe-grandchild"), strategy="coa",
                     num_cpus=2, seed=11, depth_bound=3, budget=60)
    assert first == second


def test_sleep_sets_prune_independent_interleavings():
    """Two children on disjoint pipes: swapping their ops commutes, so
    the explorer must prune some branches."""
    result = explore(by_name("pipe-two-children"), strategy="copa",
                     num_cpus=2, seed=7, depth_bound=3, budget=200)
    assert result["pruned"] > 0
    assert result["violations"] == []


@pytest.mark.parametrize("strategy", CONFORM_STRATEGIES)
def test_corpus_sweep_no_violations(strategy):
    """A shallow sweep of every scenario under every strategy: kernel
    invariants hold at every preemption point of every schedule."""
    for scenario in corpus():
        result = explore(scenario, strategy=strategy, num_cpus=2,
                         seed=7, depth_bound=2, budget=15)
        assert result["violations"] == [], (
            f"{scenario.name} [{strategy}]: {result['violations'][:3]}")


def test_budget_counts_executed_schedules_exactly(monkeypatch):
    """The budget is spent on *executed* schedules, not on frontier
    entries: a run with budget N performs exactly N schedule
    executions (canonical run included) when at least N are
    reachable."""
    executed = []
    real = explorer_mod._run_schedule

    def counting(*args, **kwargs):
        executed.append(args[4])        # the schedule
        return real(*args, **kwargs)

    monkeypatch.setattr(explorer_mod, "_run_schedule", counting)
    result = explore(by_name("contended-pipe"), strategy="copa",
                     num_cpus=2, seed=7, depth_bound=3, budget=37)
    assert len(executed) == 37
    assert result["schedules"] == 37
    assert executed[0] == {}            # canonical always runs first


def test_budget_one_runs_only_the_canonical_schedule(monkeypatch):
    executed = []
    real = explorer_mod._run_schedule

    def counting(*args, **kwargs):
        executed.append(args[4])
        return real(*args, **kwargs)

    monkeypatch.setattr(explorer_mod, "_run_schedule", counting)
    result = explore(by_name("pipe-hello"), strategy="copa",
                     num_cpus=2, seed=7, depth_bound=3, budget=1)
    assert executed == [{}]
    assert result["schedules"] == 1
    assert result["max_depth"] == 0
    assert result["frontier_left"] > 0  # work remained, budget stopped us


def test_budget_below_one_is_rejected():
    with pytest.raises(ValueError):
        explore(by_name("pipe-hello"), budget=0)


def test_drained_frontier_stops_short_of_budget():
    """When fewer schedules are reachable than the budget allows,
    exploration executes exactly the reachable set and reports an
    empty frontier — never re-running or padding to the budget."""
    result = explore(by_name("pipe-hello"), strategy="copa", num_cpus=2,
                     seed=0, depth_bound=3, budget=5000)
    assert result["frontier_left"] == 0
    assert 0 < result["schedules"] < 5000


def test_depth_five_reachable_within_a_small_budget():
    """The depth-first frontier priority makes deep deviations
    reachable without burning the budget on breadth."""
    result = explore(by_name("contended-pipe"), strategy="copa",
                     num_cpus=2, seed=0, depth_bound=5, budget=12)
    assert result["max_depth"] >= 5
    assert result["violations"] == []


def test_chaos_exploration_is_deterministic_and_never_silent():
    mix = "default=0.0,core.ufork.abort.*=0.2,kernel.syscall.eintr=0.1"
    first = explore(by_name("pipe-grandchild"), strategy="copa",
                    num_cpus=2, seed=5, depth_bound=3, budget=40,
                    chaos_mix=mix)
    second = explore(by_name("pipe-grandchild"), strategy="copa",
                     num_cpus=2, seed=5, depth_bound=3, budget=40,
                     chaos_mix=mix)
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)
    assert first["chaos"] is True
    # a hot mix kills some schedules; every death is counted, and an
    # injected fault is never promoted to a kernel violation
    assert first["chaos_deaths"] > 0
    assert first["violations"] == []


def test_filed_violation_replays_byte_identically(monkeypatch):
    """The reproduction contract: a violation's filed ``(seed,
    schedule)`` pair, replayed through ``_run_schedule``, reproduces
    the violation byte-for-byte."""
    from repro.hw.phys import PhysicalMemory

    def leaky_decref(self, number):
        frame = self.frame(number)
        if frame.refcount > 1:
            frame.refcount -= 1
        # the final release is silently dropped: the frame stays
        # allocated, so the end-state audit must see a leak

    monkeypatch.setattr(PhysicalMemory, "decref", leaky_decref)
    result = explore(by_name("pipe-hello"), strategy="copa", num_cpus=2,
                     seed=3, depth_bound=2, budget=6)
    leaks = [v for v in result["violations"] if v["kind"] == "leak"]
    assert leaks, "the broken kernel must be caught"
    # replay a non-canonical schedule if one was filed
    filed = next((v for v in reversed(leaks) if v["schedule"]), leaks[0])
    schedule = {int(k): v for k, v in filed["schedule"].items()}
    _trace, _meta, violations = _run_schedule(
        by_name("pipe-hello"), "copa", 2, filed["seed"], schedule)
    replayed = [v for v in violations if v["kind"] == "leak"]
    assert [json.dumps(v, sort_keys=True) for v in replayed] == \
        [json.dumps(v, sort_keys=True) for v in leaks
         if v["schedule"] == filed["schedule"]]


def test_schedule_divergence_is_reported():
    """A scenario falsely declared schedule-invariant is caught: the
    racy read observes different bytes under different schedules."""
    racy = Scenario("racy-read", {
        # child and parent both write; read order depends on schedule
        "main": (("pipe", "p"), ("fork", "w"), ("write", "p.w", "A"),
                 ("read", "p.r", 2), ("wait", "w1"), ("exit", 0)),
        "w": (("write", "p.w", "B"), ("exit", 0)),
    }, schedule_invariant=True)
    result = explore(racy, strategy="copa", num_cpus=2, seed=7,
                     depth_bound=2, budget=40)
    kinds = {violation["kind"] for violation in result["violations"]}
    assert "schedule-divergence" in kinds
    # and every violation carries its reproduction pair
    for violation in result["violations"]:
        assert violation["seed"] == 7
        assert isinstance(violation["schedule"], dict)


@pytest.mark.parametrize("strategy", ["full", "coa", "copa"])
def test_invariants_hold_under_chaos(strategy):
    """Rollback completeness: with fault injection hammering the fork
    path, ops may fail but the kernel's bookkeeping must stay
    consistent at every step and leak nothing by the end."""
    os_ = boot(strategy, seed=13, cpus=2, chaos_mix=(
        "default=0.0,core.ufork.abort.*=0.15,kernel.syscall.eintr=0.05")).os
    scenario = by_name("pipe-grandchild")
    seen = []

    def on_step(os_inner, run):
        if not seen:
            seen.append(frame_baseline(os_inner))
        violations = check_invariants(os_inner)
        assert violations == [], violations

    interp = SimRun(os_, scenario, on_step=on_step)
    try:
        interp.run()
    except SimError:
        # an injected fault escaped recovery and killed the scenario —
        # allowed; consistency is what the on_step assertions enforce
        pass
    assert check_invariants(os_) == []


def test_end_state_check_spots_a_leak():
    os_ = boot("copa", seed=1, cpus=1).os
    baseline = frame_baseline(os_)
    os_.machine.phys.alloc()        # deliberately leak one frame
    problems = check_end_state(os_, baseline)
    assert any("leak" in p or "frames" in p for p in problems)
