"""The adversarial capability-security suite (docs/SECURITY.md).

Three layers of proof:

* the **attack corpus** (:mod:`repro.sec.attacks`): every adversarial
  guest program is defeated — ends in a capability fault, a typed
  kernel error, or a behavioral defense — under every fork strategy ×
  CPU count × chaos mode, and never silently succeeds;
* the **capability-flow auditor** (:mod:`repro.sec.auditor`): clean
  kernels audit clean, planted cross-μprocess capabilities are caught
  with provenance attached, and the auditor is live inside
  ``check_invariants`` so the conform explorer and farm hunt isolation
  violations at every preemption point;
* the **report**: ``repro.sec/v1`` is a pure function of the seed —
  two runs of the same matrix are byte-identical.
"""

from __future__ import annotations

import pytest

import repro.conform.isolated as isolated
from repro.apps.hello import hello_world_image
from repro.cheri.capability import Capability, Perm
from repro.harness.reportio import dumps_report
from repro.harness import matrix
from repro.harness.matrix import (DEFAULT_CPUS, MODES, SASOS_STRATEGIES,
                                  STRATEGIES)
from repro.sec.attacks import ATTACKS
from repro.sec.auditor import audit_cap_flow, provenance_of
from repro.sec.runner import (
    DEFAULT_FAULT_MIX,
    SCHEMA,
    format_summary,
    run_cell,
    run_sec,
)


def boot(strategy: str = "copa", cpus: int = 1, seed: int = 7):
    _machine, os_, ctx = matrix.boot(strategy, seed=seed, cpus=cpus,
                                     image=hello_world_image(), name="sec")
    return os_, ctx


# ---------------------------------------------------------------------------
# The attack matrix
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def full_report():
    """The acceptance matrix: every attack × all four strategies ×
    1/2/4 CPUs × clean and chaotic."""
    return run_sec(seed=7)


def test_full_matrix_defeats_every_attack(full_report):
    assert full_report["schema"] == SCHEMA
    assert full_report["verdict"] == "defeated"
    assert full_report["totals"]["breached"] == 0
    assert full_report["totals"]["audit_violations"] == 0
    expected = (len(ATTACKS) * len(STRATEGIES) * len(DEFAULT_CPUS)
                * len(MODES))
    assert full_report["totals"]["cells"] == expected


def test_full_matrix_covers_both_modes_and_all_cpus(full_report):
    keys = full_report["matrix"].keys()
    for cpus in DEFAULT_CPUS:
        for mode in MODES:
            assert any(f"-c{cpus}-{mode}" in key for key in keys)


@pytest.mark.parametrize("name", sorted(ATTACKS))
def test_attack_defeated_under_every_strategy(name):
    """Per-attack drill-down at 1 CPU clean: the defense that fires is
    one the attack declared, and the post-attack audit is clean."""
    attack, body = ATTACKS[name]
    for strategy in STRATEGIES:
        cell = run_cell(attack, body, strategy, 1, "clean", 7,
                        DEFAULT_FAULT_MIX)
        if strategy not in attack.strategies:
            assert cell["verdict"] == "n/a" and cell["reason"]
            continue
        assert cell["verdict"] == "defeated", (name, strategy, cell)
        assert cell["defense"] in attack.defeats, (name, strategy, cell)
        assert cell["audit_violations"] == 0


def test_gate_attacks_are_na_on_the_trap_entry_baseline():
    """The monolithic baseline enters the kernel via a trap, not a
    sealed sentry — there is no gate to forge or tamper with."""
    for name in ("gate_forge", "sealed_gate_tamper"):
        attack, _body = ATTACKS[name]
        assert attack.strategies == SASOS_STRATEGIES
        assert "sentry" in attack.na_reason or "gate" in attack.na_reason


def test_replay_point_reruns_the_attack_to_the_same_fault():
    attack, body = ATTACKS["bounds_widen"]
    cell = run_cell(attack, body, "copa", 1, "chaos", 7,
                    "default=0.0,sec.attack.replay=1.0")
    assert cell["replayed"] is True
    assert cell["verdict"] == "defeated", cell
    assert cell["chaos_fired"]["sec.attack.replay"] >= 1


def test_bystander_fork_races_do_not_blunt_a_defense():
    attack, body = ATTACKS["stale_cap_after_cow"]
    cell = run_cell(attack, body, "copa", 2, "chaos", 7,
                    "default=0.0,sec.attack.bystander_fork=1.0")
    assert cell["verdict"] == "defeated", cell
    assert cell["chaos_fired"]["sec.attack.bystander_fork"] >= 1


def test_report_is_byte_identical_across_runs():
    kwargs = dict(seed=11, strategies=("copa", "monolithic"),
                  cpus_list=(1, 2))
    first = dumps_report(run_sec(**kwargs))
    second = dumps_report(run_sec(**kwargs))
    assert first == second


def test_summary_names_the_verdict(full_report):
    text = format_summary(full_report)
    assert "verdict: DEFEATED" in text
    assert "BREACH" not in text


def test_unknown_attack_and_strategy_are_rejected():
    with pytest.raises(ValueError, match="unknown attacks"):
        run_sec(attacks=["not_an_attack"])
    with pytest.raises(ValueError, match="unknown strategies"):
        run_sec(strategies=["exokernel"])


# ---------------------------------------------------------------------------
# The capability-flow auditor
# ---------------------------------------------------------------------------

def test_clean_kernel_audits_clean_after_fork_and_libraries():
    os_, ctx = boot("copa")
    child = ctx.fork()
    assert audit_cap_flow(os_) == []
    child.exit(0)
    ctx.wait(child.pid)
    assert audit_cap_flow(os_) == []


def test_auditor_catches_a_planted_register_leak():
    """A parent capability sitting in a child register after fork is
    exactly the §4.2 violation relocation exists to prevent."""
    os_, ctx = boot("copa")
    child = ctx.fork()
    child.set_reg("c20", ctx.reg("ddc"))
    violations = audit_cap_flow(os_)
    assert violations, "planted cross-μprocess register cap not caught"
    assert any("register c20" in v for v in violations)
    assert any("minted for pid" in v for v in violations)


def test_auditor_catches_a_planted_memory_leak():
    """A tagged granule holding another μprocess's capability is caught
    at its page, with provenance naming the victim."""
    os_, ctx = boot("copa")
    child = ctx.fork()
    machine = os_.machine
    page = machine.config.page_size
    buf = child.malloc(32)
    child.store_u64(buf, 1)  # break the CoW share: page is now private
    space = os_.space_of(child.proc)
    pte = space.page_table.get(buf.base // page)
    machine.phys.frame(pte.frame).store_cap(0, ctx.reg("ddc"),
                                            machine.codec)
    violations = audit_cap_flow(os_)
    assert violations, "planted cross-μprocess memory cap not caught"
    assert any("escapes the μprocess region" in v for v in violations)


def test_auditor_runs_inside_conform_invariants():
    from repro.conform.invariants import check_invariants
    os_, ctx = boot("copa")
    child = ctx.fork()
    child.set_reg("c20", ctx.reg("ddc"))
    assert any("escapes the μprocess region" in v
               for v in check_invariants(os_))


def test_provenance_of_live_dead_and_forged_spans():
    os_, ctx = boot("copa")
    own = ctx.malloc(16)
    assert "minted for pid" in provenance_of(os_, own)
    child = ctx.fork()
    stale = child.malloc(16)
    child.exit(0)
    ctx.wait(child.pid)
    assert "dead pid" in provenance_of(os_, stale)
    forged = Capability(base=0xDEAD_0000, length=16, cursor=0xDEAD_0000,
                        perms=Perm.LOAD, valid=True)
    assert "no recorded mint" in provenance_of(os_, forged)


# ---------------------------------------------------------------------------
# Conform wiring: probe scenarios + the isolated-runner surface
# ---------------------------------------------------------------------------

def test_farm_plans_the_sec_corpus():
    from repro.conform.farm import plan_units
    names = {unit["scenario"] for unit in plan_units()}
    assert {"sec-probe-across-fork", "sec-probe-under-cow"} <= names


def test_probe_events_are_strategy_invariant():
    from repro.conform.dsl import normalize_trace
    from repro.conform.scenarios import by_name
    from repro.conform.simrun import run_sim
    scenario = by_name("sec-probe-across-fork")
    traces = set()
    for strategy in STRATEGIES:
        trace, _meta = run_sim(scenario, strategy, num_cpus=2, seed=0)
        traces.add(dumps_report(normalize_trace(trace)))
    assert len(traces) == 1
    only = traces.pop()
    assert "BoundsFault" in only and "TagFault" in only


def test_explorer_proves_probes_under_interleaving():
    from repro.conform.explorer import explore
    from repro.conform.scenarios import by_name
    result = explore(by_name("sec-probe-under-cow"), strategy="copa",
                     num_cpus=2, budget=12)
    assert result["violations"] == []
    assert result["schedules"] >= 1


def test_runner_accepts_sec_scenarios_without_the_host_oracle():
    """Explicit selection reaches the sim-only corpora, but only with
    the host oracle off — probes have no host-POSIX equivalent."""
    from repro.conform.runner import run_conform
    with pytest.raises(ValueError, match="no host equivalent"):
        run_conform(scenario_names=["sec-probe-across-fork"], host=True)
    report = run_conform(seed=7, cpus=[2], strategies=["coa", "copa"],
                         depth_bound=2, budget=4,
                         scenario_names=["sec-probe-across-fork"],
                         host=False)
    assert report["totals"]["diffs"] == 0
    assert report["totals"]["errors"] == 0
    assert report["totals"]["violations"] == 0


def test_isolated_surface_is_pinned():
    """The isolated runner the farm and the host-oracle tests share
    declares exactly its public surface, and every name resolves."""
    assert isolated.__all__ == ["REPO_SRC", "IsolatedProcess",
                                "IsolatedResult", "run_isolated"]
    for name in isolated.__all__:
        assert hasattr(isolated, name), name
