"""The exploration farm: deterministic sharding, byte-stable merged
reports, and — the part that justifies real OS processes — crash
safety: a killed worker loses only unfinished work, and the loss is
reported, never silent.

The full-matrix torture run (every strategy × 1/2/4/8 CPUs at depth 5)
is marked ``farm`` and runs in its own CI job; everything else here is
tier-1 sized.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.conform.farm import (
    _parse_result_lines,
    plan_units,
    run_farm,
    shard_units,
    unit_key,
)
from repro.harness.matrix import CONFORM_STRATEGIES, SWEEP_CPUS
from repro.harness.reportio import dumps_report, load_report


# ---------------------------------------------------------------------------
# Planning and sharding (pure functions)
# ---------------------------------------------------------------------------

def test_plan_units_covers_the_full_matrix_in_order():
    units = plan_units(scenario_names=("pipe-hello", "contended-pipe"),
                       strategies=("coa", "copa"), cpus=(1, 2))
    assert [unit_key(u) for u in units] == [
        "pipe-hello|coa-c1", "pipe-hello|coa-c2",
        "pipe-hello|copa-c1", "pipe-hello|copa-c2",
        "contended-pipe|coa-c1", "contended-pipe|coa-c2",
        "contended-pipe|copa-c1", "contended-pipe|copa-c2",
    ]


def test_plan_units_defaults_to_every_strategy_and_cpu_count():
    units = plan_units(scenario_names=("pipe-hello",))
    assert len(units) == len(CONFORM_STRATEGIES) * len(SWEEP_CPUS)


def test_plan_units_rejects_unknown_names():
    with pytest.raises(KeyError):
        plan_units(scenario_names=("no-such-scenario",))
    with pytest.raises(ValueError):
        plan_units(strategies=("no-such-strategy",))


def test_shard_units_is_static_round_robin():
    units = plan_units(scenario_names=("pipe-hello",),
                       strategies=("copa",), cpus=(1, 2, 4, 8))
    shards = shard_units(units, 3)
    assert [len(s) for s in shards] == [2, 1, 1]
    assert shards[0] == [units[0], units[3]]
    # more workers than units leaves trailing shards empty, not errors
    assert [len(s) for s in shard_units(units, 6)] == [1, 1, 1, 1, 0, 0]
    with pytest.raises(ValueError):
        shard_units(units, 0)


def test_torn_final_line_is_dropped_not_parsed(tmp_path):
    """A SIGKILL mid-write leaves a valid prefix plus a torn tail; the
    parser must keep the prefix and treat the tail as the lost unit."""
    path = tmp_path / "worker-0.jsonl"
    whole = json.dumps({"unit": "a|copa-c1", "result": {}})
    path.write_text(whole + "\n" + '{"unit": "b|copa-c1", "res')
    records = _parse_result_lines(str(path))
    assert [r["unit"] for r in records] == ["a|copa-c1"]
    assert _parse_result_lines(str(tmp_path / "never-written.jsonl")) == []


# ---------------------------------------------------------------------------
# The coordinator (spawns real worker processes)
# ---------------------------------------------------------------------------

FAST_FARM = dict(seed=0, workers=2, depth_bound=3, budget=5,
                 scenario_names=("pipe-hello", "pipe-two-children"),
                 strategies=("copa",), cpus=(1, 2), timeout=120.0)


def test_merged_report_is_byte_identical_across_runs():
    first = run_farm(**FAST_FARM)
    second = run_farm(**FAST_FARM)
    assert dumps_report(first) == dumps_report(second)
    assert first["schema"] == "repro.conform/v1"
    assert first["kind"] == "farm"
    assert first["verdict"] == "conformant"
    assert first["lost"] == []
    assert len(first["units"]) == 4
    assert first["totals"]["completed"] == 4
    # every unit records which worker ran it — and the static shard map
    # pins that choice independent of OS scheduling
    assert {entry["worker"] for entry in first["units"].values()} == {0, 1}


def test_work_dir_keeps_worker_spec_and_result_files(tmp_path):
    report = run_farm(seed=0, workers=2, depth_bound=2, budget=2,
                      scenario_names=("pipe-hello",),
                      strategies=("copa",), cpus=(1, 2),
                      timeout=120.0, work_dir=str(tmp_path))
    assert report["verdict"] == "conformant"
    assert (tmp_path / "worker-0.spec.json").exists()
    assert (tmp_path / "worker-0.jsonl").exists()
    spec = json.loads((tmp_path / "worker-0.spec.json").read_text())
    assert spec["seed"] == 0 and spec["chaos_mix"] is None


def test_killed_worker_loses_only_unfinished_units():
    """A worker blown past its deadline is group-killed; the units it
    already fsynced survive, the rest are filed under ``lost`` with the
    kill reason, and the verdict degrades to ``incomplete``."""
    report = run_farm(seed=0, workers=1, depth_bound=3, budget=100000,
                      scenario_names=("pipe-hello", "contended-pipe"),
                      strategies=("copa",), cpus=(2,), timeout=5.0)
    # pipe-hello drains its whole frontier quickly and is fsynced first;
    # contended-pipe cannot finish a 100000-schedule budget in 5s
    assert list(report["units"]) == ["pipe-hello|copa-c2"]
    assert report["verdict"] == "incomplete"
    assert len(report["lost"]) == 1
    entry = report["lost"][0]
    assert entry["worker"] == 0
    assert entry["reason"] == "timed out (process group killed)"
    assert entry["units"] == ["contended-pipe|copa-c2"]
    assert report["totals"]["lost"] == 1
    assert report["totals"]["completed"] == 1


def test_chaos_farm_counts_deaths_without_violations():
    report = run_farm(seed=0, workers=2, depth_bound=3, budget=8,
                      chaos=True,
                      chaos_mix=("default=0.0,core.ufork.abort.*=0.2,"
                                 "kernel.syscall.eintr=0.1"),
                      scenario_names=("pipe-grandchild",),
                      strategies=("copa",), cpus=(1, 2), timeout=120.0)
    assert report["chaos"] is True
    assert report["verdict"] == "conformant"
    assert report["totals"]["chaos_deaths"] > 0
    assert report["totals"]["violations"] == 0


def test_cli_conform_farm_writes_report_and_sidecar(tmp_path, capsys):
    from repro.harness.__main__ import main

    json_path = tmp_path / "farm.json"
    obs_dir = tmp_path / "obs"
    rc = main(["conform-farm", "--workers", "2", "--depth", "3",
               "--budget", "4", "--scenario", "pipe-hello",
               "--scenario", "pipe-two-children",
               "--strategies", "copa", "--cpus-list", "1,2",
               "--seed", "0", "--json", str(json_path),
               "--obs-dir", str(obs_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "exploration farm:" in out and "verdict: conformant" in out
    report = load_report(str(json_path))
    assert report["kind"] == "farm" and report["verdict"] == "conformant"
    sidecar = obs_dir / "conform-farm-0.farm.json"
    assert sidecar.exists()
    assert load_report(str(sidecar)) == report


# ---------------------------------------------------------------------------
# The farm tier (own CI job; skipped in tier-1)
# ---------------------------------------------------------------------------

@pytest.mark.farm
def test_full_matrix_reaches_depth_five_on_every_strategy_and_cpu():
    """The acceptance bar: depth >= 5 is reachable for all 4 fork
    strategies at 1/2/4/8 CPUs, under chaos, with zero violations and
    zero silent losses."""
    report = run_farm(seed=0, workers=4, depth_bound=5, budget=12,
                      chaos=True,
                      scenario_names=("contended-pipe", "pipe-grandchild"),
                      strategies=CONFORM_STRATEGIES, cpus=SWEEP_CPUS,
                      timeout=600.0)
    assert report["verdict"] == "conformant"
    assert report["lost"] == []
    assert report["totals"]["completed"] == 2 * 4 * 4
    for key, entry in report["units"].items():
        if key.startswith("contended-pipe"):
            assert entry["max_depth"] >= 5, key
