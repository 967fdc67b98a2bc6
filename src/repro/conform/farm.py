"""The parallel differential exploration farm.

``python -m repro.harness conform-farm`` lands here.  The bounded
interleaving explorer (:mod:`repro.conform.explorer`) is fanned out
across real OS worker processes: the full work matrix — every scenario
× fork strategy × CPU count — is split into per-worker shards, each
worker runs in its own session/process group under a hard wall-clock
deadline (:mod:`repro.conform.isolated`, the promoted pytest-isolated
machinery), and the per-unit results are merged into one byte-stable
``repro.conform/v1`` farm report.

Crash safety is per *unit of work*: a worker appends one canonical
JSON line per completed (scenario, strategy, cpus) unit to its result
file and fsyncs it before starting the next, so a SIGKILL — ours, on
deadline overrun, or anyone else's — loses only the in-flight unit and
whatever the dead worker had not started.  The coordinator diffs each
worker's completed units against its assigned shard and files the
difference under ``lost`` with the worker's crash reason; coverage
loss is *reported*, never silent, and the report verdict degrades to
``incomplete``.

Determinism: units are assigned round-robin over the deterministically
ordered matrix (no work stealing), every unit is explored from the
farm seed alone, and the merge sorts by unit key — so two runs with
the same arguments produce byte-identical reports, regardless of how
the OS interleaves the workers.  That is what makes the farm report a
diffable CI artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.conform import SCHEMA
from repro.harness.matrix import CONFORM_STRATEGIES, SWEEP_CPUS, check_names

#: the farm's default coverage domain: every strategy at 1/2/4/8 CPUs
#: (:data:`~repro.harness.matrix.SWEEP_CPUS`), explored to depth >= 5
#: (the single-process explorer stopped at 3)
DEFAULT_DEPTH = 5
DEFAULT_BUDGET = 12
DEFAULT_WORKERS = 4
#: per-worker wall-clock deadline before the group is SIGKILLed
DEFAULT_TIMEOUT = 900.0
#: the --chaos injection rates: low enough that most schedules complete,
#: high enough that fork aborts and EINTR storms are routinely exercised
DEFAULT_CHAOS_MIX = ("default=0.0,core.ufork.abort.*=0.05,"
                     "core.snapshot.abort.*=0.05,"
                     "kernel.syscall.eintr=0.03")

#: result-file keys copied from each explorer result into the report
#: (trace_set stays worker-local: digests would bloat the artifact)
UNIT_KEYS = ("schedules", "pruned", "decision_points", "frontier_left",
             "max_depth", "unique_states", "chaos_deaths", "violations")

Unit = Dict[str, Any]


def unit_key(unit: Unit) -> str:
    return f"{unit['scenario']}|{unit['strategy']}-c{unit['cpus']}"


def plan_units(scenario_names: Optional[Sequence[str]] = None,
               strategies: Optional[Sequence[str]] = None,
               cpus: Sequence[int] = SWEEP_CPUS) -> List[Unit]:
    """The deterministic work matrix, in corpus × strategy × cpu order.

    The farm covers the host-differential corpus *plus* the sim-only
    snapshot and security corpora — the explorer needs no host oracle,
    so checkpoint/restore interleavings, capability probes (and, under
    ``--chaos``, injected mid-restore aborts) are fair game here.
    """
    from repro.conform.scenarios import corpus, sec_corpus, snapshot_corpus

    strategies = check_names("strategies", strategies or CONFORM_STRATEGIES,
                             CONFORM_STRATEGIES)
    scenarios = corpus() + snapshot_corpus() + sec_corpus()
    if scenario_names:
        wanted = set(scenario_names)
        scenarios = [s for s in scenarios if s.name in wanted]
        missing = wanted - {s.name for s in scenarios}
        if missing:
            raise KeyError(f"unknown scenario(s): {sorted(missing)}")
    return [{"scenario": scenario.name, "strategy": strategy,
             "cpus": int(n)}
            for scenario in scenarios
            for strategy in strategies
            for n in cpus]


def shard_units(units: Sequence[Unit], workers: int) -> List[List[Unit]]:
    """Static round-robin assignment — no stealing, so the shard map
    (and with it the merged report) is a pure function of the inputs."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return [list(units[index::workers]) for index in range(workers)]


# ---------------------------------------------------------------------------
# Worker side (runs inside `python -m repro.conform.farm --worker`)
# ---------------------------------------------------------------------------

def run_worker(spec_path: str, out_path: str) -> int:
    """Execute one shard, appending a canonical JSON line per finished
    unit.  flush + fsync per line is the crash-safety contract: a kill
    at any instant leaves a valid prefix of complete lines."""
    from repro.conform.explorer import explore
    from repro.conform.scenarios import by_name

    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(out_path, "w", encoding="utf-8") as out:
        for unit in spec["units"]:
            result = explore(by_name(unit["scenario"]),
                             strategy=unit["strategy"],
                             num_cpus=unit["cpus"],
                             seed=spec["seed"],
                             depth_bound=spec["depth_bound"],
                             budget=spec["budget"],
                             chaos_mix=spec["chaos_mix"])
            record = {"unit": unit_key(unit),
                      "result": {key: result[key] for key in UNIT_KEYS}}
            out.write(json.dumps(record, sort_keys=True,
                                 separators=(",", ":")) + "\n")
            out.flush()
            os.fsync(out.fileno())
    return 0


def _parse_result_lines(path: str) -> List[Dict[str, Any]]:
    """Complete JSON lines from a (possibly truncated) worker file; a
    torn final line is exactly the in-flight unit a kill lost."""
    records: List[Dict[str, Any]] = []
    if not os.path.exists(path):
        return records
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.endswith("\n"):
                break  # torn write: the kill landed mid-line
            try:
                records.append(json.loads(line))
            except ValueError:
                break
    return records


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------

def run_farm(seed: int = 0,
             workers: int = DEFAULT_WORKERS,
             depth_bound: int = DEFAULT_DEPTH,
             budget: int = DEFAULT_BUDGET,
             chaos: bool = False,
             chaos_mix: Optional[str] = None,
             scenario_names: Optional[Sequence[str]] = None,
             strategies: Optional[Sequence[str]] = None,
             cpus: Sequence[int] = SWEEP_CPUS,
             timeout: float = DEFAULT_TIMEOUT,
             work_dir: Optional[str] = None) -> Dict[str, Any]:
    """Fan the explorer out over ``workers`` OS processes; return the
    merged, byte-stable ``repro.conform/v1`` farm report.

    ``work_dir`` keeps the per-worker spec/result files (CI artifact
    material); by default they live in a temp dir that is removed once
    merged.
    """
    from repro.conform.isolated import IsolatedProcess

    strategies = tuple(strategies or CONFORM_STRATEGIES)
    mix = (chaos_mix or DEFAULT_CHAOS_MIX) if (chaos or chaos_mix) else None
    units = plan_units(scenario_names=scenario_names,
                       strategies=strategies, cpus=cpus)
    shards = shard_units(units, workers)

    directory = work_dir or tempfile.mkdtemp(prefix="conform-farm-")
    os.makedirs(directory, exist_ok=True)
    launched: List[Tuple[int, List[Unit], str, IsolatedProcess]] = []
    try:
        for index, shard in enumerate(shards):
            if not shard:
                continue
            spec_path = os.path.join(directory, f"worker-{index}.spec.json")
            out_path = os.path.join(directory, f"worker-{index}.jsonl")
            with open(spec_path, "w", encoding="utf-8") as handle:
                json.dump({"seed": seed, "depth_bound": depth_bound,
                           "budget": budget, "chaos_mix": mix,
                           "units": shard}, handle, sort_keys=True)
            proc = IsolatedProcess(
                argv=[sys.executable, "-m", "repro.conform.farm",
                      "--worker", spec_path, out_path],
                timeout=timeout)
            launched.append((index, shard, out_path, proc))

        completed: Dict[str, Dict[str, Any]] = {}
        lost: List[Dict[str, Any]] = []
        for index, shard, out_path, proc in launched:
            outcome = proc.wait()
            for record in _parse_result_lines(out_path):
                completed[record["unit"]] = dict(record["result"],
                                                 worker=index)
            missing = [unit_key(unit) for unit in shard
                       if unit_key(unit) not in completed]
            if missing or outcome.returncode != 0 or outcome.timed_out:
                lost.append({
                    "worker": index,
                    "reason": outcome.crash_reason,
                    "units": missing,
                    "stderr_tail": outcome.stderr[-400:],
                })
    finally:
        for _index, _shard, _out, proc in launched:
            if proc.proc.poll() is None:  # only on an early exit
                proc.kill_group()
                proc.proc.wait()
        if work_dir is None:
            shutil.rmtree(directory, ignore_errors=True)

    totals = {"units": len(units), "completed": len(completed),
              "lost": sum(len(entry["units"]) for entry in lost),
              "schedules": 0, "pruned": 0, "violations": 0,
              "chaos_deaths": 0, "unique_states": 0, "max_depth": 0}
    for entry in completed.values():
        totals["schedules"] += entry["schedules"]
        totals["pruned"] += entry["pruned"]
        totals["violations"] += len(entry["violations"])
        totals["chaos_deaths"] += entry["chaos_deaths"]
        totals["unique_states"] += entry["unique_states"]
        totals["max_depth"] = max(totals["max_depth"], entry["max_depth"])

    if totals["violations"]:
        verdict = "violations"
    elif lost:
        verdict = "incomplete"
    else:
        verdict = "conformant"
    return {
        "schema": SCHEMA,
        "kind": "farm",
        "seed": seed,
        "workers": workers,
        "depth_bound": depth_bound,
        "budget": budget,
        "chaos": bool(mix),
        "chaos_mix": mix or "",
        "strategies": list(strategies),
        "cpus": [int(n) for n in cpus],
        "units": {key: completed[key] for key in sorted(completed)},
        "lost": lost,
        "totals": totals,
        "verdict": verdict,
    }


def format_farm_summary(report: Dict[str, Any]) -> str:
    """Render a farm report for the CLI."""
    totals = report["totals"]
    lines = [
        f"exploration farm: seed={report['seed']} "
        f"workers={report['workers']} "
        f"depth_bound={report['depth_bound']} "
        f"budget={report['budget']}/unit "
        f"chaos={'on' if report['chaos'] else 'off'}",
        f"  matrix: scenarios x {','.join(report['strategies'])} x "
        f"cpus {','.join(str(n) for n in report['cpus'])} = "
        f"{totals['units']} units "
        f"(completed={totals['completed']} lost={totals['lost']})",
        f"  explored: schedules={totals['schedules']} "
        f"pruned={totals['pruned']} "
        f"max_depth={totals['max_depth']} "
        f"unique_states={totals['unique_states']} "
        f"chaos_deaths={totals['chaos_deaths']}",
        f"  verdict: {report['verdict']}",
    ]
    bad: List[str] = []
    for key, entry in report["units"].items():
        for violation in entry["violations"]:
            bad.append(f"    {key} [{violation['kind']}]: "
                       f"{violation['detail']} "
                       f"(seed={violation['seed']}, "
                       f"schedule={violation['schedule']})")
    for entry in report["lost"]:
        bad.append(f"    worker {entry['worker']} {entry['reason']}: "
                   f"lost {len(entry['units'])} unit(s) "
                   f"{entry['units'][:4]}")
    if bad:
        lines.append("  failures:")
        lines.extend(bad[:20])
        if len(bad) > 20:
            lines.append(f"    ... and {len(bad) - 20} more")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Worker entry point only — the coordinator is :func:`run_farm`
    (reached via ``python -m repro.harness conform-farm``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.conform.farm",
        description="exploration-farm worker (internal; use "
                    "`python -m repro.harness conform-farm`)")
    parser.add_argument("--worker", nargs=2, required=True,
                        metavar=("SPEC", "OUT"),
                        help="run one shard: spec JSON in, JSONL out")
    args = parser.parse_args(argv)
    return run_worker(args.worker[0], args.worker[1])


if __name__ == "__main__":
    sys.exit(main())
