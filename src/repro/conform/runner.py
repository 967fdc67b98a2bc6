"""Drive the full conformance run and emit the ``repro.conform/v1``
report.

``python -m repro.harness conform`` lands here.  One run is:

1. **Differential matrix** — every corpus scenario executes on the
   simulated kernel for each (strategy × CPU-count) cell and its trace
   is diffed against the reference: the real host kernel's trace when
   the host oracle is enabled, else the first cell (pure-sim
   cross-strategy agreement, used for the committed golden report so it
   stays host-independent).  The matrix runs under an ``repro.obs``
   session; the merged metrics export becomes the ``.obs.json``
   sidecar.
2. **Interleaving exploration** — each scenario is replayed under up to
   ``budget`` permuted schedules at ``depth_bound`` deviations
   (:mod:`repro.conform.explorer`), kernel invariants checked at every
   preemption point.  Violations carry their (seed, schedule) repro.

Everything in the report is deterministic from the seed (and, for host
verdicts, the host kernel's POSIX behaviour): running twice with the
same arguments produces byte-identical JSON — the golden-report test
relies on it.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.conform import SCHEMA
from repro.conform.dsl import Scenario, diff_traces, trace_sha256
from repro.conform.explorer import explore
from repro.conform.scenarios import corpus
from repro.conform.simrun import ConformError, run_sim
from repro.harness.matrix import (CONFORM_STRATEGIES, DEFAULT_CPUS,
                                  write_sidecars)

#: strategy/CPU pair the explorer permutes schedules on (one cell —
#: the schedule space, not the strategy, is what exploration varies)
EXPLORE_STRATEGY = "copa"
EXPLORE_CPUS = 2


def _matrix_cell(scenario: Scenario, strategy: str, cpus: int, seed: int,
                 reference: Optional[Dict[str, Any]]
                 ) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    try:
        trace, meta = run_sim(scenario, strategy=strategy, num_cpus=cpus,
                              seed=seed)
    except ConformError as exc:
        return {"verdict": "error", "detail": str(exc)}, None
    cell: Dict[str, Any] = {
        "trace_sha256": trace_sha256(trace),
        "syscalls": sum(meta["syscalls"].values()),
        "decision_points": meta["decision_points"],
    }
    if reference is None:
        cell["verdict"] = "reference"
    else:
        diffs = diff_traces(trace, reference)
        cell["verdict"] = "ok" if not diffs else "diff"
        if diffs:
            cell["diffs"] = diffs[:10]
    return cell, trace


def run_conform(seed: int = 7,
                cpus: Sequence[int] = DEFAULT_CPUS,
                strategies: Sequence[str] = CONFORM_STRATEGIES,
                depth_bound: int = 3,
                budget: int = 600,
                scenario_names: Optional[Sequence[str]] = None,
                host: bool = True,
                obs_dir: Optional[str] = None) -> Dict[str, Any]:
    """Run the conformance suite; returns the JSON-ready report.

    With ``obs_dir`` set, writes ``conform-<seed>.conform.json`` (this
    report) and ``conform-<seed>.obs.json`` (the metrics sidecar).
    """
    from repro.obs import obs_session, to_json

    scenarios = corpus()
    if scenario_names:
        # explicit selection may reach the sim-only corpora (snapshot,
        # capability probes) — those have no host equivalent, so they
        # are only runnable with the host oracle off
        from repro.conform.scenarios import sec_corpus, snapshot_corpus
        sim_only = {s.name for s in snapshot_corpus() + sec_corpus()}
        wanted = set(scenario_names)
        pool = corpus() + snapshot_corpus() + sec_corpus()
        scenarios = [s for s in pool if s.name in wanted]
        missing = wanted - {s.name for s in scenarios}
        if missing:
            raise KeyError(f"unknown scenario(s): {sorted(missing)}")
        chosen_sim_only = sorted(wanted & sim_only)
        if host and chosen_sim_only:
            raise ValueError(
                f"sim-only scenario(s) {chosen_sim_only} have no host "
                f"equivalent; run them with host=False (--no-host)")

    report: Dict[str, Any] = {
        "schema": SCHEMA,
        "seed": seed,
        "cpus": list(cpus),
        "strategies": list(strategies),
        "depth_bound": depth_bound,
        "budget": budget,
        "host_oracle": bool(host),
        "scenarios": {},
    }
    totals = {"cells": 0, "diffs": 0, "errors": 0, "schedules": 0,
              "pruned": 0, "violations": 0}

    host_traces: Dict[str, Dict[str, Any]] = {}
    if host:
        from repro.conform.host import run_host
        for scenario in scenarios:
            host_traces[scenario.name] = run_host(scenario)

    with obs_session() as session:
        for scenario in scenarios:
            entry: Dict[str, Any] = {"matrix": {}}
            reference = host_traces.get(scenario.name)
            if reference is not None:
                entry["host_trace_sha256"] = trace_sha256(reference)
            for strategy in strategies:
                for n in cpus:
                    cell, trace = _matrix_cell(scenario, strategy, n,
                                               seed, reference)
                    totals["cells"] += 1
                    if cell["verdict"] == "diff":
                        totals["diffs"] += 1
                    elif cell["verdict"] == "error":
                        totals["errors"] += 1
                    if reference is None and trace is not None:
                        # host oracle off: the first cell becomes the
                        # cross-strategy reference
                        reference = trace
                        entry["reference_cell"] = f"{strategy}-c{n}"
                    entry["matrix"][f"{strategy}-c{n}"] = cell
            report["scenarios"][scenario.name] = entry

    # exploration happens outside the obs session: it boots hundreds of
    # throwaway machines whose metrics would drown the sidecar
    for scenario in scenarios:
        result = explore(scenario, strategy=EXPLORE_STRATEGY,
                         num_cpus=EXPLORE_CPUS, seed=seed,
                         depth_bound=depth_bound, budget=budget)
        totals["schedules"] += result["schedules"]
        totals["pruned"] += result["pruned"]
        totals["violations"] += len(result["violations"])
        report["scenarios"][scenario.name]["explorer"] = {
            "schedules": result["schedules"],
            "pruned": result["pruned"],
            "decision_points": result["decision_points"],
            "frontier_left": result["frontier_left"],
            "violations": result["violations"],
        }

    report["totals"] = totals
    report["verdict"] = (
        "conformant" if not (totals["diffs"] or totals["errors"]
                             or totals["violations"]) else "violations")
    export = session.export()
    report["obs_export_sha256"] = hashlib.sha256(
        to_json(export).encode("utf-8")).hexdigest()

    if obs_dir is not None:
        write_sidecars(obs_dir, f"conform-{seed}", obs=export,
                       conform=report)
    return report


def format_summary(report: Dict[str, Any]) -> str:
    """Render a conformance report for the CLI."""
    totals = report["totals"]
    lines = [
        f"conformance run: seed={report['seed']} "
        f"strategies={','.join(report['strategies'])} "
        f"cpus={','.join(str(n) for n in report['cpus'])} "
        f"host_oracle={'on' if report['host_oracle'] else 'off'}",
        f"  scenarios={len(report['scenarios'])} "
        f"matrix_cells={totals['cells']} "
        f"diffs={totals['diffs']} errors={totals['errors']}",
        f"  explorer: schedules={totals['schedules']} "
        f"pruned={totals['pruned']} "
        f"(depth_bound={report['depth_bound']}, "
        f"budget={report['budget']}/scenario) "
        f"violations={totals['violations']}",
        f"  verdict: {report['verdict']}",
    ]
    bad: List[str] = []
    for name, entry in sorted(report["scenarios"].items()):
        for cell_name, cell in sorted(entry["matrix"].items()):
            if cell["verdict"] in ("diff", "error"):
                detail = (cell.get("diffs") or [cell.get("detail", "?")])[0]
                bad.append(f"    {name} [{cell_name}]: {detail}")
        for violation in entry.get("explorer", {}).get("violations", []):
            bad.append(f"    {name} [explorer {violation['kind']}]: "
                       f"{violation['detail']} "
                       f"(seed={violation['seed']}, "
                       f"schedule={violation['schedule']})")
    if bad:
        lines.append("  failures:")
        lines.extend(bad[:20])
        if len(bad) > 20:
            lines.append(f"    ... and {len(bad) - 20} more")
    return "\n".join(lines)
