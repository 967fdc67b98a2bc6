"""Run the μFork reproduction's application-level benchmark.

    python bench/run.py [--workload NAME] [--seed N] [--seconds 7]
                        [--trace [0|1]] [--json PATH]

Each workload runs in fresh Python processes, one at a time, each a
closed loop with one client (``bench/workloads.py``).  A run prints
every metric by name and unit, then, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  It exits non-zero
if any op failed or any output check did not hold.

Without ``--trace`` (or with ``--trace 0``) the metrics are the
end-to-end ones: ``ops_per_s``, ``op_p50_ms``, ``setup_s`` and
``peak_rss_mb``.  With ``--trace`` they are the per-layer ones from a
separate traced process (``bench/layers.py``), plus ``trace.op_s`` and
``trace.overhead``.
Without ``--workload`` all six workloads run and the metric names are
prefixed with the workload's.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import measure
from layers import LAYERS, metric_units
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: the ``run_seconds`` of ``BENCHMARK.json``, the only run length: the
#: pinned digests and the gate's medians hold for this length alone
DEFAULT_SECONDS = 7
DEFAULT_SEED = 7
#: fresh processes per run: each times its set-up (``setup_s`` is their
#: median) and runs a ninth of the ops, so that luck of one process's
#: memory placement does not decide the run
PROCESSES = 9
#: wall-clock limit for one workload, all its processes included
DEADLINE_S = 170.0

#: end-to-end metrics: name → (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "ops_per_s": ("ops/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}


def load_pins() -> Dict[str, Any]:
    with open(BENCH / "pins.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def work_calls(name: str, seconds: float, pins: Dict[str, Any]) -> int:
    """Op calls for a ``seconds`` run: the pinned nominal rate times
    ``seconds``, rounded to whole rounds (one sweep, for ``paper``)."""
    round_ops = WORKLOADS[name].round_ops
    rounds = round(seconds * pins["calls_per_s"][name] / round_ops)
    return round_ops * max(1, rounds)


class WorkerFailed(Exception):
    """A worker process died, timed out or broke the protocol."""


def _lines(proc: "subprocess.Popen[bytes]", deadline: float
           ) -> Iterator[bytes]:
    """The lines ``proc`` writes to its standard output, each as soon as
    it is complete; raises :class:`WorkerFailed` past ``deadline``."""
    fd = proc.stdout.fileno()
    pending = bytearray()
    while True:
        end = pending.find(b"\n")
        if end >= 0:
            yield bytes(pending[:end])
            del pending[:end + 1]
            continue
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise WorkerFailed("timed out")
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return
        pending += chunk


def run_worker(name: str, seed: int, first: int, calls: int,
               nominal_s: float, deadline: float, *,
               trace: bool = False) -> Dict[str, Any]:
    """Start one worker process on ops ``first`` to ``first + calls -
    1``, time its set-up, return its result (with ``setup_raw_s``:
    process start to the ready line)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name,
           "--seed", str(seed), "--first", str(first), "--calls",
           str(calls), "--nominal-s", repr(nominal_s)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    # string hashing order is host time only, never simulated results;
    # pinning it removes one source of run-to-run spread
    env["PYTHONHASHSEED"] = "0"
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=str(ROOT),
                            env=env)
    try:
        lines = _lines(proc, deadline)
        ready = next(lines, b"{}")
        setup_raw_s = time.perf_counter() - started
        if json.loads(ready).get("ready") is not True:
            raise WorkerFailed(f"no ready line (exit {proc.wait()})")
        result = json.loads(next(lines, b"null"))
        if proc.wait(timeout=max(0.1, deadline - time.monotonic())) != 0 \
                or not isinstance(result, dict):
            raise WorkerFailed(f"exit {proc.returncode}")
    except (subprocess.TimeoutExpired, ValueError) as exc:
        raise WorkerFailed(str(exc)) from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    result["setup_raw_s"] = setup_raw_s
    return result


def _setup_s(result: Dict[str, Any]) -> float:
    net = result["setup_raw_s"] - result["setup_sampler_s"]
    return net * result["setup_factor"]


def _pinned_digest(name: str, seed: int, calls: int,
                   pins: Dict[str, Any]) -> Optional[str]:
    pin = pins["digests"].get(name)
    if pin is None or pin["calls"] != calls:
        return None
    if WORKLOADS[name].seeded and pin["seed"] != seed:
        return None
    return pin["sha256"]


def measure_workload(name: str, seed: int, seconds: float,
                     pins: Dict[str, Any]) -> Dict[str, Any]:
    """The end-to-end run: :data:`PROCESSES` fresh processes, one at a
    time, each timing its set-up and then running its share of the
    ops."""
    deadline = time.monotonic() + DEADLINE_S
    calls = work_calls(name, seconds, pins)
    shares = [(k * calls // PROCESSES, (k + 1) * calls // PROCESSES)
              for k in range(PROCESSES)]
    results = [run_worker(name, seed, start, end - start, pins["nominal_s"],
                          deadline)
               for start, end in shares]
    timed = [result for result in results if result["calls"]]
    problems = [f"op error: {error}"
                for result in timed for error in result["errors"]]
    if len({result["setup_digest"] for result in results}) != 1:
        problems.append("set-up state differs between fresh processes")
    digest = hashlib.sha256("".join(
        result["digest"] for result in timed).encode("ascii")).hexdigest()
    pinned = _pinned_digest(name, seed, calls, pins)
    if pinned is not None and pinned != digest:
        problems.append(f"digest {digest} != pinned {pinned}")
    ops = sum(result["ops"] for result in timed)
    scaled_ms = [t for result in timed for t in result["scaled_ms"]]
    tail_q = measure.tail_quantile(len(scaled_ms))
    return {
        "workload": name,
        "seed": seed,
        "calls": calls,
        "attempted": ops,
        "failed": sum(result["failed"] for result in timed),
        "problems": problems,
        "digest": digest,
        "digest_pinned": pinned is not None,
        "metrics": {
            "ops_per_s": ops / sum(result["scaled_s"] for result in timed),
            "op_p50_ms": statistics.median(scaled_ms),
            "setup_s": statistics.median(_setup_s(r) for r in results),
            "peak_rss_mb": max(result["peak_rss_mb"] for result in timed),
        },
        "tail": None if tail_q is None else {
            "q": tail_q, "ms": measure.percentile(scaled_ms, tail_q),
            "samples": len(scaled_ms)},
        "host": {
            "ops_per_s": ops / sum(result["raw_s"] for result in timed),
            "op_p50_ms": statistics.median(
                t for result in timed for t in result["raw_ms"]),
            "setup_s": statistics.median(r["setup_raw_s"] for r in results),
            "speed_factor": statistics.mean(
                result["speed_factor"] for result in timed),
        },
    }


def trace_workload(name: str, seed: int, seconds: float,
                   pins: Dict[str, Any]) -> Dict[str, Any]:
    """The traced run: the same ops untraced, then traced, each in a
    fresh process on half the work of an end-to-end run."""
    deadline = time.monotonic() + DEADLINE_S
    nominal_s = pins["nominal_s"]
    calls = work_calls(name, seconds / 2, pins)
    plain = run_worker(name, seed, 0, calls, nominal_s, deadline)
    traced = run_worker(name, seed, 0, calls, nominal_s, deadline,
                        trace=True)
    problems = [f"op error: {error}"
                for error in plain["errors"] + traced["errors"]]
    if plain["digest"] != traced["digest"]:
        problems.append(f"traced digest {traced['digest']} != untraced "
                        f"{plain['digest']}")
    metrics = dict(traced["layers"])
    metrics["trace.op_s"] = traced["scaled_s"]
    metrics["trace.overhead"] = traced["scaled_s"] / plain["scaled_s"]
    return {
        "workload": name,
        "seed": seed,
        "calls": calls,
        "attempted": plain["ops"] + traced["ops"],
        "failed": plain["failed"] + traced["failed"],
        "problems": problems,
        "digest": traced["digest"],
        "metrics": metrics,
        # calibrated self seconds per layer: its share of trace.op_s
        "self_s": {layer: metrics[f"{layer}.share"] * traced["scaled_s"]
                   for layer in LAYERS},
    }


def _print_report(report: Dict[str, Any], units: Dict[str, str]) -> None:
    name = report["workload"]
    for metric, value in report["metrics"].items():
        print(f"{name:<14} {metric:<32} {value:>16.6f} {units[metric]}")
    tail = report.get("tail")
    if tail is not None:
        label = f"op_p{tail['q']:g}_ms".replace(".", "")
        print(f"{name:<14} {label:<32} {tail['ms']:>16.6f} ms  "
              f"(not gated; {tail['samples']} samples)")
    for metric, value in report.get("host", {}).items():
        if metric != "speed_factor":
            print(f"{name:<14} host.{metric:<27} {value:>16.6f} "
                  f"{END_TO_END[metric][0]}  (raw, not calibrated)")
    print(f"{name:<14} attempted {report['attempted']} failed "
          f"{report['failed']} digest {report['digest'][:16]}")
    for problem in report["problems"]:
        print(f"{name:<14} PROBLEM {problem}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="μFork reproduction benchmark (see bench/README.md)")
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        choices=[DEFAULT_SECONDS],
                        help="nominal seconds of timed work per run; only "
                             "the run_seconds of BENCHMARK.json is accepted")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the full report here")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator sources at {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    pins = load_pins()
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.trace:
        runner, units = trace_workload, metric_units()
    else:
        runner = measure_workload
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    reports = []
    for name in names:
        try:
            report = runner(name, args.seed, args.seconds, pins)
        except WorkerFailed as exc:
            print(f"bench: {name}: worker failed: {exc}", file=sys.stderr)
            return 1
        _print_report(report, units)
        reports.append(report)

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"schema": "bench/v1", "seconds": args.seconds,
                       "trace": bool(args.trace), "workloads": reports},
                      handle, indent=2, sort_keys=True)
            handle.write("\n")
    correct = all(not r["problems"] and not r["failed"] for r in reports)
    prefix = len(reports) > 1
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {
            (f"{r['workload']}.{metric}" if prefix else metric):
                {"value": value, "unit": units[metric]}
            for r in reports for metric, value in r["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
