"""One workload in one fresh Python process; ``bench/run.py`` starts it.

Protocol: the worker writes JSON lines to its standard output.  The
first, ``{"ready": true}``, is written as soon as set-up (imports, boot,
populate) is done; the parent's set-up time runs from starting the
process to reading that line.  The last line is the result.  Anything
the simulator prints goes to standard error instead.

    python bench/worker.py --workload fork_full --seed 7 [--first 0] \\
        --calls 100 --nominal-s 0.00052 [--trace]

With ``--calls 0`` the worker only sets up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

import measure
from workloads import make

#: failures reported in full; the rest are only counted
MAX_ERRORS = 5


def canonical(value: Any) -> bytes:
    return json.dumps(value, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def digest_of(value: Any) -> str:
    return hashlib.sha256(canonical(value)).hexdigest()


def run_ops(workload: Any, indices: range, nominal_s: float,
            sampler: measure.SpeedSampler,
            tracer: Any = None) -> Dict[str, Any]:
    """The timed phase: op ``i`` for each ``i`` in ``indices``, each
    timed on its own and scaled by the host speed sampled around it."""
    intervals: List[Tuple[float, float]] = []
    op_s: List[float] = []
    # elementary ops per call
    counts: List[int] = []
    failed = 0
    errors: List[str] = []
    hasher = hashlib.sha256()
    clock = time.perf_counter
    for index in indices:
        started = clock()
        sampling = sampler.spent_s
        result = None
        try:
            result = workload.op(index)
        except Exception as exc:  # a failed op is counted; the run goes on
            failed += workload.ops_in(None)
            if len(errors) < MAX_ERRORS:
                errors.append(f"op {index}: {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
        ended = clock()
        intervals.append((started, ended))
        op_s.append(ended - started - (sampler.spent_s - sampling))
        counts.append(workload.ops_in(result))
        if result is not None:
            hasher.update(canonical(result))
    # before final(): its report export must not count as op time
    layers = None if tracer is None else tracer.metrics(sum(op_s))
    hasher.update(canonical(workload.final()))
    factors = measure.local_factors(intervals, list(sampler.samples),
                                    nominal_s)
    return {
        "ops": sum(counts),
        "failed": failed,
        "errors": errors,
        "digest": hasher.hexdigest(),
        "raw_s": sum(op_s),
        "scaled_s": sum(t * f for t, f in zip(op_s, factors)),
        # per elementary op: a call's time is spread over its requests
        # or schedules
        "raw_ms": [t * 1e3 / n for t, n in zip(op_s, counts)],
        "scaled_ms": [t * f * 1e3 / n
                      for t, f, n in zip(op_s, factors, counts)],
        "speed_factor": sum(factors) / len(factors),
        "layers": layers,
    }


def run_workload(name: str, seed: int, first: int, calls: int,
                 nominal_s: float, *, trace: bool = False,
                 on_ready: Callable[[], None] = lambda: None
                 ) -> Tuple[Any, Dict[str, Any]]:
    """Set up workload ``name`` and call ``on_ready``; then, when
    ``calls`` is not 0, warm up and run ops ``first`` to ``first +
    calls - 1``, traced when ``trace``.  Returns the workload and the
    result."""
    started = time.perf_counter()
    sampler = measure.SpeedSampler().start()
    tracer = None
    try:
        if trace:
            from layers import Tracer
            tracer = Tracer(clock=lambda: time.perf_counter()
                            - sampler.spent_s)
            tracer.install()
        workload = make(name, seed)
        on_ready()
        ready = time.perf_counter()
        setup_sampler_s = sampler.spent_s
        if not sampler.samples:  # set-up took less than one interval
            sampler.sample()
        out: Dict[str, Any] = {
            "calls": calls,
            "setup_sampler_s": setup_sampler_s,
            "setup_factor": measure.local_factors(
                [(started, ready)], list(sampler.samples), nominal_s,
                0.0)[0],
            "setup_digest": digest_of(workload.final()),
        }
        if calls:
            workload.warmup()
            if tracer is not None:
                tracer.reset()
            out.update(run_ops(workload, range(first, first + calls),
                               nominal_s, sampler, tracer))
            # the workload's memory, not the speed sampler's arena
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            out["peak_rss_mb"] = (peak_kib * 1024 - measure.ARENA_BYTES) \
                / (1024.0 * 1024.0)
        return workload, out
    finally:
        sampler.stop()
        if tracer is not None:
            tracer.uninstall()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--calls", type=int, required=True)
    parser.add_argument("--nominal-s", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    channel = sys.stdout
    sys.stdout = sys.stderr

    def emit(message: Dict[str, Any]) -> None:
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    _, out = run_workload(args.workload, args.seed, args.first, args.calls,
                          args.nominal_s, trace=args.trace,
                          on_ready=lambda: emit({"ready": True}))
    emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
