"""Bounded interleaving explorer for conformance scenarios.

Replays one scenario under systematically permuted scheduler decisions,
asserting the kernel invariants of :mod:`repro.conform.invariants` at
every preemption point of every schedule.

A *schedule* is a sparse map ``{decision_point: choice_index}`` of
deviations from the canonical newest-first policy; every unlisted
point takes choice 0.  Exploration is depth-bounded (at most
``depth_bound`` deviations per schedule) and canonical: a schedule is
only extended at points strictly after its last deviation, so each
deviation set is generated exactly once.  Sleep-set pruning drops a
deviation when the op it would run and the op the canonical choice
would run have disjoint static footprints (:meth:`Scenario.op_footprint`)
— swapping two commuting ops cannot reach a new state, and the swapped
order is reachable via a later deviation anyway.  ``prune=False``
disables it (the soundness property test compares both frontiers).

Budget accounting is exact: ``explore`` *executes* precisely
``min(budget, reachable)`` schedules, counting the canonical run —
never the enqueued-frontier overcount a late-firing prune can cause.

Coverage guidance: a keyed BLAKE2b fingerprint of the kernel state
(process/task liveness, interpreter positions, pipe buffers, fd
refcounts, pending signals, allocated frames) is taken at every
preemption point.  The frontier is a priority heap ordered by
``(depth desc, parent-novelty desc, seeded draw)``: deeper schedules
first — which is what makes depth ≥ 5 reachable inside small budgets —
then extensions of runs that just discovered *new* states, so the
budget is spent where the state space is still growing.

Chaos: with ``chaos_mix`` set, every schedule boots its machine with a
fresh :class:`~repro.chaos.ChaosEngine` seeded from the ``(seed,
scenario, schedule)`` triple — so a filed violation still replays
byte-identically from its ``(seed, schedule)`` pair, injected faults
included.  A fault that escapes the recovery machinery and kills the
scenario is *allowed* (counted as a chaos death, never silently
dropped); invariant violations at any step remain violations.

Determinism: fingerprints, frontier draws and chaos schedules are all
keyed hashes of the seed — the same machinery the chaos engine replays
faults with — so a violation reports the exact ``(seed, schedule)``
pair that reproduces it, byte-identically, on any machine.
"""

from __future__ import annotations

import hashlib
import heapq
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.chaos import deterministic_draw
from repro.conform.dsl import Scenario, diff_traces, trace_sha256
from repro.conform.invariants import (
    check_end_state,
    check_invariants,
    frame_baseline,
)
from repro.conform.simrun import ConformError, DeadlockError, SimRun
from repro.errors import SimError
from repro.harness.matrix import boot
from repro.kernel.signals import signal_state

Schedule = Dict[int, int]

#: digest width of one state fingerprint (coverage material, not crypto)
_FP_BYTES = 8


def _schedule_key(schedule: Schedule) -> Tuple[Tuple[int, int], ...]:
    return tuple(sorted(schedule.items()))


def state_fingerprint(os_: Any, run: Any, key: bytes = b"conform.cov"
                      ) -> str:
    """A keyed digest of the observable kernel + interpreter state at
    one preemption point.

    Built only from schedule-deterministic material — labels, program
    counters, liveness, pipe buffer contents, fd refcounts, pending
    signal queues, allocated-frame count — never host identities
    (``id()``, pids of the *host*, wall clock), so the same schedule
    fingerprints identically on any machine.
    """
    parts: List[Any] = []
    for p in run.procs:
        proc = p.ctx.proc
        parts.append((p.label, p.pc, p.blocked, p.done,
                      proc.alive, getattr(proc, "reaped", False),
                      getattr(proc, "exit_status", None),
                      len(run.events.get(p.label, ())),
                      tuple(signal_state(proc).pending)))
    for proc in sorted(os_.procs.all(), key=lambda q: q.pid):
        if proc.fdtable is None:
            continue
        for fd, desc in sorted(proc.fdtable.items()):
            obj = desc.obj
            pipe = getattr(obj, "pipe", None)
            buffered = pipe.buffered if pipe is not None else None
            parts.append((proc.pid, fd, type(obj).__name__,
                          desc.refcount, buffered))
    parts.append(os_.machine.phys.allocated_frames)
    return hashlib.blake2b(repr(parts).encode("utf-8"),
                           digest_size=_FP_BYTES, key=key).hexdigest()


def _chaos_seed(seed: int, scenario_name: str, schedule: Schedule) -> int:
    """A fresh engine seed per (seed, scenario, schedule) triple, so a
    chaos-mode violation replays from its filed pair alone — engine
    state never leaks across schedules."""
    blob = f"{seed}|{scenario_name}|{_schedule_key(schedule)}"
    return int.from_bytes(hashlib.blake2b(blob.encode("utf-8"),
                                          digest_size=8).digest(), "big")


class _Watcher:
    """on_step callback: invariants at every preemption point, stopping
    at the first violation (the kernel state is already broken; later
    checks would only echo it); fingerprints every state."""

    def __init__(self, os_: Any) -> None:
        self.os_ = os_
        self.violations: List[str] = []
        self.states: Set[str] = set()
        self.steps = 0

    def __call__(self, os_: Any, run: Any) -> None:
        self.steps += 1
        if not self.violations:
            self.violations = check_invariants(self.os_)
        self.states.add(state_fingerprint(self.os_, run))


def _run_schedule(scenario: Scenario, strategy: str, num_cpus: int,
                  seed: int, schedule: Schedule,
                  chaos_mix: Optional[str] = None
                  ) -> Tuple[Optional[Dict[str, Any]], Dict[str, Any],
                             List[Dict[str, Any]]]:
    """Execute one schedule; returns (trace|None, meta, violations).

    ``meta`` carries the decision-point candidate sets (frontier
    material), the fingerprint set, the live kernel, and — in chaos
    mode — the injected-fault death that ended the run, if any.
    """
    violations: List[Dict[str, Any]] = []
    watcher: Optional[_Watcher] = None
    baseline = None

    chaotic = bool(chaos_mix)
    _machine, os_, _ctx = boot(
        strategy, seed=seed, cpus=num_cpus,
        chaos_mix=chaos_mix if chaotic else None,
        chaos_seed=_chaos_seed(seed, scenario.name, schedule))
    # the first step's baseline comes after the root spawn; a spawn
    # that dies before it is held to the post-boot frame count
    boot_frames = os_.machine.phys.allocated_frames

    def decision(point: int, offered: List[Tuple[str, Any]]) -> int:
        return schedule.get(point, 0)

    def on_step(os2: Any, run: Any) -> None:
        nonlocal watcher, baseline
        if watcher is None:
            watcher = _Watcher(os2)
            baseline = frame_baseline(os2)
        watcher(os2, run)

    def record(kind: str, detail: str) -> None:
        violations.append({
            "kind": kind,
            "detail": detail,
            "seed": seed,
            "schedule": {str(k): v for k, v in sorted(schedule.items())},
        })

    def meta_for(points: List[Any], chaos_death: Optional[str]
                 ) -> Dict[str, Any]:
        return {
            "points": points,
            "states": watcher.states if watcher is not None else set(),
            "os": os_,
            "chaos_death": chaos_death,
        }

    interp = SimRun(os_, scenario, decision=decision, on_step=on_step)
    trace: Optional[Dict[str, Any]] = None
    chaos_death: Optional[str] = None
    try:
        trace = interp.run()
    except DeadlockError as exc:
        if not chaotic:
            record("deadlock", str(exc))
            return None, meta_for([], None), violations
        # an injected WouldBlock can wedge a schedule; that is the
        # fault model working, not a kernel bug — report it as a
        # chaos death, never silently
        chaos_death = f"deadlock: {exc}"
    except ConformError as exc:
        if not chaotic:
            record("scenario-error", str(exc))
            return None, meta_for([], None), violations
        # e.g. an injected fork failure makes a later wait reference
        # a child that never existed — scenario logic broken *by* the
        # fault model, not by the kernel
        chaos_death = f"scenario-error: {exc}"
    except SimError as exc:
        if not chaotic:
            raise
        # a fault escaped the recovery machinery and killed the
        # scenario mid-flight — allowed under chaos
        chaos_death = f"{type(exc).__name__}: {exc}"

    # a chaos death still had to pass the watcher's per-step checks
    if watcher is not None:
        for detail in watcher.violations:
            record("invariant", detail)
    if chaos_death is not None:
        frames = os_.machine.phys.allocated_frames
        if not interp.procs and frames != boot_frames:
            record("leak", f"chaos-killed root spawn: {frames - boot_frames} "
                           f"frames leaked ({frames} allocated, "
                           f"{boot_frames} after boot)")
        return None, meta_for(interp.points, chaos_death), violations
    for detail in check_invariants(os_):
        record("invariant", f"end: {detail}")
    if baseline is not None:
        # every scenario process has exited by now; memory must be
        # back to the (post-boot, pre-fork) baseline captured at the
        # first preemption point
        for detail in check_end_state(os_, baseline):
            record("leak", detail)
    return trace, meta_for(interp.points, None), violations


def explore(scenario: Scenario, strategy: str = "copa", num_cpus: int = 2,
            seed: int = 0, depth_bound: int = 3, budget: int = 600,
            prune: bool = True,
            chaos_mix: Optional[str] = None) -> Dict[str, Any]:
    """Explore up to ``budget`` distinct schedules of one scenario.

    Returns a JSON-ready summary: schedules run (exactly
    ``min(budget, reachable)``), prunes, the deepest deviation count
    reached, unique kernel-state fingerprints, the sorted set of
    end-state trace digests, chaos deaths, and every violation found —
    each with the (seed, schedule) pair that replays it.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1 (the canonical schedule "
                         f"always runs), got {budget}")
    result: Dict[str, Any] = {
        "scenario": scenario.name,
        "strategy": strategy,
        "num_cpus": num_cpus,
        "seed": seed,
        "depth_bound": depth_bound,
        "budget": budget,
        "chaos": bool(chaos_mix),
        "schedules": 0,
        "pruned": 0,
        "max_depth": 0,
        "chaos_deaths": 0,
        "violations": [],
    }

    seen_states: Set[str] = set()
    trace_digests: Set[str] = set()

    def run_one(schedule: Schedule
                ) -> Tuple[Optional[Dict[str, Any]], Dict[str, Any], int]:
        trace, meta, violations = _run_schedule(
            scenario, strategy, num_cpus, seed, schedule,
            chaos_mix=chaos_mix)
        result["schedules"] += 1
        result["max_depth"] = max(result["max_depth"], len(schedule))
        result["violations"].extend(violations)
        if meta["chaos_death"] is not None:
            result["chaos_deaths"] += 1
        if trace is not None:
            trace_digests.add(trace_sha256(trace))
        novelty = len(meta["states"] - seen_states)
        seen_states.update(meta["states"])
        return trace, meta, novelty

    base_trace, base_meta, base_novelty = run_one({})
    result["decision_points"] = len(base_meta["points"])

    seen = {_schedule_key({})}
    #: ((depth desc, novelty desc, draw), tiebreak, schedule)
    frontier: List[Tuple[Tuple[int, int, float], int, Schedule]] = []
    counter = 0

    def push_extensions(schedule: Schedule, points: List[Any],
                        novelty: int) -> None:
        nonlocal counter
        if len(schedule) >= depth_bound:
            return
        last = max(schedule) if schedule else -1
        for index in range(last + 1, len(points)):
            offered = points[index]
            canonical_op = offered[0][1]
            for choice in range(1, len(offered)):
                if prune and scenario.ops_independent(offered[choice][1],
                                                      canonical_op):
                    # commuting ops: the swapped order is reachable via
                    # a later deviation; skip this branch entirely
                    result["pruned"] += 1
                    continue
                extended = dict(schedule)
                extended[index] = choice
                key = _schedule_key(extended)
                if key in seen:
                    continue
                seen.add(key)
                counter += 1
                draw = deterministic_draw(
                    seed, f"conform.explore.{scenario.name}", counter)
                priority = (-len(extended), -novelty, draw)
                heapq.heappush(frontier, (priority, counter, extended))

    push_extensions({}, base_meta["points"], base_novelty)

    while frontier and result["schedules"] < budget:
        _prio, _tie, schedule = heapq.heappop(frontier)
        trace, meta, novelty = run_one(schedule)
        if trace is not None and scenario.schedule_invariant \
                and base_trace is not None and not chaos_mix:
            diffs = diff_traces(trace, base_trace)
            if diffs:
                result["violations"].append({
                    "kind": "schedule-divergence",
                    "detail": "; ".join(diffs[:5]),
                    "seed": seed,
                    "schedule": {str(k): v
                                 for k, v in sorted(schedule.items())},
                })
        push_extensions(schedule, meta["points"], novelty)

    result["frontier_left"] = len(frontier)
    result["unique_states"] = len(seen_states)
    result["trace_set"] = sorted(trace_digests)
    return result
