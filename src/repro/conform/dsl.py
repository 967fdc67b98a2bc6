"""The conformance scenario DSL.

A :class:`Scenario` is one small guest program — fork/exit/wait, pipes,
dup2, signals and mmap-ish memory ops — written once and executed
twice: on the simulated kernel (:mod:`repro.conform.simrun`, under any
fork strategy and CPU count) and on the real host POSIX kernel
(:mod:`repro.conform.hostrun`, via ``os.fork``/``os.pipe``/
``os.waitpid`` in a sandboxed subprocess).  Each execution produces a
*logical trace* of the observable outputs; :func:`diff_traces` compares
them.  A scenario that diverges is either a kernel bug or an oracle
caveat — docs/CONFORMANCE.md lists the caveats we accept.

Everything here is host-independent bookkeeping: op constructors,
scenario validation, trace normalization and diffing, and the static
op footprints the interleaving explorer uses for sleep-set pruning.
The module is stdlib-only so :mod:`repro.conform.hostrun` (which must
stay importable without the simulator) can share it.

Trace shape (JSON-ready, no host pids / fd numbers / wall-clock)::

    {"procs": {"main": [["write", "p.w", 5], ...],
               "main/w1": [["read", "p.r", "hello"], ...]},
     "status": {"main": ["exit", 0]}}

Ops (tuples; ``tag`` names a pipe end, ``var`` a memory cell)::

    ("pipe", name)          create a pipe; fd tags "<name>.r"/"<name>.w"
    ("write", tag, text)    write all of text        -> event (tag, n)
    ("read", tag, n)        read n bytes or to EOF   -> event (tag, text)
    ("close", tag)          close the fd behind tag
    ("dup2", src, dst)      dst aliases src's description (closing dst's)
    ("fork", body)          run body as a child      (ref "<body><k>")
    ("snapshot", body)      checkpoint self; restore the blob as a
                            waitable child clone running body
                            (sim-only — no host equivalent)
    ("exit", status)        terminate (0..127; implicit exit 0 at end)
    ("wait", ref|None)      reap a child             -> wait event
    ("heap_set", var, int)  private memory store
    ("heap_get", var)       private memory load      -> event (var, value)
    ("shm_set", var, int)   MAP_SHARED store
    ("shm_get", var)        MAP_SHARED load          -> event (var, value)
    ("signal", sig, act)    act: "ignore"|"count"|"default"
    ("kill", target, sig)   target: "self"|"parent"|child ref
    ("sig_count", sig)      observed deliveries      -> event (sig, n)
    ("probe", what)         attempt a capability attack and record the
                            fault that stopped it: "oob" derefs past a
                            malloc'd bound, "tag" derefs a forged cap
                            rebuilt from raw bytes  -> event (what, fault)
                            (sim-only — host processes have no caps)
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

#: the signal names both backends understand
SIG_NAMES = ("TERM", "USR1", "USR2", "CHLD", "KILL")

#: fd-tag suffixes a ("pipe", name) op creates
READ_END = ".r"
WRITE_END = ".w"

OP_NAMES = {
    "pipe", "write", "read", "close", "dup2", "fork", "exit", "wait",
    "heap_set", "heap_get", "shm_set", "shm_get", "signal", "kill",
    "sig_count", "snapshot", "probe",
}

#: attack flavors the ("probe", what) op understands
PROBE_KINDS = ("oob", "tag")

Op = Tuple[Any, ...]
Event = List[Any]
Trace = Dict[str, Any]


# ---------------------------------------------------------------------------
# Op constructors (sugar for scenarios.py; plain tuples are fine too)
# ---------------------------------------------------------------------------

def pipe(name: str) -> Op:
    return ("pipe", name)


def wr(tag: str, text: str) -> Op:
    return ("write", tag, text)


def rd(tag: str, n: int) -> Op:
    return ("read", tag, n)


def close(tag: str) -> Op:
    return ("close", tag)


def dup2(src: str, dst: str) -> Op:
    return ("dup2", src, dst)


def fork(body: str) -> Op:
    return ("fork", body)


def snapshot_(body: str) -> Op:
    return ("snapshot", body)


def exit_(status: int = 0) -> Op:
    return ("exit", status)


def wait(ref: Optional[str] = None) -> Op:
    return ("wait", ref)


def heap_set(var: str, value: int) -> Op:
    return ("heap_set", var, value)


def heap_get(var: str) -> Op:
    return ("heap_get", var)


def shm_set(var: str, value: int) -> Op:
    return ("shm_set", var, value)


def shm_get(var: str) -> Op:
    return ("shm_get", var)


def signal_(sig: str, action: str) -> Op:
    return ("signal", sig, action)


def kill(target: str, sig: str) -> Op:
    return ("kill", target, sig)


def sig_count(sig: str) -> Op:
    return ("sig_count", sig)


def probe(what: str) -> Op:
    return ("probe", what)


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    """One conformance scenario: named bodies of ops, rooted at "main".

    ``schedule_invariant`` declares that the scenario's logical trace
    does not depend on the schedule (true for every corpus scenario
    without cross-process kills); the interleaving explorer asserts
    trace equality across schedules only when it is set.
    """

    name: str
    bodies: Mapping[str, Tuple[Op, ...]]
    schedule_invariant: bool = True
    #: filled by validate(): every shm var, in offset order
    shm_vars: Tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        self.bodies = {body: tuple(tuple(op) for op in ops)
                       for body, ops in self.bodies.items()}
        self.validate()

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        if "main" not in self.bodies:
            raise ValueError(f"scenario {self.name!r} has no 'main' body")
        shm: List[str] = []
        for body, ops in self.bodies.items():
            for op in ops:
                self._check_op(body, op)
                if op[0] in ("shm_set", "shm_get") and op[1] not in shm:
                    shm.append(op[1])
        self.shm_vars = tuple(sorted(shm))

    def _check_op(self, body: str, op: Op) -> None:
        if not op or op[0] not in OP_NAMES:
            raise ValueError(f"{self.name}/{body}: unknown op {op!r}")
        kind = op[0]
        if kind in ("fork", "snapshot") and op[1] not in self.bodies:
            raise ValueError(f"{self.name}/{body}: {kind} of unknown "
                             f"body {op[1]!r}")
        if kind == "exit" and not 0 <= op[1] <= 127:
            # >= 128 is reserved for signal-death encoding
            raise ValueError(f"{self.name}/{body}: exit status {op[1]} "
                             f"outside 0..127")
        if kind in ("signal", "kill", "sig_count"):
            sig = op[2] if kind == "kill" else op[1]
            if sig not in SIG_NAMES:
                raise ValueError(f"{self.name}/{body}: unknown signal "
                                 f"{sig!r}")
        if kind == "signal" and op[2] not in ("ignore", "count", "default"):
            raise ValueError(f"{self.name}/{body}: bad signal action "
                             f"{op[2]!r}")
        if kind == "probe" and op[1] not in PROBE_KINDS:
            raise ValueError(f"{self.name}/{body}: unknown probe kind "
                             f"{op[1]!r}")

    # -- transport ------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "bodies": {body: [list(op) for op in ops]
                       for body, ops in self.bodies.items()},
            "schedule_invariant": self.schedule_invariant,
        }

    # -- static analysis (sleep-set pruning) ----------------------------

    def uses_dup2(self) -> bool:
        return any(op[0] == "dup2"
                   for ops in self.bodies.values() for op in ops)

    def op_footprint(self, op: Op) -> FrozenSet[str]:
        """The shared resources an op touches.  Two ops of *different*
        processes whose footprints are disjoint commute — swapping
        their order cannot change any observable outcome — which is
        what lets the explorer prune equivalent interleavings.

        Conservative by construction: fd ops collapse to one resource
        per pipe (or one global resource once dup2 can alias across
        pipes), process-tree ops (fork/wait/exit/kill/signals) all
        share one resource, heap ops are process-private and free.
        """
        kind = op[0]
        if kind in ("heap_set", "heap_get", "probe"):
            # probe works entirely on its own fresh allocation; the
            # fault it records is a pure function of the cap machinery
            return frozenset()
        if kind in ("shm_set", "shm_get"):
            return frozenset({f"shm:{op[1]}"})
        if kind in ("pipe", "write", "read", "close", "dup2"):
            if self.uses_dup2():
                return frozenset({"fds"})
            tag = op[1]
            base = tag.rsplit(".", 1)[0]
            return frozenset({f"pipe:{base}"})
        # fork / snapshot / exit / wait / kill / signal / sig_count
        return frozenset({"proctree"})

    def ops_independent(self, a: Op, b: Op) -> bool:
        """Can *a* and *b* (ops of two different processes) be swapped
        without reaching a new state?  Disjoint footprints commute —
        except fork, snapshot and exit, which change the candidate set
        itself (they enable/disable transitions, the classic DPOR
        caveat; snapshot additionally captures *every* resource the
        caller holds, pipes included), so they are never independent of
        anything."""
        if a[0] in ("fork", "exit", "snapshot") \
                or b[0] in ("fork", "exit", "snapshot"):
            return False
        return not (self.op_footprint(a) & self.op_footprint(b))


# ---------------------------------------------------------------------------
# Signal-status encoding shared by both backends
# ---------------------------------------------------------------------------

def status_pair(raw: int) -> List[Any]:
    """Normalize a wait status: plain exits stay ``["exit", n]``; the
    128+sig encoding (and only it — the DSL confines exit statuses to
    0..127) becomes ``["signal", "<NAME>"]``."""
    if raw >= 128:
        from_num = {15: "TERM", 10: "USR1", 12: "USR2", 17: "CHLD",
                    9: "KILL"}
        name = from_num.get(raw - 128)
        if name is not None:
            return ["signal", name]
    return ["exit", raw]


# ---------------------------------------------------------------------------
# Trace normalization + diffing
# ---------------------------------------------------------------------------

def normalize_trace(trace: Trace) -> Trace:
    """Canonicalize schedule-unspecified parts of a trace.

    POSIX leaves the pick order of ``waitpid(-1)`` unspecified, so runs
    of *consecutive* wait-any events in one process are sorted; and a
    process that emitted nothing is unobservable, so empty event lists
    are dropped (backends differ on whether they materialize them)."""
    procs: Dict[str, List[Event]] = {}
    for label, events in trace.get("procs", {}).items():
        if not events:
            continue
        out: List[Event] = []
        run: List[Event] = []
        for event in events:
            event = [list(e) if isinstance(e, tuple) else e for e in event]
            if event and event[0] == "wait" and event[1] == "any":
                run.append(event)
                continue
            if run:
                out.extend(sorted(run, key=json.dumps))
                run = []
            out.append(event)
        if run:
            out.extend(sorted(run, key=json.dumps))
        procs[label] = out
    return {"procs": procs,
            "status": {label: list(pair)
                       for label, pair in trace.get("status", {}).items()}}


def diff_traces(sim: Trace, host: Trace) -> List[str]:
    """Human-readable differences between two normalized traces
    (empty == conformant)."""
    sim = normalize_trace(sim)
    host = normalize_trace(host)
    diffs: List[str] = []
    sim_procs, host_procs = sim["procs"], host["procs"]
    for label in sorted(set(sim_procs) | set(host_procs)):
        ours = sim_procs.get(label)
        theirs = host_procs.get(label)
        if ours is None:
            diffs.append(f"{label}: missing on sim (host ran "
                         f"{len(theirs)} events)")
            continue
        if theirs is None:
            diffs.append(f"{label}: missing on host (sim ran "
                         f"{len(ours)} events)")
            continue
        for index, (a, b) in enumerate(zip(ours, theirs)):
            if a != b:
                diffs.append(f"{label}[{index}]: sim={a!r} host={b!r}")
        if len(ours) != len(theirs):
            diffs.append(f"{label}: sim ran {len(ours)} events, host "
                         f"{len(theirs)}")
    for label in sorted(set(sim["status"]) | set(host["status"])):
        a = sim["status"].get(label)
        b = host["status"].get(label)
        if a != b:
            diffs.append(f"{label} status: sim={a!r} host={b!r}")
    return diffs


def trace_sha256(trace: Trace) -> str:
    """Stable digest of a normalized trace (report material)."""
    canon = json.dumps(normalize_trace(trace), sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
