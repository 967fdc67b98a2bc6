"""A dead machine frees itself.

Ownership is a tree rooted at the :class:`~repro.machine.Machine`: what
it owns holds it weakly, a child process holds its parent weakly, and
no handler, guard or injected fault closes a loop back.  So the last
reference to a machine frees it by reference counting alone.  Every
test here runs with the cycle collector disabled; a reference cycle
anywhere on the path keeps the machine alive and fails it.

The μFork fork also skips its pending-page sweep for a process that
cannot hold child-role share notes; the last tests pin that the skip
changes nothing a run reports.
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import Session
from repro.apps.guest import GuestContext
from repro.apps.hello import hello_world_image
from repro.core import strategies as core_strategies
from repro.core import ufork as core_ufork
from repro.errors import SimError
from repro.events import RESOLVED_PENDING_PAGES
from repro.kernel.signals import SIGKILL
from repro.machine import Machine, live_machines
from repro.trace import attach_tracer

#: (os, strategy) of the six kernels
KERNELS = [("ufork", "full"), ("ufork", "coa"), ("ufork", "copa"),
           ("monolithic", "copa"), ("isounik", "copa"),
           ("vmclone", "copa")]
#: fork aborts and syscall faults: injected on the fork path, never at
#: boot, and some of them escape the bounded retry
CHAOS_MIX = ("default=0.0,core.ufork.abort.*=0.2,kernel.syscall.eintr=0.2,"
             "kernel.syscall.eagain=0.1")


@pytest.fixture
def collector_off():
    """Run the test with the cycle collector disabled."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _new_machines(run) -> list:
    """The machines ``run()`` created that are still alive after it."""
    before = live_machines()
    run()
    alive = [machine for machine in live_machines()
             if not any(machine is old for old in before)]
    del before
    return alive


def _session(os_name: str, strategy: str, *, obs: bool, chaos: bool,
             tracer: bool, seed: int = 7) -> Session:
    session = Session(os=os_name, strategy=strategy, obs=obs,
                      chaos=CHAOS_MIX if chaos else None,
                      cpus=2 if chaos else 1, seed=seed).boot()
    if tracer:
        attach_tracer(session.machine)
    return session


def _fork_and_exit(os_name: str, strategy: str, **knobs) -> weakref.ref:
    """Fork, exit and reap a child three times; the session dies with
    this frame, so the returned reference is all that is left."""
    session = _session(os_name, strategy, **knobs)
    parent = session.spawn()
    for _ in range(3):
        try:
            child = parent.fork()
            child.exit(0)
            parent.wait(child.pid)
        except SimError:
            # an injected fault escaped the retry: its traceback must
            # not pin the machine either
            pass
    return weakref.ref(session.machine)


@pytest.mark.parametrize("tracer", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
@pytest.mark.parametrize("obs", [False, True], ids=["no-obs", "obs"])
@pytest.mark.parametrize("os_name,strategy", KERNELS,
                         ids=[f"{o}-{s}" for o, s in KERNELS])
def test_dropped_session_frees_its_machine(collector_off, os_name, strategy,
                                           obs, chaos, tracer):
    machine = _fork_and_exit(os_name, strategy, obs=obs, chaos=chaos,
                             tracer=tracer)
    assert machine() is None


def test_redis_runs_free_their_machines(collector_off):
    from repro.baselines import MonolithicOS
    from repro.core import CopyStrategy, IsolationConfig, UForkOS
    from repro.harness.experiments import _redis_run
    from repro.mem.layout import KiB

    def run():
        _redis_run(UForkOS, 100 * KiB, copy_strategy=CopyStrategy.COPA,
                   isolation=IsolationConfig.fault())
        _redis_run(MonolithicOS, 100 * KiB)

    assert _new_machines(run) == []


def test_cluster_run_frees_its_machines(collector_off):
    from repro.cluster.runner import run_cluster

    assert _new_machines(lambda: run_cluster(requests=1_000)) == []


@pytest.mark.parametrize("strategy", ["monolithic", "full", "coa", "copa"])
def test_explorer_unit_frees_its_machines(collector_off, strategy):
    from repro.conform import farm
    from repro.conform.explorer import explore
    from repro.conform.scenarios import by_name

    def run():
        result = explore(by_name("heap-deep-chain"), strategy=strategy,
                         num_cpus=2, seed=7,
                         depth_bound=farm.DEFAULT_DEPTH,
                         budget=farm.DEFAULT_BUDGET,
                         chaos_mix=farm.DEFAULT_CHAOS_MIX)
        assert not result["violations"]

    assert _new_machines(run) == []


# -- fork / exit / wait / kill sequences -----------------------------------

OPS = st.lists(st.tuples(st.sampled_from(["fork", "exit", "wait", "kill"]),
                         st.integers(0, 7), st.integers(0, 7)),
               min_size=1, max_size=25)


def _run_history(kernel, ops, chaos: bool) -> weakref.ref:
    """Play ``ops`` from a spawned root, check the process tree, and
    return a reference to the machine (the session dies here)."""
    session = _session(*kernel, obs=False, chaos=chaos, tracer=False)
    root = session.spawn()
    # a reaped process is dropped here, so only its orphans can keep it
    contexts = {root.pid: root}
    unreaped = {root.pid}
    for op, i, j in ops:
        live = [ctx for ctx in contexts.values() if ctx.proc.alive]
        actor = live[i % len(live)]
        live = None
        try:
            if op == "fork":
                child = actor.fork()
                contexts[child.pid] = child
                unreaped.add(child.pid)
            elif op == "exit" and actor is not root:
                actor.exit(j)
            elif op == "wait":
                pid = actor.wait()[0]
                unreaped.discard(pid)
                del contexts[pid]
            elif op == "kill" and actor is not root:
                root.syscall("kill", actor.pid, SIGKILL)
        except SimError:
            pass
        child = actor = None
    procs = session.os.procs
    # only a wait reaps: an exited orphan is not reaped at its exit
    assert {proc.pid for proc in procs.all()} == unreaped
    for proc in procs.all():
        if proc is root.proc:
            assert proc.parent is None
        else:
            # an orphan keeps its parent, reaped and all
            assert proc.parent is not None
        assert all(task.process is proc for task in proc.tasks)
    return weakref.ref(session.machine)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(kernel=st.sampled_from(KERNELS), ops=OPS, chaos=st.booleans())
def test_prop_process_tree_frees_its_machine(collector_off, kernel, ops,
                                             chaos):
    """Any fork/exit/wait/kill history leaves nothing that pins the
    machine, and keeps the reaping rules: only a root is reaped at its
    exit, and an orphan (its parent reaped) keeps a parent that is
    not alive, so it waits as a zombie instead."""
    machine = _run_history(kernel, ops, chaos)
    assert machine() is None


def _orphan_history(kernel) -> tuple:
    session = _session(*kernel, obs=False, chaos=False, tracer=False)
    root = session.spawn()
    parent = root.fork()
    orphan = parent.fork()
    parent.exit(0)
    assert root.wait(parent.pid) == (parent.pid, 0)
    parent = None
    orphan.exit(3)
    proc = orphan.proc
    return weakref.ref(session.machine), proc.pid in session.os.procs, \
        proc.reaped, proc.parent is not None and not proc.parent.alive


@pytest.mark.parametrize("kernel", KERNELS, ids=[f"{o}-{s}" for o, s in KERNELS])
def test_orphan_keeps_its_reaped_parent(collector_off, kernel):
    """An orphan's exit does not reap it: it still has a parent, the
    reaped one, so it stays a zombie in the table."""
    machine, in_table, reaped, dead_parent = _orphan_history(kernel)
    assert (in_table, reaped, dead_parent) == (True, False, True)
    assert machine() is None


# -- the pending-page sweep -------------------------------------------------

def _copa_root(seed: int = 7) -> GuestContext:
    os_ = core_ufork.UForkOS(machine=Machine(seed=seed))
    return GuestContext(os_, os_.spawn(hello_world_image(), "root"))


def _spans_named(node: dict, name: str) -> list:
    found = [node] if node["name"] == name else []
    for child in node["children"]:
        found += _spans_named(child, name)
    return found


def test_root_that_reforks_sweeps_nothing(monkeypatch):
    calls = []
    real = core_ufork.resolve_all_pending
    monkeypatch.setattr(core_ufork, "resolve_all_pending",
                        lambda *args: calls.append(args) or real(*args))
    root = _copa_root()
    machine = root.os.machine
    machine.obs.enable()
    for _ in range(3):
        child = root.fork()
        child.exit(0)
        root.wait(child.pid)
    assert calls == []
    # the span still opens at every fork, and nothing is charged in it
    export = machine.obs.export()
    spans = _spans_named(export["spans"], "resolve_pending")
    assert [(span["count"], span["total_ns"]) for span in spans] == [(3, 0)]
    assert RESOLVED_PENDING_PAGES.metric not in export["metrics"]["counters"]


def _grandchild_run(sweep_always: bool) -> dict:
    """A CoPA child that writes a page, then forks twice; with
    ``sweep_always`` every fork sweeps as if it could not skip."""
    root = _copa_root()
    machine = root.os.machine
    machine.obs.enable()

    def fork(ctx: GuestContext) -> GuestContext:
        if sweep_always:
            ctx.proc.shares_pending = True
        return ctx.fork()

    child = fork(root)
    child.store(child.malloc(64), b"x" * 64)
    grandchild = fork(child)
    swept = not child.proc.shares_pending
    again = fork(child)
    for ctx in (again, grandchild):
        ctx.exit(0)
        child.wait(ctx.pid)
    child.exit(0)
    root.wait(child.pid)
    return {"now": machine.clock.now_ns,
            "buckets": dict(machine.clock.buckets),
            "counters": machine.counters.snapshot(),
            "obs": machine.obs.export(),
            "swept": swept}


def test_copa_child_refork_resolves_like_the_full_sweep():
    skipped = _grandchild_run(sweep_always=False)
    swept = _grandchild_run(sweep_always=True)
    assert skipped["swept"]
    counters = skipped["obs"]["metrics"]["counters"]
    assert counters[RESOLVED_PENDING_PAGES.metric] > 0
    assert skipped == swept


def test_snapshot_still_resolves_pending_pages(monkeypatch):
    from repro.snapshot import checkpoint

    calls = []
    real = core_strategies.resolve_all_pending
    import repro.snapshot.engine as snapshot_engine
    monkeypatch.setattr(snapshot_engine, "resolve_all_pending",
                        lambda *args: calls.append(args) or real(*args))
    root = _copa_root()
    child = root.fork()
    checkpoint(root.os, root.proc)
    checkpoint(root.os, child.proc)
    assert len(calls) == 2
