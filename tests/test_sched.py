"""Scheduler-queue hardening: removal is idempotent and torn-down tasks
can never be resurrected into the run queue (the chaos tier removes and
blocks blindly during mid-operation teardown).  The hardening cases run
the one scheduler on a uniprocessor, where it must stay as strict as on
N CPUs; the property tests at the bottom fuzz the work-stealing
balancer against the same invariants plus CPU affinity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.task import Process, TaskState
from repro.machine import Machine
from repro.smp.sched import SmpScheduler


def make_task():
    proc = Process(pid=100, name="victim")
    return proc.add_task()


def make_sched(machine=None):
    return SmpScheduler(machine or Machine(), same_address_space=True)


class TestIdempotentRemoval:
    def test_remove_of_never_enqueued_task_is_noop(self):
        sched = make_sched()
        task = make_task()
        sched.remove(task)                 # must not raise
        assert sched.runnable_count == 0

    def test_double_remove_is_noop(self):
        sched = make_sched()
        task = make_task()
        sched.add(task)
        sched.remove(task)
        sched.remove(task)
        assert sched.runnable_count == 0

    def test_block_of_never_enqueued_task_is_safe(self):
        sched = make_sched()
        task = make_task()
        sched.block(task)                  # must not raise
        assert task.state is TaskState.BLOCKED
        assert sched.runnable_count == 0

    def test_remove_clears_current(self):
        sched = make_sched()
        task = make_task()
        sched.add(task)
        sched.switch_to(task)
        assert sched.current is task
        sched.remove(task)
        assert sched.current is None


class TestNoResurrection:
    def test_block_after_exit_does_not_resurrect(self):
        sched = make_sched()
        task = make_task()
        task.state = TaskState.EXITED
        sched.block(task)
        assert task.state is TaskState.EXITED     # not demoted to BLOCKED
        sched.wake(task)
        assert task.state is TaskState.EXITED     # and wake can't revive it
        assert sched.runnable_count == 0

    def test_add_refuses_exited_task(self):
        sched = make_sched()
        task = make_task()
        task.state = TaskState.EXITED
        sched.add(task)
        assert sched.runnable_count == 0

    def test_process_exit_marks_tasks_exited(self):
        from repro.apps.guest import GuestContext
        from repro.apps.hello import hello_world_image
        from repro.core import IsolationConfig, UForkOS

        os_ = UForkOS(machine=Machine(),
                      isolation=IsolationConfig.fault())
        ctx = GuestContext(os_, os_.spawn(hello_world_image(), "app"))
        task = ctx.proc.main_task()
        ctx.exit(0)
        assert task.state is TaskState.EXITED
        os_.sched.block(task)              # late blind block: still EXITED
        assert task.state is TaskState.EXITED
        os_.sched.add(task)                # and it cannot re-enter the queue
        assert task not in os_.sched.queued_tasks()


def test_task_repr_after_its_process_is_freed():
    assert repr(make_task()).endswith(", pid=None, RUNNABLE)")


class TestUniprocessor:
    """At ``num_cpus=1`` the scheduler keeps the N-CPU checks."""

    def test_scheduling_while_atomic_asserts(self):
        machine = Machine()
        sched = make_sched(machine)
        task = make_task()
        sched.add(task)
        with machine.locks.fork.held():
            with pytest.raises(AssertionError, match="atomic"):
                sched.switch_to(task)

    def test_affinity_excluding_cpu0_raises(self):
        sched = make_sched()
        task = make_task()
        task.pin(1)                        # not online on a uniprocessor
        with pytest.raises(ValueError, match="excludes every online"):
            sched.add(task)

    @pytest.mark.parametrize("same_address_space", [True, False],
                             ids=["sas", "mas"])
    def test_refused_switch_changes_nothing(self, same_address_space):
        """The running task is pinned to an offline CPU, so switching
        away cannot re-queue it: the switch raises before it charges,
        flushes, emits, counts or moves anything."""
        machine = Machine()
        machine.obs.enable()
        sched = SmpScheduler(machine, same_address_space)
        running, waiting = make_task(), make_task()
        sched.add(running)
        sched.switch_to(running)
        sched.add(waiting)
        running.pin(1)                     # not online on a uniprocessor

        def state():
            return (machine.clock.now_ns, dict(machine.clock.buckets),
                    machine.counters.snapshot(), sched.switches,
                    machine.tlb.flush_count, machine.obs.export())

        before = state()
        with pytest.raises(ValueError, match="excludes every online"):
            sched.switch_to(waiting)
        assert state() == before
        assert sched.current is running
        assert sched.queued_tasks() == [waiting]

    def test_steal_never_draws_the_abort_point(self, monkeypatch):
        """One CPU has no victim to steal from, so a chaos run never
        consults ``smp.steal.abort`` however often the queue drains."""
        from repro.chaos import ChaosEngine
        from repro.smp.runner import run_smp

        engines = []
        attach = ChaosEngine.attach

        def recording_attach(engine, machine):
            engines.append(engine)
            return attach(engine, machine)

        monkeypatch.setattr(ChaosEngine, "attach", recording_attach)
        run_smp(seed=7, num_cpus=1, requests=16, workload="nginx",
                mix="default=0.05,smp.*=0.3")
        (engine,) = engines
        assert engine.hits                 # chaos did run...
        assert "smp.steal.abort" not in engine.hits    # ...but not here


# ----------------------------------------------------------------------
# Work-stealing properties (SMP): affinity is inviolable and EXITED
# tasks stay dead, whatever the queue shapes look like
# ----------------------------------------------------------------------

NUM_CPUS = 4

#: one fuzzed task: (affinity mask or None, exited?, victim queue)
task_specs = st.lists(
    st.tuples(
        st.one_of(st.none(),
                  st.sets(st.integers(0, NUM_CPUS - 1), min_size=1)),
        st.booleans(),
        st.integers(0, NUM_CPUS - 1),
    ),
    min_size=0, max_size=12,
)


def build_smp_sched(specs):
    sched = SmpScheduler(Machine(num_cpus=NUM_CPUS),
                         same_address_space=True)
    proc = Process(pid=100, name="fuzz")
    tasks = []
    for affinity, exited, queue in specs:
        task = proc.add_task()
        if affinity is not None:
            task.pin(*affinity)
        if exited:
            task.state = TaskState.EXITED
        # place directly: the fuzz controls queue shape, not _place()
        sched._enqueue(task, queue)
        tasks.append(task)
    return sched, tasks


@settings(max_examples=60, deadline=None)
@given(specs=task_specs, thief=st.integers(0, NUM_CPUS - 1))
def test_steal_never_violates_affinity(specs, thief):
    sched, _tasks = build_smp_sched(specs)
    stolen = sched.steal_into(thief)
    if stolen is not None:
        assert stolen.can_run_on(thief)
        assert stolen in sched._queues[thief]


@settings(max_examples=60, deadline=None)
@given(specs=task_specs, thief=st.integers(0, NUM_CPUS - 1))
def test_steal_never_resurrects_exited_task(specs, thief):
    sched, tasks = build_smp_sched(specs)
    stolen = sched.steal_into(thief)
    if stolen is not None:
        assert stolen.state is TaskState.RUNNABLE
    # no EXITED task may remain claimable anywhere after the pass
    exited = [task for task in tasks if task.state is TaskState.EXITED]
    for cpu in range(NUM_CPUS):
        picked = sched.pick_for_cpu(cpu)
        assert picked not in exited


@settings(max_examples=60, deadline=None)
@given(specs=task_specs)
def test_smp_remove_is_idempotent_under_fuzz(specs):
    sched, tasks = build_smp_sched(specs)
    for task in tasks:
        sched.remove(task)
        sched.remove(task)
    assert sched.runnable_count == 0
