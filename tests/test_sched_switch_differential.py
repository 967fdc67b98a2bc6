"""Differential suite: the scheduler's one-pass ``switch_to`` against
the switch it replaced.

:meth:`repro.smp.sched.SmpScheduler.switch_to` places a still-runnable
previous task before charging anything, queues it, takes the incoming
task out of its queue through the task -> CPU index and sets the depth
gauge once.  The reference below is the old switch: charge, flush, emit
and count, then ``add(previous)`` and ``remove(task)`` with their scans
of every queue and every ``current`` slot and a depth gauge set after
each step.

Each example drives both on machines of 1 to 4 CPUs, single- or
multi-address-space, obs off or on, through one random script: tasks
with random affinity masks (offline CPUs included) are added, removed,
blocked, woken, made RUNNABLE, BLOCKED or EXITED behind the scheduler's
back and switched to on random CPUs from a random current CPU.  After
every step the queues (in order), the ``current`` slots, each task's
``last_cpu``, the IPIs sent, the switch count, the TLB flushes, the
clock and its buckets, the counters and the obs export (the depth gauge
included) must be equal, and a step raises the same exception type on
both.  A refused switch must change nothing at all on the new
scheduler; the reference charged before refusing, so the script stops
there.
"""

import json

from hypothesis import given, settings, strategies as st

from repro import events
from repro.kernel.task import Process, TaskState
from repro.machine import Machine
from repro.smp.sched import SmpScheduler

#: CPU ids a mask may name: CPU 4 is offline on every machine here
MASK_CPUS = 5


class ReferenceScheduler(SmpScheduler):
    """The switch as ``add(previous)`` then ``remove(task)``, with the
    old queue scans and depth gauge.  It never fills the task -> CPU
    index, so only the operations it overrides may run on it."""

    def _enqueued(self, task):
        return any(task in queue for queue in self._queues)

    def _allowed_cpus(self, task):
        allowed = [cpu for cpu in range(self.num_cpus)
                   if task.can_run_on(cpu)]
        if not allowed:
            raise ValueError(
                f"task tid={task.tid} affinity {sorted(task.affinity)} "
                f"excludes every online CPU (0..{self.num_cpus - 1})")
        return allowed

    def _place(self, task):
        allowed = self._allowed_cpus(task)
        min_load = min(self._load(cpu) for cpu in allowed)
        if task.last_cpu in allowed and \
                self._load(task.last_cpu) == min_load:
            return task.last_cpu
        for cpu in allowed:
            if self._load(cpu) == min_load:
                return cpu
        raise AssertionError("unreachable")

    def add(self, task):
        if task.state is not TaskState.RUNNABLE or self._enqueued(task):
            return
        cpu = self._place(task)
        was_empty = not self._queues[cpu]
        self._queues[cpu][task] = None
        self._observe_depth()
        if cpu != self.machine.current_cpu and was_empty and \
                self._current[cpu] is None:
            self.machine.ipi.send(self.machine.current_cpu, cpu, "resched")

    def remove(self, task):
        for queue in self._queues:
            if task in queue:
                del queue[task]
                self._observe_depth()
                break
        for cpu, running in enumerate(self._current):
            if running is task:
                self._current[cpu] = None

    def _observe_depth(self):
        obs = self.machine.obs
        if obs.enabled:
            obs.gauge_set(self._depth_gauge,
                          sum(len(queue) for queue in self._queues))

    def switch_to(self, task, cpu=None):
        if cpu is None:
            cpu = self.machine.current_cpu
        if task is self._current[cpu]:
            return
        if self.machine.irq_depth > 0:
            raise AssertionError("scheduling while atomic")
        machine = self.machine
        costs = machine.costs
        if self.same_address_space:
            machine.charge(costs.context_switch_sas_ns, "ctx_switch")
        else:
            machine.charge(costs.context_switch_mas_ns, "ctx_switch")
            machine.cores[cpu].tlb.flush()
        machine.emit(events.CONTEXT_SWITCH)
        self.switches += 1
        previous = self._current[cpu]
        if previous is not None and previous.state is TaskState.RUNNABLE:
            self.add(previous)
        self.remove(task)
        self._current[cpu] = task
        task.last_cpu = cpu


class World:
    """One machine, one scheduler and its tasks."""

    def __init__(self, cls, num_cpus, same_address_space, obs, masks):
        self.machine = Machine(seed=3, num_cpus=num_cpus)
        if obs:
            self.machine.obs.enable()
        self.sched = cls(self.machine, same_address_space)
        self.proc = Process(pid=100, name="switch")
        self.tasks = []
        for mask in masks:
            task = self.proc.add_task()
            if mask is not None:
                task.pin(*mask)
            self.tasks.append(task)

    def view(self):
        """Everything the two schedulers must agree on, by task index."""
        index = {task: i for i, task in enumerate(self.tasks)}
        sched, machine = self.sched, self.machine
        return (
            [[index[task] for task in queue] for queue in sched._queues],
            [None if task is None else index[task]
             for task in sched._current],
            [task.last_cpu for task in self.tasks],
            [task.state for task in self.tasks],
            machine.ipi.sent, sched.switches,
            [core.tlb.flush_count for core in machine.cores],
            machine.clock.now_ns, list(machine.clock.buckets.items()),
            list(machine.counters.snapshot().items()),
            json.dumps(machine.obs.export()),
        )

    def step(self, op):
        """Run one script step; the exception type it raised, if any."""
        kind, which, arg = op
        task = self.tasks[which % len(self.tasks)]
        sched = self.sched
        try:
            if kind == "add":
                sched.add(task)
            elif kind == "remove":
                sched.remove(task)
            elif kind == "block":
                sched.block(task)
            elif kind == "wake":
                sched.wake(task)
            elif kind == "state":
                task.state = arg
            elif kind == "cpu":
                self.machine.current_cpu = arg % self.machine.num_cpus
            else:
                sched.switch_to(task, None if arg is None
                                else arg % self.machine.num_cpus)
        except Exception as exc:  # the outcome under test
            return type(exc)
        return None


masks = st.one_of(st.none(), st.sets(st.integers(0, MASK_CPUS - 1),
                                     min_size=1, max_size=3))
ops = st.one_of(
    st.tuples(st.sampled_from(["add", "remove", "block", "wake"]),
              st.integers(0, 5), st.none()),
    st.tuples(st.just("state"), st.integers(0, 5),
              st.sampled_from(list(TaskState))),
    st.tuples(st.just("cpu"), st.integers(0, 5), st.integers(0, 3)),
    st.tuples(st.just("switch"), st.integers(0, 5),
              st.one_of(st.none(), st.integers(0, 3))),
)


@settings(max_examples=150, deadline=None)
@given(num_cpus=st.integers(1, 4), same_address_space=st.booleans(),
       obs=st.booleans(),
       masks=st.lists(masks, min_size=1, max_size=6),
       script=st.lists(ops, min_size=1, max_size=40))
def test_switch_matches_requeue_then_remove(num_cpus, same_address_space,
                                            obs, masks, script):
    new = World(SmpScheduler, num_cpus, same_address_space, obs, masks)
    ref = World(ReferenceScheduler, num_cpus, same_address_space, obs,
                masks)
    for op in script:
        before = new.view()
        raised = new.step(op)
        assert raised is ref.step(op)
        if raised is not None and op[0] == "switch":
            # refused: the new switch left no trace, the old one had
            # already charged, flushed and counted
            assert new.view() == before
            return
        assert new.view() == ref.view()
    # the index agrees with the queues it mirrors
    assert new.sched._home == {
        task: cpu for cpu, queue in enumerate(new.sched._queues)
        for task in queue}


def test_refused_switch_is_reached():
    """The script space includes the refusal the suite checks: a
    current task pinned to an offline CPU."""
    world = World(SmpScheduler, 2, True, True, [None, None])
    running, waiting = world.tasks
    world.sched.add(running)
    world.sched.switch_to(running)
    world.sched.add(waiting)
    running.pin(4)
    before = world.view()
    assert world.step(("switch", 1, None)) is ValueError
    assert world.view() == before
