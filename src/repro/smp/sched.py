"""The scheduler: per-CPU run queues with CPU affinity and work stealing.

Every machine, uniprocessor or SMP, schedules through
:class:`SmpScheduler`; at ``num_cpus=1`` its one FIFO queue is a plain
round-robin run queue and nothing is ever stolen.

The lightweightness difference the paper measures between μFork and the
monolithic baseline on IPC-heavy workloads (Unixbench Context1, Fig 9)
comes from two mechanisms charged here: switching between tasks in a
single address space needs no page-table change and no TLB flush, while
a multi-address-space switch pays both.

The simulation's drivers are synchronous Python code, so the scheduler
is cooperative: it picks runnable tasks in queue order and charges
switch costs; "blocking" surfaces to drivers as WouldBlock and they
re-enter after switching.  The SMP executor drives the per-CPU entry
points (``pick_for_cpu``, ``steal_into``).

Determinism: placement, victim selection and steal order are pure
functions of queue state (least-loaded, lowest-CPU-id tie-break,
oldest-task-first), so one seed fully determines the schedule.

Invariants (tests/test_sched.py):

* an EXITED task can never (re-)enter any queue, be woken, or be
  stolen;
* removal is idempotent and clears any per-CPU ``current`` slot;
* a steal never migrates a task whose affinity mask excludes the
  stealing CPU (the property tests fuzz exactly this).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro import events
from repro.kernel.task import Task, TaskState


class SmpScheduler:
    """N per-CPU FIFO queues + a deterministic work-stealing balancer."""

    def __init__(self, machine: Any, same_address_space: bool) -> None:
        self.machine = machine
        self.same_address_space = same_address_space
        self.num_cpus = machine.num_cpus
        #: per-CPU FIFO queues as insertion-ordered sets (dicts), so
        #: mid-queue removal is O(1) while the iteration (= dispatch)
        #: order stays exactly the old deque's
        self._queues: List[Dict[Task, None]] = [
            {} for _ in range(self.num_cpus)
        ]
        #: queued task -> the CPU whose queue holds it, so membership
        #: and removal are one lookup whatever the CPU count
        self._home: Dict[Task, int] = {}
        self._cpu_ids = range(self.num_cpus)
        self._current: List[Optional[Task]] = [None] * self.num_cpus
        #: the run-queue depth gauge keeps the name each machine shape
        #: has always exported
        self._depth_gauge = ("kernel.sched.runqueue_depth"
                             if self.num_cpus == 1
                             else "smp.sched.runqueue_depth")
        self.switches = 0
        #: optional pluggable pick policy: called with the local
        #: runnable candidates (queue order), returns the task to
        #: dispatch or ``None`` for the FIFO default.  The conformance
        #: explorer installs one to permute scheduler decisions
        #: deterministically (see :mod:`repro.conform`).
        self.decision_source = None

    # -- the current CPU's view -----------------------------------------

    @property
    def current(self) -> Optional[Task]:
        """The task running on the *current* CPU."""
        return self._current[self.machine.current_cpu]

    @current.setter
    def current(self, task: Optional[Task]) -> None:
        self._current[self.machine.current_cpu] = task

    def current_on(self, cpu: int) -> Optional[Task]:
        return self._current[cpu]

    # -- queue management ------------------------------------------------

    def _enqueue(self, task: Task, cpu: int) -> None:
        """Append ``task`` to ``cpu``'s queue (no placement, no IPI)."""
        self._queues[cpu][task] = None
        self._home[task] = cpu

    def _dequeue(self, task: Task) -> bool:
        """Take ``task`` out of whichever queue holds it; whether one
        did."""
        cpu = self._home.pop(task, None)
        if cpu is None:
            return False
        del self._queues[cpu][task]
        return True

    def _load(self, cpu: int) -> int:
        """Queue depth plus occupancy: an idle empty CPU beats a busy
        empty one, so new work wakes idle CPUs first (and pays the
        resched IPI that a real wakeup does)."""
        return 2 * len(self._queues[cpu]) + \
            (1 if self._current[cpu] is not None else 0)

    def _place(self, task: Task) -> int:
        """Deterministic placement: least-loaded allowed CPU; prefer
        the task's last CPU (cache warmth) among the least loaded, then
        the lowest CPU id.  A task with one allowed CPU goes there
        unweighed; one with none is refused (``ValueError``)."""
        affinity = task.affinity
        allowed = self._cpu_ids if affinity is None else \
            [cpu for cpu in self._cpu_ids if cpu in affinity]
        if len(allowed) == 1:
            return allowed[0]
        if not allowed:
            raise ValueError(
                f"task tid={task.tid} affinity {sorted(affinity)} "
                f"excludes every online CPU (0..{self.num_cpus - 1})")
        min_load = min(self._load(cpu) for cpu in allowed)
        if task.last_cpu in allowed and \
                self._load(task.last_cpu) == min_load:
            return task.last_cpu
        for cpu in allowed:
            if self._load(cpu) == min_load:
                return cpu
        raise AssertionError("unreachable")  # pragma: no cover

    def _push(self, task: Task, cpu: int) -> None:
        """Queue ``task`` on ``cpu``; waking an idle remote CPU costs a
        resched IPI."""
        machine = self.machine
        idle = not self._queues[cpu] and self._current[cpu] is None
        self._enqueue(task, cpu)
        if idle and cpu != machine.current_cpu:
            machine.ipi.send(machine.current_cpu, cpu, "resched")

    def add(self, task: Task) -> None:
        if task.state is not TaskState.RUNNABLE or task in self._home:
            return
        self._push(task, self._place(task))
        self._observe_depth()

    def _clear_current(self, task: Task) -> None:
        """Empty every per-CPU ``current`` slot holding ``task``."""
        current = self._current
        if task in current:
            for cpu, running in enumerate(current):
                if running is task:
                    current[cpu] = None

    def remove(self, task: Task) -> None:
        """Idempotent removal from whichever queue holds the task."""
        if self._dequeue(task):
            self._observe_depth()
        self._clear_current(task)

    def block(self, task: Task) -> None:
        """Block (never resurrects an EXITED task)."""
        if task.state is not TaskState.EXITED:
            task.state = TaskState.BLOCKED
        self.remove(task)

    def wake(self, task: Task) -> None:
        if task.state is TaskState.BLOCKED:
            task.state = TaskState.RUNNABLE
            self.add(task)

    def _observe_depth(self) -> None:
        obs = self.machine.obs
        if obs.enabled:
            obs.gauge_set(self._depth_gauge, len(self._home))

    # -- switching -------------------------------------------------------

    def switch_to(self, task: Task, cpu: Optional[int] = None) -> None:
        """Dispatch ``task`` on ``cpu`` (default: the current CPU),
        charging the context-switch cost — plus, on a
        multi-address-space OS, the flush of that CPU's *private*
        TLB.

        A still-runnable previous task is placed first: a refused
        placement (its affinity excludes every online CPU) raises
        before anything is charged, emitted or moved.  Then the
        previous task is queued and ``task`` leaves its queue, as
        ``add(previous)`` then ``remove(task)`` would, with the depth
        gauge set once.
        """
        machine = self.machine
        if cpu is None:
            cpu = machine.current_cpu
        previous = self._current[cpu]
        if task is previous:
            return
        if machine.irq_depth > 0:
            raise AssertionError(
                "scheduling while atomic: context switch inside an "
                "IRQ-disabled critical section")
        requeue = previous is not None and \
            previous.state is TaskState.RUNNABLE and \
            previous not in self._home
        if requeue:
            home = self._place(previous)
        costs = machine.costs
        if self.same_address_space:
            machine.charge(costs.context_switch_sas_ns, "ctx_switch")
        else:
            machine.charge(costs.context_switch_mas_ns, "ctx_switch")
            machine.cores[cpu].tlb.flush()
        machine.emit(events.CONTEXT_SWITCH)
        self.switches += 1
        if requeue:
            self._push(previous, home)
        if self._dequeue(task) or requeue:
            self._observe_depth()
        self._clear_current(task)
        self._current[cpu] = task
        task.last_cpu = cpu

    def pick_next(self, cpu: Optional[int] = None) -> Optional[Task]:
        """Next runnable task for ``cpu``'s local queue (no stealing;
        falls back to any queue so ``yield`` still finds global work)."""
        if cpu is None:
            cpu = self.machine.current_cpu
        local = self._pick_local(cpu)
        if local is not None:
            return local
        for other in range(self.num_cpus):
            if other == cpu:
                continue
            for task in self._queues[other]:
                if task.state is TaskState.RUNNABLE and \
                        task.can_run_on(cpu):
                    return task
        return None

    def _pick_local(self, cpu: int) -> Optional[Task]:
        queue = self._queues[cpu]
        while queue:
            task = next(iter(queue))
            if task.state is TaskState.RUNNABLE:
                break
            self._dequeue(task)
        if not queue:
            return None
        if self.decision_source is not None:
            candidates = [task for task in queue
                          if task.state is TaskState.RUNNABLE]
            chosen = self.decision_source(candidates)
            if chosen is not None:
                return chosen
        return next(iter(queue))

    def queued_tasks(self) -> List[Task]:
        """Every task sitting in any per-CPU queue (audit hook)."""
        return [task for queue in self._queues for task in queue]

    def pick_for_cpu(self, cpu: int) -> Optional[Task]:
        """The executor's dispatch choice: local FIFO first, then steal."""
        task = self._pick_local(cpu)
        if task is not None:
            return task
        return self.steal_into(cpu)

    def steal_into(self, cpu: int) -> Optional[Task]:
        """Steal one task for an idle CPU.

        Victims are scanned most-loaded-first (lowest id breaks ties)
        and the *oldest* waiting task migrates — it has waited longest
        and its cache is coldest.  A task is only taken if RUNNABLE and
        its affinity admits the stealing CPU.  The chaos point
        ``smp.steal.abort`` models losing the victim's queue lock: the
        balancer gives up this round and retries at the next idle tick.
        A uniprocessor has no victim to steal from, so it never draws
        that point.
        """
        if self.num_cpus == 1:
            return None
        machine = self.machine
        chaos = machine.chaos
        if chaos.enabled and chaos.should_fire("smp.steal.abort"):
            machine.emit(events.STEAL_ABORTS)
            chaos.note_recovery("smp.steal.abort")
            return None
        victims = sorted(
            (victim for victim in range(self.num_cpus)
             if victim != cpu and self._queues[victim]),
            key=lambda victim: (-len(self._queues[victim]), victim),
        )
        for victim in victims:
            for task in list(self._queues[victim]):
                if task.state is not TaskState.RUNNABLE:
                    self._dequeue(task)
                    continue
                if not task.can_run_on(cpu):
                    continue
                self._dequeue(task)
                self._enqueue(task, cpu)
                machine.charge(machine.costs.work_steal_ns, "steal")
                machine.emit(events.WORK_STEAL)
                return task
        return None

    def yield_current(self) -> Optional[Task]:
        """Voluntarily yield the current CPU to its next runnable task."""
        task = self.pick_next()
        if task is not None:
            self.switch_to(task)
        return task

    @property
    def runnable_count(self) -> int:
        return sum(
            1 for queue in self._queues for task in queue
            if task.state is TaskState.RUNNABLE
        )
