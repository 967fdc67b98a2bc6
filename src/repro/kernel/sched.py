"""Scheduling and context-switch accounting.

The lightweightness difference the paper measures between μFork and the
monolithic baseline on IPC-heavy workloads (Unixbench Context1, Fig 9)
comes from two mechanisms charged here: switching between tasks in a
single address space needs no page-table change and no TLB flush, while
a multi-address-space switch pays both.

The simulation's drivers are synchronous Python code, so the scheduler
is cooperative: it picks runnable tasks round-robin and charges switch
costs; "blocking" surfaces to drivers as WouldBlock and they re-enter
after switching.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.kernel.task import Task, TaskState


def make_scheduler(machine: Any, same_address_space: bool):
    """Pick the machine's scheduler: the single global round-robin
    queue on a 1-CPU machine (bit-identical to the pre-SMP model), or
    per-CPU run queues with work stealing once more than one CPU is
    online (:class:`repro.smp.sched.SmpScheduler`)."""
    if getattr(machine, "num_cpus", 1) > 1:
        from repro.smp.sched import SmpScheduler
        return SmpScheduler(machine, same_address_space)
    return Scheduler(machine, same_address_space)


class Scheduler:
    """Round-robin over runnable tasks with switch-cost accounting."""

    def __init__(self, machine: Any, same_address_space: bool) -> None:
        self.machine = machine
        self.same_address_space = same_address_space
        #: the run queue as an insertion-ordered set (a dict used for
        #: its ordering guarantee): O(1) membership test on ``add`` and
        #: O(1) removal from the middle, where the former deque paid a
        #: linear scan for both.  Iteration order — and therefore every
        #: scheduling decision — is identical to the deque it replaces.
        self._runnable: Dict[Task, None] = {}
        self.current: Optional[Task] = None
        self.switches = 0
        #: optional pluggable pick policy: a callable receiving the
        #: runnable candidates (queue order) and returning the task to
        #: dispatch, or ``None`` to keep the round-robin default.  The
        #: conformance explorer installs one to permute scheduler
        #: decisions deterministically (see :mod:`repro.conform`).
        self.decision_source = None

    # -- queue management ----------------------------------------------------

    def add(self, task: Task) -> None:
        if task.state is TaskState.RUNNABLE and task not in self._runnable:
            self._runnable[task] = None
            self._observe_depth()

    def remove(self, task: Task) -> None:
        """Drop a task from the run queue.

        Tolerates tasks that were never enqueued (or already removed):
        chaos-driven mid-fork teardown and process exit both remove
        blindly, so removal must be an idempotent no-op rather than a
        raise.
        """
        if task in self._runnable:
            del self._runnable[task]
            self._observe_depth()
        if self.current is task:
            self.current = None

    def _observe_depth(self) -> None:
        """Keep the ``kernel.sched.runqueue_depth`` gauge current."""
        obs = self.machine.obs
        if obs.enabled:
            obs.gauge_set("kernel.sched.runqueue_depth",
                          len(self._runnable))

    def block(self, task: Task) -> None:
        """Block a task (no-op beyond removal for exited tasks —
        blocking must never resurrect a task torn down mid-operation)."""
        if task.state is not TaskState.EXITED:
            task.state = TaskState.BLOCKED
        self.remove(task)

    def wake(self, task: Task) -> None:
        if task.state is TaskState.BLOCKED:
            task.state = TaskState.RUNNABLE
            self.add(task)

    # -- switching ----------------------------------------------------------

    def switch_to(self, task: Task) -> None:
        """Switch the (single simulated) CPU to ``task``, charging costs."""
        if task is self.current:
            return
        costs = self.machine.costs
        if self.same_address_space:
            self.machine.charge(costs.context_switch_sas_ns, "ctx_switch")
        else:
            self.machine.charge(costs.context_switch_mas_ns, "ctx_switch")
            self.machine.tlb.flush()
        self.machine.emit(counter="context_switch",
                          metric="kernel.sched.context_switch")
        self.switches += 1
        if self.current is not None and \
                self.current.state is TaskState.RUNNABLE:
            self.add(self.current)
        self.remove(task)
        self.current = task

    def pick_next(self) -> Optional[Task]:
        """Round-robin choice (does not switch); a ``decision_source``
        may override the head-of-queue pick among the runnable set."""
        while self._runnable:
            task = next(iter(self._runnable))
            if task.state is TaskState.RUNNABLE:
                break
            del self._runnable[task]
        if not self._runnable:
            return None
        if self.decision_source is not None:
            candidates = [task for task in self._runnable
                          if task.state is TaskState.RUNNABLE]
            chosen = self.decision_source(candidates)
            if chosen is not None:
                return chosen
        return next(iter(self._runnable))

    def queued_tasks(self) -> list:
        """Every task currently sitting in the run queue (audit hook)."""
        return list(self._runnable)

    def yield_current(self) -> Optional[Task]:
        """Voluntarily yield: switch to the next runnable task, if any."""
        task = self.pick_next()
        if task is not None:
            self.switch_to(task)
        return task

    @property
    def runnable_count(self) -> int:
        return sum(
            1 for task in self._runnable if task.state is TaskState.RUNNABLE
        )
