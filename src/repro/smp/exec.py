"""The SMP executor: a parallel schedule for synchronous driver code.

The reproduction's drivers (the zygote loop, nginx workers) are plain
synchronous Python, and every kernel primitive charges the one global
:class:`~repro.clock.SimClock`.  The executor layers a *two-level time
model* on top:

* **mechanism time** stays on the global clock — fork phases, faults,
  IPIs, syscalls all charge exactly what they always did;
* **schedule time** lives on per-CPU ``local_ns`` timelines: each
  driver step runs under a stopwatch, and the elapsed mechanism time is
  charged to the executing CPU's timeline.  The run's *makespan* is
  the maximum timeline — which is how N CPUs chewing independent steps
  finish in ~1/N the simulated wall time while every individual cost
  stays identical.

Dispatch is greedy deterministic list scheduling: the CPU with the
earliest local time bids first (lowest id breaks ties), asks the
scheduler for work (local queue, then stealing), and runs one bound
step to completion.  A step may return a number of nanoseconds of
device wait (I/O overlap): that portion holds the *task* but not the
CPU, which is what makes extra nginx workers help even on one core.

Steps re-submitted while running become ready when the submitting step
retires — a forked child cannot start before its fork returned.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

#: a driver step: runs guest/kernel code, optionally returns ns of
#: device wait to overlap (None/0 = pure CPU)
Step = Callable[[], Optional[float]]


class SmpExecutor:
    """Run bound task steps across the machine's online CPUs."""

    def __init__(self, os_: Any) -> None:
        self.os = os_
        self.machine = os_.machine
        self.sched = os_.sched
        self._steps: Dict[int, Step] = {}
        self._ready: Dict[int, float] = {}
        self._in_step = False
        self._submitted_in_step: List[int] = []
        self.steps_run = 0
        self.makespan_ns = 0.0

    # -- driver API ------------------------------------------------------

    def submit(self, task: Any, step: Step,
               ready_ns: Optional[float] = None) -> None:
        """Bind ``step`` to ``task`` and enqueue it.

        Called mid-step (a fork handing out child work, a worker
        re-arming itself), the new step becomes ready when the current
        step retires; otherwise at ``ready_ns`` (default: immediately).
        """
        self._steps[task.tid] = step
        if ready_ns is not None:
            self._ready[task.tid] = float(ready_ns)
        elif self._in_step:
            self._submitted_in_step.append(task.tid)
        self.os.sched.add(task)

    def run(self) -> float:
        """Drain every bound step; returns the makespan in ns."""
        machine = self.machine
        cpus = machine.cpus
        while True:
            progressed = False
            for cpu in sorted(cpus, key=lambda c: (c.local_ns, c.core_id)):
                task = self._pick(cpu.core_id)
                if task is None:
                    continue
                self._run_step(cpu, task)
                progressed = True
                break
            if not progressed:
                break
        self.makespan_ns = max((cpu.local_ns for cpu in cpus), default=0.0)
        return self.makespan_ns

    # -- internals -------------------------------------------------------

    def _pick(self, cpu: int) -> Optional[Any]:
        """Next bound task for ``cpu``; unbound tasks (kernel-enqueued
        but never given a driver step) are dropped from the queues so
        they cannot stall the run."""
        while True:
            task = self.sched.pick_for_cpu(cpu)
            if task is None:
                return None
            if task.tid in self._steps:
                return task
            self.sched.remove(task)

    def _run_step(self, cpu: Any, task: Any) -> None:
        machine = self.machine
        start = max(cpu.local_ns, self._ready.pop(task.tid, 0.0))
        if start > cpu.local_ns:
            cpu.idle_ns += start - cpu.local_ns
        step = self._steps.pop(task.tid)
        previous_cpu = machine.current_cpu
        machine.current_cpu = cpu.core_id
        self.sched.switch_to(task, cpu=cpu.core_id)
        self._in_step = True
        try:
            with machine.clock.measure() as watch:
                result = step()
        finally:
            self._in_step = False
            machine.current_cpu = previous_cpu
        elapsed = float(watch.elapsed_ns)
        io_ns = float(result) if isinstance(result, (int, float)) else 0.0
        io_ns = min(max(io_ns, 0.0), elapsed)
        busy = elapsed - io_ns
        end = start + elapsed
        cpu.local_ns = start + busy
        cpu.busy_ns += busy
        cpu.steps += 1
        self.steps_run += 1
        # work handed out during the step starts once the step retired;
        # a self-re-submitting task also waits out its own device time
        for tid in self._submitted_in_step:
            self._ready[tid] = end
        self._submitted_in_step.clear()

    # -- metrics ---------------------------------------------------------

    def export_cpu_metrics(self) -> None:
        """Publish per-CPU timeline gauges into the machine's obs
        registry (``smp.cpu<i>.busy_ns`` / ``idle_ns`` / ``steps``)."""
        obs = self.machine.obs
        if not obs.enabled:
            return
        for cpu in self.machine.cpus:
            prefix = f"smp.cpu{cpu.core_id}"
            obs.gauge_set(f"{prefix}.busy_ns", int(cpu.busy_ns))
            obs.gauge_set(f"{prefix}.idle_ns", int(cpu.idle_ns))
            obs.gauge_set(f"{prefix}.steps", cpu.steps)
