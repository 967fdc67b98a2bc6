"""The minimal kernel locking discipline for the SMP machine.

The simulator executes kernel code synchronously, so these locks never
*spin*; what they provide is the **discipline**: every cross-CPU-shared
kernel structure (the process tree touched by fork, the fault-handling
path that flips PTE permissions, the fd table) is entered only under
its lock, double-acquisition fails loudly (it would deadlock a real
non-reentrant spinlock), and each acquisition charges the exclusive
cacheline transfer a real spinlock costs.

On a 1-CPU machine every operation here is a free no-op — the moral
equivalent of ``CONFIG_SMP=n`` compiling spinlocks away — which keeps
all pre-SMP goldens bit-identical.
"""

from __future__ import annotations

from typing import Any, Optional


class _HeldGuard:
    """Preallocated ``held()`` guard: acquire, then an IRQ-disable
    section, undone in reverse order even on the exception path, with
    no generator + wrapper object per critical section.  The guard is
    stateless, so one instance per lock is safe."""

    __slots__ = ("lock",)

    def __init__(self, lock: "SpinLock") -> None:
        self.lock = lock

    def __enter__(self) -> None:
        self.lock.acquire()
        self.lock.machine.irq_depth += 1

    def __exit__(self, *exc: Any) -> None:
        self.lock.machine.irq_depth -= 1
        self.lock.release()


class SpinLock:
    """A named, non-reentrant kernel spinlock.

    Observable as ``smp.lock.<name>.acquire`` counters; acquisition
    charges ``spinlock_ns`` to the ``spinlock`` clock bucket.
    """

    def __init__(self, machine: Any, name: str) -> None:
        self.machine = machine
        self.name = name
        #: CPU id of the holder, or None when free
        self.owner: Optional[int] = None
        self.acquisitions = 0
        self._guard = _HeldGuard(self)

    def acquire(self) -> None:
        machine = self.machine
        if machine.num_cpus <= 1:
            return
        if self.owner is not None:
            raise AssertionError(
                f"spinlock {self.name!r} acquired while held by "
                f"cpu{self.owner} — a missing release (or a reentrant "
                f"acquisition, which deadlocks a real spinlock)"
            )
        self.owner = machine.current_cpu
        self.acquisitions += 1
        machine.charge(machine.costs.spinlock_ns, "spinlock")
        machine.emit(metric=f"smp.lock.{self.name}.acquire")

    def release(self) -> None:
        if self.machine.num_cpus <= 1:
            return
        if self.owner is None:
            raise AssertionError(
                f"spinlock {self.name!r} released while not held")
        self.owner = None

    def held(self) -> Any:
        """``spin_lock_irqsave``-style guard: the lock plus an
        IRQ-disable section, released even on the error path."""
        return self._guard


class IrqGuard:
    """IRQ-disable guard for critical sections entered without a lock.

    While any guard is active ``machine.irq_depth > 0``; the SMP
    scheduler refuses to context-switch inside one ("scheduling while
    atomic"), which is the discipline check that proves fork and fault
    handling never interleave with a migration mid-critical-section.
    """

    def __init__(self, machine: Any) -> None:
        self.machine = machine

    def __enter__(self) -> "IrqGuard":
        self.machine.irq_depth += 1
        return self

    def __exit__(self, *exc: Any) -> None:
        self.machine.irq_depth -= 1


class KernelLocks:
    """The kernel's lock set: one lock per serialized subsystem.

    * ``fork`` — the process tree, PID allocation and the VA reservation
      map: one fork (or exit) mutates them at a time;
    * ``fault`` — the CoW/CoA/CoPA break path: two CPUs faulting on the
      same shared page must not both copy its frame;
    * ``fdtable`` — fd-table duplication at fork.
    """

    def __init__(self, machine: Any) -> None:
        self.fork = SpinLock(machine, "fork")
        self.fault = SpinLock(machine, "fault")
        self.fdtable = SpinLock(machine, "fdtable")
