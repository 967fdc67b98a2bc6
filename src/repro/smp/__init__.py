"""repro.smp: the simulated multi-core machine.

Turns the single-CPU machine into an N-core SMP simulator:

* :mod:`repro.smp.ipi` — an explicit inter-processor-interrupt bus and
  the ack-based cross-core TLB-shootdown protocol whose cost scales
  with the number of online CPUs (the f(N) term the paper's
  lightweightness argument hinges on, §2.2);
* :mod:`repro.smp.locks` — the minimal kernel locking discipline
  (spinlocks + IRQ-disable guards) serializing fork, CoW fault
  handling, and the fd table;
* :mod:`repro.smp.sched` — the scheduler every machine boots: per-CPU
  run queues with CPU-affinity masks and a deterministic work-stealing
  load balancer;
* :mod:`repro.smp.exec` — the per-CPU-timeline executor that runs
  synchronous driver code as a parallel schedule;
* :mod:`repro.smp.runner` — the FaaS / nginx-workers scaling workloads
  behind ``python -m repro.harness smp`` (imports the full OS stack,
  so it is intentionally *not* re-exported here).

The SMP machinery is inert on a 1-CPU machine: ``Machine()`` defaults
to ``num_cpus=1``, where spinlocks charge nothing, no IPI is ever sent,
every shootdown has zero recipients and the scheduler's one queue is
never stolen from — existing goldens stay bit-identical.
"""

from repro.smp.exec import SmpExecutor
from repro.smp.ipi import IpiBus, tlb_shootdown
from repro.smp.locks import IrqGuard, KernelLocks, SpinLock
from repro.smp.sched import SmpScheduler

__all__ = [
    "IpiBus",
    "IrqGuard",
    "KernelLocks",
    "SmpExecutor",
    "SmpScheduler",
    "SpinLock",
    "tlb_shootdown",
]
