"""CPU core model.

Cores matter to the reproduction in two ways: (1) each running task owns
a capability register file whose contents μFork must relocate at fork
(§3.5), and (2) the concurrency experiments (Figs 6 and 7) schedule work
across a small number of cores.  The :class:`Core` here is the
bookkeeping for (1); the schedule models for (2) live in
:mod:`repro.sim`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.cheri.regfile import RegisterFile
from repro.hw.tlb import TLB


class Core:
    """One hardware thread."""

    def __init__(self, machine: Any, core_id: int) -> None:
        self.machine = machine
        self.core_id = core_id
        #: the task (OS-defined object) currently running on this core
        self.current_task: Optional[Any] = None
        self.domain_switches = 0
        #: this core's private TLB (cross-core invalidation goes
        #: through the shootdown protocol, :mod:`repro.smp.ipi`)
        self.tlb = TLB(machine, cpu_id=core_id)
        #: per-CPU schedule timeline (ns), maintained by
        #: :class:`repro.smp.exec.SmpExecutor`
        self.local_ns: float = 0.0
        self.busy_ns: float = 0.0
        self.idle_ns: float = 0.0
        self.steps = 0

    def switch_to(self, task: Any, same_address_space: bool) -> None:
        """Context switch, charging the appropriate cost.

        A SASOS switch stays in one address space (no TLB flush); the
        monolithic OS must also flush (charged separately by its
        scheduler via :class:`repro.hw.tlb.TLB`).
        """
        costs = self.machine.costs
        if same_address_space:
            self.machine.clock.advance(costs.context_switch_sas_ns, "ctx_switch")
        else:
            self.machine.clock.advance(costs.context_switch_mas_ns, "ctx_switch")
        self.machine.emit(counter="context_switch")
        self.domain_switches += 1
        self.current_task = task

    @property
    def registers(self) -> RegisterFile:
        """Register file of the current task (tasks own their registers)."""
        if self.current_task is None:
            raise RuntimeError(f"core {self.core_id} is idle")
        return self.current_task.registers
