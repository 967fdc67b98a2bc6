"""A minimal TLB cost model.

The reproduction does not simulate TLB *contents*; what matters for the
paper's lightweightness argument (§2.2) is the *cost* of TLB shootdowns
and flushes that multi-address-space OSes pay on every context switch —
and that the single-address-space design avoids entirely.
"""

from __future__ import annotations

from typing import Any

from repro import events


class TLB:
    """Tracks flushes and charges their cost to the simulated clock.

    Each CPU core owns a *private* TLB (``machine.cores[i].tlb``);
    ``machine.tlb`` aliases CPU 0's instance, so single-CPU call sites
    keep their historical behavior.  Cross-core invalidation goes
    through the ack-based shootdown protocol in :mod:`repro.smp.ipi`,
    whose broadcast cost is **per recipient** — see
    :meth:`~repro.params.CostModel.shootdown_ns`.
    """

    def __init__(self, machine: Any, cpu_id: int = 0) -> None:
        self._machine = machine
        self.cpu_id = cpu_id
        self.flush_count = 0

    def flush(self) -> None:
        """Full flush — paid by the monolithic OS on address-space switch.

        Observable as the ``hw.tlb.flush`` counter.  Under chaos the
        ``hw.tlb.shootdown_loss`` point models a lost shootdown IPI:
        the ack timeout detects it and the flush is re-issued (paid
        again), so correctness never depends on the first IPI landing.
        """
        self._do_flush()
        machine = self._machine
        if machine.chaos.enabled and \
                machine.chaos.should_fire("hw.tlb.shootdown_loss"):
            self._do_flush()
            machine.chaos.note_recovery("hw.tlb.shootdown_loss")

    def _do_flush(self) -> None:
        self.flush_count += 1
        self._machine.translation_gen += 1
        self._machine.clock.advance(self._machine.costs.tlb_flush_ns, "tlb_flush")
        self._machine.emit(events.TLB_FLUSH)

    def remote_invalidate(self) -> None:
        """Shootdown recipient side: invalidate stale translations in
        response to a ``tlb_shootdown`` IPI.  Charged once per
        recipient — this is the f(online CPUs) term of the broadcast
        cost formula (docs/COSTMODEL.md).  Also bumps the machine's
        translation generation, which drops every host-side page-walk
        cache (see :meth:`repro.hw.paging.AddressSpace.resolve`)
        exactly as the simulated invalidation would on hardware."""
        self.flush_count += 1
        machine = self._machine
        machine.translation_gen += 1
        machine.clock.advance(machine.costs.tlb_flush_ns, "tlb_shootdown")
        machine.emit(events.TLB_REMOTE_INVALIDATE)
