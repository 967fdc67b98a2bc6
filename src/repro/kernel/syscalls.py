"""The syscall entry layer with parameterized isolation (§3.6, §4.4).

Three deployment points, matching the paper's threat-model discussion:

* ``NONE`` — the whole system is trusted to function correctly (the
  Redis-snapshot trust model): no argument validation, no TOCTTOU
  copies.
* ``FAULT`` — non-adversarial fault isolation (the Nginx trust model):
  capability/memory checks on syscall arguments, but no TOCTTOU
  double-copies.
* ``FULL`` — adversarial isolation (the qmail/privilege-separation
  trust model): argument validation *and* TOCTTOU protection — user
  buffers are copied into kernel memory before checking and back after
  (§4.4 principle 4).

The entry mechanism itself is also parameterized: the SASOS enters the
kernel through a **sealed-capability sentry** (no trap); the monolithic
baseline pays a trap.  Both costs come from the machine's cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro import events
from repro.cheri.capability import Capability, OTYPE_SENTRY, OTYPE_UNSEALED
from repro.errors import BadAddress, IsolationViolation


class IsolationLevel(Enum):
    NONE = "none"
    FAULT = "fault"
    FULL = "full"


@dataclass(frozen=True)
class IsolationConfig:
    """Which isolation mechanisms a deployment enables (R4)."""

    level: IsolationLevel
    validate_args: bool
    tocttou: bool

    @classmethod
    def none(cls) -> "IsolationConfig":
        return cls(IsolationLevel.NONE, validate_args=False, tocttou=False)

    @classmethod
    def fault(cls) -> "IsolationConfig":
        return cls(IsolationLevel.FAULT, validate_args=True, tocttou=False)

    @classmethod
    def full(cls) -> "IsolationConfig":
        return cls(IsolationLevel.FULL, validate_args=True, tocttou=True)

    @classmethod
    def from_level(cls, level: IsolationLevel) -> "IsolationConfig":
        return {
            IsolationLevel.NONE: cls.none,
            IsolationLevel.FAULT: cls.fault,
            IsolationLevel.FULL: cls.full,
        }[level]()


#: ``(ns, bucket)`` charges, rounded as :meth:`SimClock.advance` rounds
Charges = Tuple[Tuple[int, str], ...]

_SYSCALL_SLOT = events.SYSCALL.slot


class EntryPlan:
    """One syscall name's entry on one kernel, built on first dispatch.

    It holds the handler (the class function, so the plan holds no
    reference back to the kernel), the ``syscall.<name>`` span label,
    the ``SYSCALL_NAMED[name]`` event and the charges of each call
    shape seen: per ``nargs`` the entry and validation charges, and
    per ``(nargs, buffer sizes)`` those followed by each buffer's
    TOCTTOU setup and copy charges under FULL isolation.  Caching the
    charges is sound because the cost model and the isolation config
    are frozen and fixed per :class:`SyscallLayer`.
    """

    __slots__ = ("handler", "span_label", "named", "charges")

    def __init__(self, handler: Callable[..., Any], name: str) -> None:
        self.handler = handler
        self.span_label = f"syscall.{name}"
        self.named = events.SYSCALL_NAMED[name]
        #: call shape -> the charges :meth:`SyscallLayer.enter` makes
        self.charges: Dict[Any, Charges] = {}


class SyscallLayer:
    """Charges entry, validation and TOCTTOU costs per syscall."""

    def __init__(self, machine: Any, trapless: bool,
                 isolation: IsolationConfig) -> None:
        self.machine = machine
        self.trapless = trapless
        self.isolation = isolation
        #: syscall name -> :class:`EntryPlan`, filled by the kernel's
        #: dispatch (:meth:`repro.kernel.base.AbstractOS.syscall`)
        self.plans: Dict[str, EntryPlan] = {}

    def enter(self, name: str, nargs: int = 0,
              buffer_bytes: Sequence[int] = ()) -> None:
        """Account one syscall: entry + checks + TOCTTOU copies.

        ``buffer_bytes`` lists the sizes of user buffers passed by
        reference (each is double-copied under TOCTTOU protection).

        A planned name with chaos and the tracer off takes one branch:
        the charges planned for this call shape in one clock call, then
        the two counter bumps (the two emits and the TOCTTOU copy count
        while obs is on), in the order and with the amounts of the
        general path below.

        Chaos: the ``kernel.syscall.{eintr,enomem,eagain}`` points fire
        here, *before any handler work* — every handler calls ``enter``
        as its first statement, so an injected entry fault leaves no
        partial state and the dispatch layer's bounded retry
        (:func:`repro.chaos.retry_syscall`) can safely re-run it.
        """
        machine = self.machine
        plan = self.plans.get(name)
        if (plan is not None and not machine.chaos.enabled
                and machine.sink.tracer is None):
            copies = buffer_bytes and self.isolation.tocttou
            key = (nargs, tuple(buffer_bytes)) if copies else nargs
            charges = plan.charges.get(key) or self._plan_charges(
                plan, key, nargs, buffer_bytes)
            if charges:
                machine.clock.advance_planned(charges)
                if machine.obs.enabled:
                    machine.emit(events.SYSCALL)
                    machine.emit(plan.named)
                    if copies:
                        machine.emit(events.TOCTTOU_COPIES,
                                     len(buffer_bytes))
                    return
                values = machine.counters.values
                values[_SYSCALL_SLOT] = values.get(_SYSCALL_SLOT, 0) + 1
                slot = plan.named.slot
                values[slot] = values.get(slot, 0) + 1
                return
        chaos = machine.chaos
        if chaos.enabled:
            fault = chaos.syscall_fault(name)
            if fault is not None:
                try:
                    raise fault
                finally:
                    # unbound, or this frame and the fault's traceback
                    # (which holds the frame) would form a cycle
                    del fault
        for ns, bucket in self._entry_charges(nargs, buffer_bytes):
            machine.charge(ns, bucket)
        emit = machine.emit
        emit(events.SYSCALL, name=name)
        emit(events.SYSCALL_NAMED[name])
        if self.isolation.tocttou and buffer_bytes:
            emit(events.TOCTTOU_COPIES, len(buffer_bytes))

    def _entry_charges(self, nargs: int, buffer_bytes: Sequence[int]
                       ) -> List[Tuple[float, str]]:
        """The entry charge, at FAULT isolation and above the
        validation charge for ``nargs`` arguments, and under TOCTTOU
        protection each buffer's setup and copy charges (a copy is
        capped at ``tocttou_max_copy_bytes``), as ``(ns, bucket)`` in
        the order they are made."""
        costs = self.machine.costs
        charges = [(costs.sealed_syscall_ns if self.trapless
                    else costs.trap_syscall_ns, "syscall_entry")]
        if self.isolation.validate_args and nargs:
            charges.append((costs.syscall_validate_ns * nargs,
                            "syscall_validate"))
        if self.isolation.tocttou:
            for size in buffer_bytes:
                copied = min(size, costs.tocttou_max_copy_bytes)
                charges.append((costs.tocttou_setup_ns, "tocttou"))
                charges.append((costs.tocttou_copy_ns_per_byte * 2 * copied,
                                "tocttou"))
        return charges

    def _plan_charges(self, plan: EntryPlan, key: Any, nargs: int,
                      buffer_bytes: Sequence[int]) -> Charges:
        """Record under ``key`` and return ``plan``'s rounded charges
        for a call with ``nargs`` arguments and ``buffer_bytes``; none
        when the clock would refuse one (a negative cost), so that the
        general path raises as it always has."""
        charges = self._entry_charges(nargs, buffer_bytes)
        if any(ns < 0 for ns, _bucket in charges):
            return ()
        planned = plan.charges[key] = tuple(
            (int(round(ns)), bucket) for ns, bucket in charges)
        return planned

    # -- argument validation helpers -------------------------------------------

    def validate_user_cap(self, proc: Any, cap: Capability,
                          size: int) -> None:
        """Reject user pointers outside the caller's region (EFAULT).

        Only active at FAULT isolation and above; at NONE the kernel
        trusts its callers (the deployment opted out, §4.4).
        """
        if not self.isolation.validate_args:
            return
        if not isinstance(cap, Capability) or not cap.valid:
            raise BadAddress("invalid capability passed to kernel")
        if cap.otype != OTYPE_UNSEALED:
            raise BadAddress("sealed capability passed to kernel")
        cursor = cap.cursor
        region_top = proc.region_top
        if region_top and not (proc.region_base <= cursor and
                               cursor + size <= region_top):
            raise BadAddress(
                f"user buffer [{cursor:#x}+{size:#x}) outside "
                f"μprocess region"
            )
        if not (cap.base <= cursor and cursor + size <= cap.base + cap.length):
            raise BadAddress("buffer exceeds capability bounds")


def check_syscall_gate(proc: Any, gate: Capability) -> None:
    """Verify kernel entry is via the process's sealed sentry capability.

    "Sealed capabilities restrict kernel entry points and there is no
    other way for a μprocess to invoke kernel code" (§4.4, principle 1).
    """
    expected = getattr(proc, "syscall_gate", None)
    if expected is None:
        raise IsolationViolation("process has no syscall gate")
    if not isinstance(gate, Capability) or not gate.valid:
        raise IsolationViolation("kernel entry with invalid capability")
    if not gate.is_sentry or gate.otype != OTYPE_SENTRY:
        raise IsolationViolation("kernel entry not through a sentry")
    if (gate.base, gate.length, gate.cursor) != (
            expected.base, expected.length, expected.cursor):
        raise IsolationViolation("kernel entry at unauthorized location")
