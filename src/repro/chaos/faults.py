"""Injected fault types and the injection-point catalog.

Every fault ``repro.chaos`` can inject is declared here, twice over:

* an **exception type** mixing in :class:`InjectedFault`, so survival
  machinery (the syscall retry loop, the fork transaction) can tell an
  injected fault from a genuine one and never masks real kernel errors;
* an **injection point**: a named, documented place in the stack where
  the engine may fire.  Point names follow the same
  ``layer.component.event`` contract as metric names
  (docs/OBSERVABILITY.md) with the first segment restricted to the
  layer packages that host injection sites — which is what makes every
  chaos counter (``chaos.injected.<point>``) self-describing.

The catalog is closed: :meth:`ChaosEngine.should_fire` rejects
unregistered names, so a typo at an instrumentation site fails loudly
instead of silently never firing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import Interrupted, KernelError, OutOfMemory, WouldBlock

#: layers that may host injection sites (first name segment)
POINT_LAYERS = ("hw", "kernel", "core", "smp", "sec")


class InjectedFault:
    """Marker mixin for every chaos-injected exception.

    ``retriable`` is True only when the raise site guarantees no kernel
    state was mutated (or a transaction already rolled it back), so the
    syscall layer may safely re-run the handler.
    """

    injected = True
    retriable = False

    @classmethod
    def at(cls, point: str, message: str) -> "InjectedFault":
        """One raised at the abort boundary ``point`` (kept as its
        ``point``).  Raise it straight from the call: a local naming
        it would sit in a frame its own traceback holds, a cycle."""
        fault = cls(message)
        fault.point = point
        return fault


class InjectedInterrupt(Interrupted, InjectedFault):
    """Injected EINTR at syscall entry (before any handler work)."""

    retriable = True


class InjectedWouldBlock(WouldBlock, InjectedFault):
    """Injected EAGAIN at syscall entry."""

    retriable = True


class InjectedSyscallNoMem(OutOfMemory, InjectedFault):
    """Injected ENOMEM at syscall entry (a transient reclaim stall)."""

    retriable = True


class InjectedAllocFailure(OutOfMemory, InjectedFault):
    """Injected frame-allocation exhaustion deep inside a handler.

    Not retriable on its own: the handler may have partial side
    effects.  Paths that roll back (the fork transaction) re-raise it
    as :class:`InjectedForkFailure`, which is.
    """


class InjectedForkFailure(KernelError, InjectedFault):
    """A fork died mid-flight and was fully rolled back (EAGAIN)."""

    errno_name = "EAGAIN"
    retriable = True


class InjectedRestoreFailure(KernelError, InjectedFault):
    """A snapshot restore died mid-flight and was fully rolled back.

    Like :class:`InjectedForkFailure`, the restore transaction releases
    every frame, PTE, PID and fd the partial restore had claimed before
    this is raised, so the caller may simply retry the restore."""

    errno_name = "EAGAIN"
    retriable = True


# ---------------------------------------------------------------------------
# The injection-point catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InjectionPoint:
    """One named place where the engine may fire."""

    name: str
    description: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


INJECTION_POINTS: Dict[str, InjectionPoint] = {}


def check_point_name(name: str) -> str:
    """Validate an injection-point name against the naming contract."""
    from repro.obs import check_metric_name
    check_metric_name(name)
    layer = name.split(".", 1)[0]
    if layer not in POINT_LAYERS:
        raise ValueError(
            f"injection point {name!r} must start with one of "
            f"{POINT_LAYERS} (the layer hosting the site)"
        )
    return name


def register_point(name: str, description: str) -> InjectionPoint:
    """Register an injection point (idempotent for identical entries)."""
    check_point_name(name)
    existing = INJECTION_POINTS.get(name)
    if existing is not None:
        if existing.description != description:
            raise ValueError(f"injection point {name!r} already registered "
                             f"with a different description")
        return existing
    point = InjectionPoint(name, description)
    INJECTION_POINTS[name] = point
    return point


register_point(
    "hw.phys.alloc_fail",
    "frame allocation fails as if physical memory were exhausted "
    "(raises InjectedAllocFailure from PhysicalMemory.alloc)")
register_point(
    "hw.phys.tag_clear",
    "a tag-preserving frame copy spuriously loses its validity tags "
    "(the kernel's verify-after-copy detects it and redoes the copy)")
register_point(
    "hw.tlb.shootdown_loss",
    "a TLB shootdown IPI is lost; the ack timeout re-issues the flush")
register_point(
    "kernel.syscall.eintr",
    "syscall entry is interrupted (EINTR) before the handler runs")
register_point(
    "kernel.syscall.enomem",
    "syscall entry fails with a transient ENOMEM before the handler runs")
register_point(
    "kernel.syscall.eagain",
    "syscall entry fails with a transient EAGAIN before the handler runs")
register_point(
    "kernel.sched.preempt",
    "forced preemption at the kernel boundary: the scheduler switches "
    "to the next runnable task before the handler runs")
register_point(
    "kernel.ipc.short_write",
    "a pipe write transfers only half of the bytes it had room for")
register_point(
    "kernel.net.short_send",
    "a socket send transfers only half of the submitted bytes")
register_point(
    "core.ufork.abort.reserve",
    "fork dies right after reserving the child's VA area")
register_point(
    "core.ufork.abort.copy_pages",
    "fork dies after the page-duplication phase (relocation failure)")
register_point(
    "core.ufork.abort.registers",
    "fork dies after register relocation")
register_point(
    "core.ufork.abort.allocator",
    "fork dies after allocator handoff, just before the child is "
    "published")
register_point(
    "core.snapshot.abort.reserve",
    "restore dies right after reserving the new μprocess's VA area")
register_point(
    "core.snapshot.abort.pages",
    "restore dies after materialising the snapshot's pages")
register_point(
    "core.snapshot.abort.registers",
    "restore dies after re-minting the register file")
register_point(
    "core.snapshot.abort.allocator",
    "restore dies after allocator re-attachment, just before the "
    "restored μprocess is published")
register_point(
    "core.strategies.cap_fault_storm",
    "a CoPA capability-load break is hit by a storm of spurious "
    "repeat faults before it sticks (feeds strategy degradation)")
register_point(
    "smp.ipi.drop",
    "an IPI is dropped in flight; the sender's ack timeout expires and "
    "the interrupt is re-sent (the retry always lands)")
register_point(
    "smp.steal.abort",
    "a work-steal attempt aborts as if the victim queue's lock were "
    "contended; the stealing CPU stays idle this round")
register_point(
    "smp.tlb.stale_storm",
    "a shootdown recipient observes a storm of stale translations and "
    "must invalidate twice before the flush sticks")
register_point(
    "sec.attack.replay",
    "the adversarial guest immediately replays a just-defeated attack; "
    "the second attempt must end in the identical fault")
register_point(
    "sec.attack.bystander_fork",
    "a bystander μprocess forks and exits mid-attack, racing the "
    "attempt against concurrent capability relocation")
register_point(
    "sec.snapshot.bitflip",
    "a tampered snapshot blob takes one extra deterministic payload "
    "bit-flip before the restore attempt")
