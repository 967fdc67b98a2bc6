"""Exception hierarchy for the μFork reproduction.

Faults are modeled as Python exceptions.  Hardware-level faults
(:class:`CapabilityFault`, :class:`PageFaultError`) are normally caught
and handled by the simulated kernel (e.g. a copy-on-write fault handler);
if one escapes to application code it indicates a genuine isolation
violation, exactly as a SIGSEGV would on real hardware.
"""

from __future__ import annotations


class SimError(Exception):
    """Base class for every error raised by the simulator."""


# ---------------------------------------------------------------------------
# Hardware / capability faults
# ---------------------------------------------------------------------------

class CapabilityFault(SimError):
    """A CHERI capability check failed at dereference or manipulation time."""


class TagFault(CapabilityFault):
    """Attempted to use a capability whose validity tag is cleared."""


class BoundsFault(CapabilityFault):
    """Access outside the [base, base+length) bounds of a capability."""


class PermissionFault(CapabilityFault):
    """Capability lacks the permission required for the operation."""


class SealFault(CapabilityFault):
    """A sealed capability was used where an unsealed one is required,
    or unsealing was attempted with the wrong object type."""


class MonotonicityFault(CapabilityFault):
    """Attempt to *increase* a capability's bounds or permissions."""


class AlignmentFault(CapabilityFault):
    """Capability store/load at an address not aligned to the granule."""


# ---------------------------------------------------------------------------
# MMU faults
# ---------------------------------------------------------------------------

class PageFaultError(SimError):
    """A page-level fault that no handler resolved.

    The paging layer first offers faults to the owning OS's registered
    handlers (that is how CoW / CoA / CoPA are implemented); only
    unresolvable faults surface as this exception.
    """

    def __init__(self, vaddr: int, access: str, reason: str) -> None:
        super().__init__(f"page fault at {vaddr:#x} ({access}): {reason}")
        self.vaddr = vaddr
        self.access = access
        self.reason = reason


class UnmappedAddressError(PageFaultError):
    """Access to a virtual page with no page-table entry."""

    def __init__(self, vaddr: int, access: str) -> None:
        super().__init__(vaddr, access, "unmapped")


class ProtectionError(PageFaultError):
    """Access denied by page permissions and not resolved by any handler."""

    def __init__(self, vaddr: int, access: str) -> None:
        super().__init__(vaddr, access, "protection")


# ---------------------------------------------------------------------------
# Isolation / security
# ---------------------------------------------------------------------------

class IsolationViolation(SimError):
    """User code attempted something the isolation policy forbids
    (privileged instruction, kernel entry outside a sealed entry point,
    capability leak across μprocesses, ...)."""


class PrivilegeViolation(IsolationViolation):
    """Execution of a privileged (system) operation without the SYSTEM
    capability permission."""


# ---------------------------------------------------------------------------
# Kernel-level errors (roughly errno-shaped)
# ---------------------------------------------------------------------------

class KernelError(SimError):
    """Base class for errors a syscall returns to user code."""

    errno_name = "EINVAL"


class InvalidArgument(KernelError):
    errno_name = "EINVAL"


class BadAddress(KernelError):
    """A user pointer passed to a syscall failed validation (EFAULT)."""

    errno_name = "EFAULT"


class NoSuchProcess(KernelError):
    errno_name = "ESRCH"


class NoChildProcess(KernelError):
    errno_name = "ECHILD"


class OutOfMemory(KernelError):
    errno_name = "ENOMEM"


class OutOfVirtualSpace(OutOfMemory):
    """The single address space has no contiguous area large enough for a
    new μprocess (the fragmentation concern of paper §6)."""

    errno_name = "ENOMEM"


class BadFileDescriptor(KernelError):
    errno_name = "EBADF"


class FileNotFound(KernelError):
    errno_name = "ENOENT"


class FileExists(KernelError):
    errno_name = "EEXIST"


class NotADirectory(KernelError):
    errno_name = "ENOTDIR"


class IsADirectory(KernelError):
    errno_name = "EISDIR"


class BrokenPipe(KernelError):
    errno_name = "EPIPE"


class WouldBlock(KernelError):
    errno_name = "EAGAIN"


class Interrupted(KernelError):
    """A syscall was interrupted before doing any work (EINTR)."""

    errno_name = "EINTR"
