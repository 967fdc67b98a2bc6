"""μFork isolation mechanisms (paper §3.6, §4.3, §4.4).

Builds the CHERI-specific pieces on top of the generic syscall layer:

* **sealed syscall gates** — sentry capabilities that are the only way
  into the kernel, giving trapless (fast) entry with restricted entry
  points;
* **privileged-instruction confinement** — μprocess capabilities never
  carry the SYSTEM permission, so MSR/MRS-class operations fault;
* **capability assignment** — deriving each μprocess's bounded root
  capabilities from the kernel's root so no μprocess can reach outside
  its region.
"""

from __future__ import annotations

from typing import Any

from repro.cheri.capability import Capability, OTYPE_SENTRY, Perm
from repro.errors import PrivilegeViolation

# Re-exported so `repro.core` exposes the paper's parameterized
# isolation next to the copy strategies.
from repro.kernel.syscalls import IsolationConfig, IsolationLevel  # noqa: F401


def make_syscall_gate(kernel_code_cap: Capability,
                      gate_addr: int) -> Capability:
    """Create the sealed sentry capability for kernel entry.

    The gate targets the fixed syscall-handler address; sealing makes it
    unforgeable and unmodifiable — invoking it is the only way a
    μprocess can transfer control into the kernel (§4.4 principle 1).
    """
    gate = (
        kernel_code_cap
        .set_bounds(gate_addr, 16)
        .with_cursor(gate_addr)
        .and_perms(Perm.LOAD | Perm.EXECUTE | Perm.GLOBAL)
    )
    return gate.sealed(OTYPE_SENTRY)


def derive_uprocess_roots(kernel_root: Capability, region_base: int,
                          region_size: int,
                          drops: Perm = Perm.SYSTEM | Perm.SEAL | Perm.UNSEAL
                          ) -> Capability:
    """Derive a process's region capability from the kernel root.

    The result is bounded to the process's contiguous area and lacks
    ``drops`` — by default no SYSTEM permission, the key security
    invariant of §4.2 (a VM clone's guest kernel keeps SYSTEM).
    """
    region = kernel_root.set_bounds(region_base, region_size)
    return region.without_perms(drops).with_cursor(region_base)


def check_privileged(cap: Capability, operation: str = "msr") -> None:
    """Gate privileged (system-register) operations on the SYSTEM
    permission (§4.4 principle 2).

    The kernel's capabilities carry SYSTEM; μprocess capabilities never
    do, so user code attempting e.g. ``MSR``/``MRS`` faults without any
    need for instruction scanning.
    """
    if not cap.valid or not cap.has_perm(Perm.SYSTEM):
        raise PrivilegeViolation(
            f"privileged operation {operation!r} without SYSTEM permission"
        )
