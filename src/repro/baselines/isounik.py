"""IsoUnikOS: an Iso-Unik-like baseline (Table 1's "page-tables" class).

Iso-UniK (Li et al., Cybersecurity 2020) supports multi-process
unikernels by *retrofitting multiple address spaces back into the
SASOS*: each process gets its own page table (with MPK-style domain
protection), and fork duplicates it like a classic kernel.  The paper's
critique (§2.3): this keeps isolation and self-containedness but gives
up the single address space — and with it the cheap context switches —
so it sits between μFork and a full monolithic OS:

* syscalls stay cheap (same-EL unikernel: no trap);
* fork pays per-PTE duplication plus a lighter-than-monolithic fixed
  path;
* context switches between processes flush the TLB again (the
  lightweightness loss the paper calls out);
* statically linked (unikernel): no shared libraries, and no
  revocation-heavy allocator re-touch in children.

Not part of the paper's measured figures (it evaluates CheriBSD and
Nephele); included to cover Table 1's remaining design class and used
by the beyond-paper baseline-spectrum benchmark.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.monolithic import MonolithicOS
from repro.hw.paging import AddressSpace
from repro.kernel.syscalls import IsolationConfig
from repro.machine import Machine


class IsoUnikOS(MonolithicOS):
    """Iso-Unik-like: multiple page tables inside a unikernel."""

    kind = "isounik"

    KERNEL_PROC_OVERHEAD = 64 * 1024
    FORK_FIXED_ATTR = "isounik_fork_fixed_ns"
    #: unikernel allocator: no post-fork arena re-touching
    allocator_child_touch_fraction = 0.0

    def __init__(self, machine: Optional[Machine] = None,
                 isolation: Optional[IsolationConfig] = None) -> None:
        super().__init__(
            machine=machine,
            isolation=isolation or IsolationConfig.fault(),
            trapless_syscalls=True,
        )

    def _map_runtime(self, space: AddressSpace, base: int) -> int:
        """Statically linked: nothing above the image."""
        return base
