"""VMCloneOS: the Nephele-like "OS-as-a-process" baseline.

Nephele (EuroSys '23) supports fork in a unikernel by treating the
whole VM as the process: the hypervisor clones the entire guest — a new
Xen domain is created, guest memory is duplicated, devices reattached.
That makes fork correct but heavy: the paper measures 10.7 ms per fork
and 1.6 MB per minimal process (Fig 8), orders of magnitude above
μFork.

Mechanistic model: each process is a VM whose address space contains
the program image *plus the unikernel kernel pages* (everything gets
cloned); fork pays a fixed domain-creation cost, hypercalls, and a
per-page duplication cost over the whole guest.

Like Iso-Unik, this is one of Table 1's multi-address-space designs, so
it is a :class:`~repro.baselines.monolithic.MonolithicOS` (the family
is ``AbstractOS`` → ``UForkOS``, and ``AbstractOS`` → ``MonolithicOS``
→ ``IsoUnikOS``, ``VMCloneOS``): spawn (and its undo), teardown and the
memory metrics are the monolithic kernel's.
What is Nephele's own: images load at :data:`GUEST_BASE` with the guest
kernel's pages where a process would map libraries, the region
capability keeps ``SYSTEM`` (the guest kernel runs in the VM), fork
clones the VM instead of copying the page table (no fork lock, no CoW,
no shootdown), exit pays extra hypercalls, and there is no shared
memory between VMs.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.monolithic import MonolithicOS, _va_pages
from repro.cheri.capability import Capability, Perm
from repro.core.relocate import _charge_each
from repro.errors import InvalidArgument
from repro.hw.paging import AddressSpace, PagePerm
from repro.hw.phys import consecutive_runs
from repro.kernel.base import SharedMemoryObject
from repro.kernel.syscalls import IsolationConfig
from repro.kernel.task import Process
from repro.machine import Machine
from repro.mem.layout import KiB, MiB

#: guest VA where the unikernel image is loaded in every VM
GUEST_BASE = 0x0000_0000_0040_0000

#: unikernel kernel image + runtime state cloned with every VM
GUEST_KERNEL_BYTES = int(1.4 * MiB)


class VMCloneOS(MonolithicOS):
    """Nephele-like hypervisor-fork baseline."""

    kind = "nephele"

    #: per-domain hypervisor bookkeeping (domain struct, grant tables)
    KERNEL_PROC_OVERHEAD = 64 * KiB
    IMAGE_BASE = GUEST_BASE
    SPACE_PREFIX = "vm"
    REGION_DROPS = Perm.SEAL | Perm.UNSEAL
    #: a clone owns private copies of every page: nothing to break
    COW_FAULTS = False

    def __init__(self, machine: Optional[Machine] = None,
                 isolation: Optional[IsolationConfig] = None) -> None:
        super().__init__(
            machine=machine,
            isolation=isolation or IsolationConfig.fault(),
            # the guest is a unikernel: same-EL, cheap internal syscalls
            trapless_syscalls=True,
        )

    def _map_runtime(self, space: AddressSpace, base: int) -> int:
        """The unikernel's own pages — cloned along with the app."""
        machine = self.machine
        page = machine.config.page_size
        pages = (GUEST_KERNEL_BYTES + page - 1) // page
        vpn = base // page
        space.map_run(vpn, machine.phys.alloc_run(pages), PagePerm.rwc())
        return (vpn + pages) * page

    # ------------------------------------------------------------------
    # fork = clone the whole VM in the hypervisor
    # ------------------------------------------------------------------

    def fork(self, proc: Process) -> Process:
        """Clone the whole VM.  Observability: phases run inside
        ``domain_create`` / ``clone_pages`` / ``registers`` /
        ``allocator`` spans under the caller's ``syscall.fork`` span."""
        machine = self.machine
        costs = machine.costs
        obs = machine.obs
        with obs.span("domain_create"):
            # domain creation: the dominant, size-independent cost
            machine.charge(costs.vm_clone_fixed_ns, "vm_clone_fixed")
            # a handful of hypercalls for console/device/grant plumbing
            for _ in range(6):
                machine.charge(costs.hypercall_ns, "hypercall")

        child = self._fork_child(proc)
        child.space = self._new_space(f"{proc.name}-{child.pid}")
        with obs.span("clone_pages"):
            try:
                self._clone_pages(proc.space, child.space)
            except Exception:
                # a frame copy failed: the clone's copies are already
                # freed; drop the child's fd references and its entry
                child.fdtable.close_all()
                proc.children.remove(child)
                raise

        # same guest VA in the clone: registers copy verbatim
        task = child.add_task()
        with obs.span("registers"):
            task.registers.copy_from(proc.main_task().registers)

        self._fork_allocator(proc, child)

        self._publish(child, "fork", proc.pid, "vmclone")
        machine.emit(counter="fork", metric="baselines.vmclone.forks")
        return child

    def _clone_pages(self, parent: AddressSpace,
                     child: AddressSpace) -> None:
        """Fork's ``clone_pages`` phase: every guest frame copied (tags
        included) by one ``copy_frames`` and mapped into ``child`` at
        the same vpn and permissions, in ``map_run`` runs.  Charges one
        ``vm_clone_page_ns`` per page up to and including the first
        whose copy fails, as cloning page by page does; on that failure
        ``copy_frames`` frees the copies before raising, so nothing is
        mapped or leaked."""
        machine = self.machine
        phys = machine.phys
        items = parent.mapped_items(0, _va_pages(machine))
        srcs = [item[1] for item in items]
        _charge_each(machine, machine.costs.vm_clone_page_ns,
                     min(phys.alloc_budget(len(srcs)) + 1, len(srcs)),
                     "vm_clone_page")
        copies = phys.copy_frames(srcs, preserve_tags=True, charge=False)
        vpns = [item[0] for item in items]
        perms = [item[2] for item in items]
        for start, end in consecutive_runs(vpns, perms):
            child.map_run(vpns[start], copies[start:end],
                          PagePerm(perms[start]))

    # ------------------------------------------------------------------
    # Exit and shared memory
    # ------------------------------------------------------------------

    def _teardown_memory(self, proc: Process) -> None:
        # destroying the domain is hypervisor work
        self.machine.charge(self.machine.costs.hypercall_ns * 4, "exit")
        super()._teardown_memory(proc)

    def _map_shared(self, proc: Process, shm: SharedMemoryObject) -> Capability:
        raise InvalidArgument("shared memory not supported by this OS")
