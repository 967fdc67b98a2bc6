"""MonolithicOS: the CheriBSD-like multi-address-space baseline.

The paper compares μFork against "a classical POSIX fork on a
CHERI-enabled FreeBSD" (§5).  The behaviours that matter to the
comparison, all modeled mechanistically:

* each process owns an **address space**; fork duplicates the page
  table and marks writable pages copy-on-write, charging
  ``pte_copy_ns`` once per entry (cost scales with mapped pages — the
  Fig 4 growth).  Only the host loop is run-granular: one sweep of the
  parent's mappings, ``map_run``/``protect_run`` per run of equal
  permissions;
* no relocation is ever needed — parent and child share virtual
  addresses — so plain CoW is safe (the child reads shared pages
  freely);
* syscalls **trap** (higher fixed entry cost than sealed-gate entry),
  and context switches across address spaces flush the TLB;
* processes link against **shared libraries**: text pages shared
  machine-wide, plus per-process private pages for relocations/PLT and
  dynamic-linker state (why a minimal CheriBSD process is heavier in
  Fig 8);
* the pure-capability userland **allocator re-touches a fraction of the
  used heap in the child** after fork (arena and revocation-bitmap
  bookkeeping).  The paper itself flags this: a forked Redis child
  consumes 56 MB on CheriBSD vs 7 MB on aarch64 Linux, "likely
  something which can be reduced with further optimization" (§5.1).
  The fraction is a documented calibration knob.
"""

from __future__ import annotations

from typing import Any, List, Optional, Set

from repro import events
from repro.cheri.capability import Capability, Perm
from repro.core.isolation import derive_uprocess_roots
from repro.core.relocate import _charge_each
from repro.core.uprocess import (
    init_image_contents,
    init_registers,
    map_image_segments,
)
from repro.hw.paging import AccessKind, AddressSpace, PagePerm
from repro.hw.phys import consecutive_runs
from repro.kernel.base import AbstractOS
from repro.kernel.syscalls import IsolationConfig
from repro.kernel.task import Process
from repro.machine import Machine
from repro.mem.layout import ProgramImage, SegmentMap

#: every process is loaded at the same base address (no relocation ever)
PROCESS_BASE = 0x0000_0000_0040_0000

#: shared-library text/rodata mapped into every process (libc & friends)
SHARED_LIB_PAGES = 80
#: per-process private library state: GOT/PLT relocations, ld-elf data,
#: locale tables, jemalloc bootstrap arenas
PRIVATE_LIB_PAGES = 28

_WRITE = int(PagePerm.WRITE)


def _va_pages(machine: Machine) -> int:
    """One past the highest vpn of a whole address space."""
    return machine.config.va_size // machine.config.page_size


def handle_cow_fault(space: AddressSpace, vaddr: int,
                     kind: AccessKind) -> bool:
    """Classic copy-on-write fault handler (see :func:`_break_cow`)."""
    if kind is not AccessKind.WRITE:
        return False
    machine = space.machine
    # PTE state is shared between parent and child; on SMP the break
    # runs under the fault spinlock (free at 1 CPU).
    with machine.locks.fault.held():
        if not _break_cow(space, vaddr // machine.config.page_size):
            return False
        machine.emit(events.MONOLITHIC_COW_BREAK)
        return True


def _break_cow(space: AddressSpace, vpn: int, fault: bool = False) -> bool:
    """Classic CoW break (no relocation: same VA both sides): a private,
    tag-preserving copy while the frame is still shared, then write
    access back and the CoW mark cleared.  False when ``vpn`` is not a
    CoW mapping.  ``fault`` charges the write fault first, for a break
    not entered through fault dispatch."""
    found = space.pte(vpn)
    if found is None or not found[2]:
        return False
    frame, perms, _cow = found
    machine = space.machine
    if fault:
        machine.charge(machine.costs.page_fault_ns, "page_fault")
    phys = machine.phys
    if phys.refcount(frame) > 1:
        space.privatize_page(vpn, perms | _WRITE,
                             phys.copy_frame(frame, preserve_tags=True))
        machine.emit(events.COW_PAGE_COPY)
    else:
        space.privatize_page(vpn, perms | _WRITE)
    return True


class MonolithicOS(AbstractOS):
    """CheriBSD-like baseline, and the base of every kernel that gives
    each process an address space of its own (Table 1)."""

    kind = "cheribsd"

    KERNEL_PROC_OVERHEAD = 96 * 1024

    #: fraction of used heap pages the child's allocator re-touches
    #: after fork (see module docstring)
    allocator_child_touch_fraction = 0.55

    #: fixed fork-path cost; subclasses (lighter kernels) may override
    FORK_FIXED_ATTR = "monolithic_fork_fixed_ns"
    #: where every image is loaded, in its own address space
    IMAGE_BASE = PROCESS_BASE
    #: address-space names are ``<prefix>-<process>[-<child pid>]``
    SPACE_PREFIX = "as"
    #: what a process's region capability may not do
    REGION_DROPS = Perm.SYSTEM | Perm.SEAL | Perm.UNSEAL
    #: whether address spaces break copy-on-write on write faults
    COW_FAULTS = True

    def __init__(self, machine: Optional[Machine] = None,
                 isolation: Optional[IsolationConfig] = None,
                 trapless_syscalls: bool = False) -> None:
        super().__init__(
            machine=machine,
            trapless_syscalls=trapless_syscalls,
            isolation=isolation or IsolationConfig.full(),
            same_address_space=False,
        )
        #: shared library frames (allocated on first spawn, refcounted
        #: into every process)
        self._lib_frames: List[int] = []

    # ------------------------------------------------------------------
    # AbstractOS interface
    # ------------------------------------------------------------------

    def space_of(self, proc: Process) -> AddressSpace:
        return proc.space

    def _new_space(self, name: str) -> AddressSpace:
        space = AddressSpace(self.machine, f"{self.SPACE_PREFIX}-{name}")
        if self.COW_FAULTS:
            space.fault_handler = handle_cow_fault
        return space

    def spawn(self, image: ProgramImage, name: str) -> Process:
        machine = self.machine
        space = self._new_space(name)
        layout = SegmentMap(image, self.IMAGE_BASE, machine.config.page_size)
        proc = self._new_process(name, layout)
        proc.space = space

        lib_frames = self._lib_frames
        try:
            map_image_segments(machine, space, layout)
            proc.region_top = self._map_runtime(space, layout.region_top)

            region_cap = derive_uprocess_roots(
                self.kernel_root, proc.region_base, proc.region_size,
                self.REGION_DROPS)
            init_image_contents(machine, space, layout, region_cap)
            self._attach_allocator(proc).format()
        except Exception:
            # the half-built address space goes, and so do the shared
            # library frames if this spawn was the one that filled them
            space.unmap_range(0, _va_pages(machine))
            if self._lib_frames is not lib_frames:
                machine.phys.decref_many(self._lib_frames)
                self._lib_frames = lib_frames
            raise

        init_registers(proc.add_task().registers, layout, region_cap)
        self._publish(proc, "spawn")
        return proc

    def _map_runtime(self, space: AddressSpace, base: int) -> int:
        """Map what every process carries above its image at ``base`` —
        here shared-library text (machine-wide frames) plus private
        library data pages; returns the new region top."""
        machine = self.machine
        page = machine.config.page_size
        if not self._lib_frames:
            self._lib_frames = machine.phys.alloc_run(SHARED_LIB_PAGES)
        vpn = base // page
        space.map_run(vpn, self._lib_frames, PagePerm.rx(), incref=True)
        vpn += len(self._lib_frames)
        space.map_run(vpn, machine.phys.alloc_run(PRIVATE_LIB_PAGES),
                      PagePerm.rwc())
        return (vpn + PRIVATE_LIB_PAGES) * page

    # ------------------------------------------------------------------
    # fork: page-table duplication + classic CoW
    # ------------------------------------------------------------------

    def fork(self, proc: Process) -> Process:
        """Classic fork: duplicate the page table entry-by-entry and
        mark writable pages CoW.  Observability: phases run inside
        ``fixed`` / ``pte_copy`` / ``registers`` / ``allocator`` spans
        under the caller's ``syscall.fork`` span."""
        machine = self.machine
        with machine.locks.fork.held():
            return self._fork_locked(proc)

    def _fork_locked(self, proc: Process) -> Process:
        machine = self.machine
        obs = machine.obs
        with obs.span("fixed"):
            machine.charge(getattr(machine.costs, self.FORK_FIXED_ATTR),
                           "fork_fixed")

        # shared-memory bindings carry over (same VAs: no rebase needed)
        child = self._fork_child(proc)
        child.space = self._new_space(f"{proc.name}-{child.pid}")
        with obs.span("pte_copy"):
            self._copy_ptes(proc.space, child.space, child.shm_vpns)

        # §2.2: the monolithic kernel tracks no per-process CPU
        # footprint, so after write-protecting the parent's pages it
        # must conservatively broadcast the shootdown to every other
        # online CPU — the cost that makes classic fork scale with core
        # count while μFork's footprint-bounded variant does not.
        if machine.num_cpus > 1:
            machine.tlb_shootdown(range(machine.num_cpus),
                                  reason="fork_cow")

        # registers copy verbatim: identical virtual addresses
        task = child.add_task()
        with obs.span("registers"):
            task.registers.copy_from(proc.main_task().registers)

        self._fork_allocator(proc, child)
        #: deferred allocator arena re-touch (runs when the child starts)
        child._pending_allocator_touch = True

        self._publish(child, "fork", proc.pid, "monolithic")
        machine.emit(events.MONOLITHIC_FORK)
        return child

    def _copy_ptes(self, parent: AddressSpace, child: AddressSpace,
                         shm_vpns: Set[int]) -> None:
        """Fork's ``pte_copy`` phase, one column sweep of the parent's
        mappings.

        The child maps every parent frame at the same vpn: MAP_SHARED
        memory as it is (shared and writable on both sides, POSIX), a
        writable page read-only and CoW, any other page with its
        permissions and CoW mark; the parent's writable pages outside
        MAP_SHARED lose write and gain the CoW mark.  Child pages are
        mapped in ``map_run`` runs of equal permissions and CoW mark,
        parent pages protected in ``protect_run`` runs.  The simulated
        ``pte_copy_ns`` stays one charge per entry; only the host loop
        is run-granular.
        """
        machine = self.machine
        vpns, frames, perms_column, cows, _notes = parent.mapped_columns(
            0, _va_pages(machine))
        _charge_each(machine, machine.costs.pte_copy_ns, len(vpns),
                     "fork_pte_copy")
        keys = []
        protected = []
        for vpn, perms, cow in zip(vpns, perms_column, cows):
            if vpn in shm_vpns:
                keys.append((perms, False))
            elif perms & _WRITE:
                keys.append((perms & ~_WRITE, True))
                protected.append((vpn, perms & ~_WRITE))
            else:
                keys.append((perms, bool(cow)))
        for start, end in consecutive_runs(vpns, keys):
            perms, cow = keys[start]
            child.map_run(vpns[start], frames[start:end],
                          PagePerm(perms), incref=True, cow=cow)
        for start, end in consecutive_runs(
                [vpn for vpn, _perms in protected],
                [perms for _vpn, perms in protected]):
            parent.protect_run(protected[start][0], end - start,
                               PagePerm(protected[start][1]), cow=True)

    def syscall(self, proc: Process, name: str, *args: Any,
                gate: Optional[Capability] = None) -> Any:
        # a child killed before its first syscall has no space to touch
        if getattr(proc, "_pending_allocator_touch", False) and proc.alive:
            proc._pending_allocator_touch = False
            self._child_allocator_touch(proc)
        return super().syscall(proc, name, *args, gate=gate)

    def _child_allocator_touch(self, proc: Process) -> None:
        """The pure-capability allocator's post-fork bookkeeping: write
        to a fraction of the used heap pages, breaking their CoW."""
        machine = self.machine
        page = machine.config.page_size
        allocator = proc.allocator
        used = allocator.used_bytes()
        used_pages = used // page
        touch = int(used_pages * self.allocator_child_touch_fraction)
        if touch <= 0:
            return
        data_base = allocator.data_base
        touched = 0
        for step in range(touch):
            index = step * used_pages // touch
            # the allocator writes bookkeeping words into the page: one
            # CoW fault + private copy (tag-preserving, like hardware)
            if _break_cow(proc.space, (data_base + index * page) // page,
                         fault=True):
                touched += 1
        machine.emit(events.ALLOCATOR_TOUCH_PAGES, touched)

    # ------------------------------------------------------------------
    # Exit
    # ------------------------------------------------------------------

    def _teardown_memory(self, proc: Process) -> None:
        machine = self.machine
        machine.charge(machine.costs.monolithic_exit_ns, "exit")
        proc._pending_allocator_touch = False
        proc.space.unmap_range(0, _va_pages(machine))
