"""UForkOS: the single-address-space OS with μFork.

Walks the paper's design end to end: one address space shared by the
kernel and every μprocess (§3.7); fork by copying the parent μprocess's
memory to a freshly reserved contiguous area (§3.5); eager copy +
relocation of GOT and allocator-metadata pages; lazy CoA/CoPA sharing
for everything else (§3.8); CHERI-bounded capabilities and sealed
syscall gates for isolation (§4.3, §4.4).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from itertools import compress
from operator import not_
from typing import Any, Dict, List, Optional, Set, Tuple

from repro import events
from repro.chaos.faults import InjectedForkFailure
from repro.chaos.recovery import Transaction, run_transaction
from repro.cheri.capability import Capability
from repro.core.isolation import (
    IsolationConfig,
    make_syscall_gate,
)
from repro.core.relocate import (
    RegionPair,
    _charge_each,
    plan_copied_frames,
    relocate_copied_frames,
    relocate_registers,
)
from repro.core.strategies import (
    CopyStrategy,
    ShareNote,
    handle_fork_fault,
    handle_fork_write_run,
    resolve_all_pending,
    setup_shared_pages,
)
from repro.core.uprocess import load_uprocess
from repro.hw.paging import AddressSpace, PagePerm
from repro.hw.phys import consecutive_runs
from repro.kernel.base import AbstractOS
from repro.kernel.syscalls import IsolationLevel, check_syscall_gate
from repro.kernel.task import Process
from repro.machine import Machine
from repro.mem.layout import ProgramImage
from repro.mem.vspace import VirtualAreaAllocator

#: kernel image location in the single address space
KERNEL_BASE = 0x0000_0001_0000_0000
KERNEL_SIZE = 16 * 1024 * 1024
#: the syscall-handler entry point targeted by sealed gates
GATE_ADDR = KERNEL_BASE + 0x1000
#: pages of kernel code/data actually mapped (for accounting)
KERNEL_MAPPED_PAGES = 64

#: window of the address space dedicated to μprocess regions
UPROC_WINDOW_BASE = 0x0000_0100_0000_0000
UPROC_WINDOW_SIZE = 1 << 40  # 1 TiB of VA: fragmentation is a non-issue (§6)


class UForkOS(AbstractOS):
    """A Unikraft-like SASOS extended with μFork."""

    kind = "ufork"

    KERNEL_PROC_OVERHEAD = 48 * 1024

    def __init__(self, machine: Optional[Machine] = None,
                 copy_strategy: CopyStrategy = CopyStrategy.COPA,
                 isolation: Optional[IsolationConfig] = None,
                 aslr: bool = False,
                 trapless_syscalls: bool = True,
                 eager_copy: bool = True) -> None:
        super().__init__(
            machine=machine,
            trapless_syscalls=trapless_syscalls,
            isolation=isolation or IsolationConfig.fault(),
            same_address_space=True,
        )
        self.copy_strategy = copy_strategy
        #: §3.5 step 1: proactively copy GOT + allocator-metadata pages
        #: at fork.  Disabling this is an ablation: still *correct*
        #: under CoA/CoPA (the faults catch every stale reference) but
        #: moves the cost to the child's first touches.
        self.eager_copy = eager_copy
        machine = self.machine

        #: the one address space (kernel + all μprocesses)
        self.space = AddressSpace(machine, "sasos")
        #: pid -> (lo, hi) demand-zero heap ranges (dynamic heaps, §4.2)
        self._demand_zero = {}
        # the handler holds the table, not the kernel: the space it is
        # installed on is the kernel's, so a bound method would cycle
        self.space.fault_handler = partial(_handle_fault, self._demand_zero)
        self.space.break_hook = handle_fork_write_run
        #: the last eager copy's ``(vpns, original perms, map runs)``
        self._map_runs: tuple = ((), (), [])

        from repro.core.libraries import LibraryRegistry
        self.libraries = LibraryRegistry(machine)
        self.vspace = VirtualAreaAllocator(
            UPROC_WINDOW_BASE, UPROC_WINDOW_SIZE, machine.config.page_size,
            aslr_rng=machine.rng if aslr else None,
        )
        self._boot()

    # ------------------------------------------------------------------
    # Boot (§4.1: init capability features, exception vectors, gates)
    # ------------------------------------------------------------------

    def _boot(self) -> None:
        page = self.machine.config.page_size
        for index in range(KERNEL_MAPPED_PAGES):
            frame = self.machine.phys.alloc(zero=True, charge=False)
            # PagePerm.NONE: μprocess access to kernel memory faults;
            # the kernel itself uses privileged accesses.
            self.space.map_page(KERNEL_BASE // page + index, frame,
                                PagePerm.NONE)
        self.kernel_code_cap = (
            self.kernel_root
            .set_bounds(KERNEL_BASE, KERNEL_SIZE)
            .with_cursor(KERNEL_BASE)
        )
        self.syscall_gate = make_syscall_gate(self.kernel_code_cap, GATE_ADDR)

    # ------------------------------------------------------------------
    # AbstractOS interface
    # ------------------------------------------------------------------

    def space_of(self, proc: Process) -> AddressSpace:
        return self.space

    def spawn(self, image: ProgramImage, name: str) -> Process:
        return load_uprocess(self, image, name)

    def syscall(self, proc: Process, name: str, *args: Any,
                gate: Optional[Capability] = None) -> Any:
        """Kernel entry: through the sealed sentry gate when isolation
        is enabled (§4.4 principle 1)."""
        if self.isolation.level is not IsolationLevel.NONE:
            entry = gate if gate is not None else proc.syscall_gate
            # this kernel's own sentry, held by the process, passes at
            # once; anything else (a copy, a forgery, no gate) is checked
            if entry is not self.syscall_gate or \
                    proc.syscall_gate is not entry:
                check_syscall_gate(proc, entry)
        return super().syscall(proc, name, *args, gate=gate)

    # ------------------------------------------------------------------
    # Demand-zero heaps (faults: :func:`_handle_fault`)
    # ------------------------------------------------------------------

    def _register_demand_heap(self, proc: Process) -> None:
        if proc.layout.image.heap_initial is None:
            return
        heap_base, heap_top = proc.layout.span("heap")
        self._demand_zero[proc.pid] = (heap_base, heap_top)

    def _publish(self, proc: Process, event: str, src_pid: int = 0,
                 detail: str = "") -> None:
        # a dynamic heap pages in on demand from the moment it is live
        self._register_demand_heap(proc)
        super()._publish(proc, event, src_pid, detail)

    # ------------------------------------------------------------------
    # μFork itself (§3.5)
    # ------------------------------------------------------------------

    def fork(self, proc: Process) -> Process:
        """μFork (§3.5).  Observability: phases run inside ``fixed`` /
        ``resolve_pending`` / ``copy_pages`` / ``registers`` /
        ``allocator`` spans, so one fork's simulated cost decomposes
        hierarchically under its ``syscall.fork`` span (the paper's
        cost-model tree; see docs/OBSERVABILITY.md for a worked
        example).

        Fork is **transactional**: every mutation registers an undo, and
        a fork that dies mid-flight (an injected ``core.ufork.abort.*``
        fault, frame exhaustion, or any other error) is rolled back —
        no orphaned frames, VA reservations, PIDs, or fd-table entries
        survive (docs/CHAOS.md, tests/test_fork_rollback.py).  Injected
        failures re-raise as the retriable
        :class:`~repro.chaos.InjectedForkFailure` so the syscall layer's
        bounded retry can re-attempt the whole fork."""
        machine = self.machine
        strategy = self._effective_strategy(machine.chaos)
        # Fork serializes against concurrent forks/faults on other CPUs
        # (a no-op spinlock while num_cpus == 1).
        return run_transaction(
            machine, lambda tx: self._fork_phases(proc, strategy, tx),
            events.FORK_ROLLBACK, InjectedForkFailure,
            f"fork of pid {proc.pid}", parent=proc.pid)

    def _effective_strategy(self, chaos: Any) -> CopyStrategy:
        """Graceful degradation (chaos survival): under an injected
        capability-load fault storm the lazy strategies fall down the
        ladder CoPA → CoA → eager copy, trading fork-time cost for
        immunity to further lazy-path faults."""
        configured = self.copy_strategy
        tiers = chaos.degrade_tiers()
        if tiers <= 0:
            return configured
        ladder = (CopyStrategy.COPA, CopyStrategy.COA,
                  CopyStrategy.FULL_COPY)
        index = ladder.index(configured)
        degraded = ladder[min(index + tiers, len(ladder) - 1)]
        if degraded is not configured:
            self.machine.emit(events.FORK_DEGRADED,
                              configured=configured.value,
                              used=degraded.value)
        return degraded

    def _abort_point(self, point: str, proc: Process) -> None:
        """Fire one chaos fork-abort boundary (phase-transition check)."""
        chaos = self.machine.chaos
        if chaos.enabled and chaos.should_fire(point):
            raise InjectedForkFailure.at(
                point, f"injected fork abort at {point} "
                       f"(parent pid {proc.pid})")

    def _fork_phases(self, proc: Process, strategy: CopyStrategy,
                     tx: Transaction) -> Process:
        machine = self.machine
        obs = machine.obs
        page = machine.config.page_size
        with obs.span("fixed"):
            machine.charge(machine.costs.ufork_fixed_ns, "fork_fixed")

        # A process forking while some of its own pages are still shared
        # with *its* parent first stabilizes its image, keeping every
        # relocation a single-hop rebase.  (Resolving only makes shared
        # pages private — an always-valid state — so no undo is needed.)
        # Only a fork child's region can hold such pages, and only until
        # the first sweep: nothing adds child-role notes to it later.
        with obs.span("resolve_pending"):
            if proc.shares_pending:
                resolve_all_pending(self.space, proc.region_base,
                                    proc.region_top)
                proc.shares_pending = False

        # 1. reserve the child's contiguous area and mirror the layout
        child_base = self.vspace.reserve(proc.region_size)
        tx.on_abort(lambda: self.vspace.release(child_base))
        child = self._fork_child(proc, child_base - proc.region_base)
        child.shares_pending = True
        tx.on_abort(lambda: proc.children.remove(child))
        tx.on_abort(child.fdtable.close_all)
        self._abort_point("core.ufork.abort.reserve", proc)

        regions = RegionPair(
            parent_base=proc.region_base, parent_top=proc.region_top,
            child_base=child.region_base, child_top=child.region_top,
        )
        delta_pages = (child.region_base - proc.region_base) // page

        # 2. duplicate parent state
        if self.eager_copy or strategy is CopyStrategy.FULL_COPY:
            eager = self._eager_vpns(proc)
        else:
            eager = set()
        shm_vpns = getattr(proc, "shm_vpns", set())
        lo = proc.region_base // page
        hi = proc.region_top // page
        # undo: unmap whatever landed in the child's region and lift the
        # write protection this fork placed on parent pages (registered
        # up front so a failure *inside* the copy still cleans up)
        newly_shared: List[int] = []
        tx.on_abort(lambda: self._undo_fork_pages(child, newly_shared))
        with obs.span("copy_pages"):
            self._copy_pages(strategy, regions, delta_pages, eager, shm_vpns,
                             lo, hi, newly_shared)
        self._abort_point("core.ufork.abort.copy_pages", proc)

        # §2.2: μFork knows the μprocess's CPU footprint, so the
        # write-protect shootdown covers only CPUs that may cache its
        # translations — for a single-threaded parent that never
        # migrated, that is zero IPIs (the initiating CPU flushes
        # locally as part of the PTE updates above).
        if machine.num_cpus > 1:
            machine.tlb_shootdown(proc.cpu_footprint(),
                                  reason="fork_protect")

        # 3. post-copy phase: new task, relocated registers, allocator
        task = child.add_task()
        with obs.span("registers"):
            task.registers.copy_from(proc.main_task().registers)
            relocate_registers(machine, task.registers, regions)
        self._abort_point("core.ufork.abort.registers", proc)

        self._fork_allocator(proc, child)
        self._abort_point("core.ufork.abort.allocator", proc)

        self._publish(child, "fork", proc.pid, strategy.value)
        machine.emit(events.FORK, parent=proc.pid, child=child.pid,
                     strategy=strategy.value)
        return child

    def _copy_pages(self, strategy: CopyStrategy, regions: RegionPair,
                    delta_pages: int, eager: Set[int], shm_vpns: Set[int],
                    lo: int, hi: int, newly_shared: List[int]) -> None:
        """Fork's page-duplication phase (see docs/ARCHITECTURE.md).

        One region sweep (:meth:`AddressSpace.mapped_columns`) is split
        by column into classes, then each class is handled with bulk
        primitives: shared-memory pages and eager copies become
        ``map_run`` slices over batch-copied frames, and CoA/CoPA
        sharing goes through
        :func:`repro.core.strategies.setup_shared_pages`.  The end
        state, charges, counters and chaos draws are those of handling
        the pages one at a time in ascending vpn order.  When
        :meth:`PhysicalMemory.alloc_budget` says a copy's frame
        allocation would fail (out of frames, or an injected
        ``hw.phys.alloc_fail``), only the pages below that copy's vpn
        are handled, and the failing copy then raises through
        ``copy_frames`` — the state a page-by-page sweep leaves when
        it dies there, for the fork rollback to undo.
        """
        machine = self.machine
        space = self.space
        phys = machine.phys
        columns = space.mapped_columns(lo, hi)
        shm = _NO_PAGES
        if shm_vpns:
            in_shm = list(map(shm_vpns.__contains__, columns[0]))
            if True in in_shm:
                shm, columns = _split(columns, in_shm)
        if strategy is CopyStrategy.FULL_COPY:
            copy, share = columns, _NO_PAGES
        else:
            copy, share = _split(columns,
                                 list(map(eager.__contains__, columns[0])))
        failing = None
        fit = phys.alloc_budget(len(copy[0]))
        if fit < len(copy[0]):
            failing = copy[1][fit]
            stop = copy[0][fit]
            copy = _head(copy, fit)
            shm = _head(shm, bisect_left(shm[0], stop))
            share = _head(share, bisect_left(share[0], stop))
        bulk_ns = machine.costs.pte_bulk_share_ns

        # MAP_SHARED memory: same frames, by design (§3.7)
        vpns, frames, perms, _cows, _notes = shm
        for start, end in consecutive_runs(vpns, perms):
            space.map_run(vpns[start] + delta_pages, frames[start:end],
                          PagePerm(perms[start]), incref=True)
        if vpns:
            _charge_each(machine, bulk_ns, len(vpns), "fork_map")

        # eager / full copies: plan the relocation, batch-copy the frames
        # the memo does not replay whole, relocate, then map the child
        # runs at the original (pre-share) permissions
        vpns, srcs, perms, _cows, notes = copy
        ncopy = len(vpns)
        if ncopy:
            src_runs, stored, plan = plan_copied_frames(machine, phys, srcs,
                                                        regions)
            dsts = phys.copy_frames(srcs, preserve_tags=True, runs=src_runs,
                                    stored=stored)
            caps = relocate_copied_frames(machine, phys, srcs, dsts,
                                          regions, plan=plan)
            origs = perms if notes is None or notes.count(None) == ncopy \
                else bytes(int(note.orig_perms) if isinstance(note, ShareNote)
                           else perm for perm, note in zip(perms, notes))
            # a parent forking again copies the same vpns at the same
            # permissions: compare them, and reuse the runs
            last_vpns, last_origs, runs = self._map_runs
            if vpns != last_vpns or origs != last_origs:
                runs = consecutive_runs(vpns, origs)
                self._map_runs = (vpns, origs, runs)
            for start, end in runs:
                space.map_run(vpns[start] + delta_pages, dsts[start:end],
                              PagePerm(origs[start]))
            _charge_each(machine, bulk_ns, ncopy, "fork_map")
            machine.emit(events.FORK_PAGE_COPY, ncopy,
                         records=_eager_copy_records(vpns, caps,
                                                     delta_pages))

        if share[0]:
            setup_shared_pages(space, share, delta_pages, strategy,
                               regions, newly_shared)
        if failing is not None:
            # raises, as the page-by-page sweep's allocation would there
            phys.copy_frames([failing])

    def _undo_fork_pages(self, child: Process, newly_shared: List[int]) -> None:
        """Rollback of the page-duplication phase: unmap every page the
        aborted fork mapped into the child's region (dropping its frame
        references) and restore original permissions on the parent
        vpns in ``newly_shared``, which it write-protected."""
        page = self.machine.config.page_size
        self.space.unmap_range(child.region_base // page,
                               child.region_top // page)
        for vpn in newly_shared:
            note = self.space.note_of(vpn)
            if isinstance(note, ShareNote):
                self.space.protect_page(vpn, note.orig_perms)
                self.space.set_note(vpn, None)

    def _eager_vpns(self, proc: Process) -> Set[int]:
        """Pages copied proactively at fork: GOT + allocator metadata
        (§3.5 step 1)."""
        page = self.machine.config.page_size
        vpns: Set[int] = set()
        got_base, got_top = proc.layout.span("got")
        vpns.update(range(got_base // page, got_top // page))
        if proc.allocator is not None:
            meta_base, meta_top = proc.allocator.metadata_span()
            vpns.update(range(meta_base // page,
                              (meta_top + page - 1) // page))
        return vpns

    # ------------------------------------------------------------------
    # Exit / teardown
    # ------------------------------------------------------------------

    def _teardown_memory(self, proc: Process) -> None:
        self.machine.charge(self.machine.costs.uexit_ns, "exit")
        self._release_region(proc)

    def _release_region(self, proc: Process) -> None:
        """Give back a μprocess's memory: its demand-zero range, every
        frame mapped in its region, and the VA reservation (exit, and a
        spawn that fails part-way)."""
        page = self.machine.config.page_size
        self._demand_zero.pop(proc.pid, None)
        self.space.unmap_range(proc.region_base // page,
                               proc.region_top // page)
        self.vspace.release(proc.region_base)

    # ------------------------------------------------------------------
    # Anonymous mmap (§4.2)
    # ------------------------------------------------------------------

    def sys_mmap(self, proc: Process, size: int) -> Capability:
        """Anonymous private mapping inside the caller's mmap window;
        returns a capability confined to the calling μprocess (§4.2)."""
        self.syscalls.enter("mmap", 1)
        offset = getattr(proc, "mmap_offset", 0)
        base, pages = self._mmap_window_alloc(proc, size)
        try:
            frames = self._alloc_zeroed(pages)
        except Exception:
            proc.mmap_offset = offset
            raise
        page = self.machine.config.page_size
        self.space.map_run(base // page, frames, PagePerm.rwc())
        return self._data_cap(base, pages * page)


#: the columns of an empty sweep
_NO_PAGES = ([], [], b"", b"", None)


def _split(columns, mask):
    """The sweep ``columns`` at the positions ``mask`` flags, and at
    the others."""
    rest = list(map(not_, mask))
    return tuple(tuple(None if column is None else list(compress(column, at))
                       for column in columns) for at in (mask, rest))


def _head(columns, count):
    """The first ``count`` positions of the sweep ``columns``."""
    return tuple(None if column is None else column[:count]
                 for column in columns)


def _eager_copy_records(vpns, caps, delta_pages):
    """A bulk eager copy's tracer stream, in per-page order: each page's
    ``relocate_frame`` (when capabilities moved), then its copy."""
    for vpn, moved in zip(vpns, caps):
        if moved:
            yield events.RELOCATE_FRAME, {"caps": moved}
        yield events.FORK_PAGE_COPY, {"vpn": vpn + delta_pages,
                                      "eager": True}


# ---------------------------------------------------------------------------
# Fault dispatch: fork-sharing faults, then demand-zero heap paging
# ---------------------------------------------------------------------------

def _handle_fault(demand_zero: Dict[int, Tuple[int, int]],
                  space: AddressSpace, vaddr: int, kind) -> bool:
    # CoW/CoPA fault resolution mutates shared PTE state, so on an
    # SMP machine it runs under the fault spinlock (free at 1 CPU).
    machine = space.machine
    if machine.num_cpus <= 1:
        # CONFIG_SMP=n: acquire/release are no-ops at 1 CPU, so
        # only the guard's IRQ-disable section is kept (inline —
        # the fault path runs this once per CoW break)
        machine.irq_depth += 1
        try:
            if handle_fork_fault(space, vaddr, kind):
                return True
            return _demand_zero_fault(demand_zero, space, vaddr)
        finally:
            machine.irq_depth -= 1
    with machine.locks.fault.held():
        if handle_fork_fault(space, vaddr, kind):
            return True
        return _demand_zero_fault(demand_zero, space, vaddr)


def _demand_zero_fault(demand_zero: Dict[int, Tuple[int, int]],
                       space: AddressSpace, vaddr: int) -> bool:
    """Page in a zeroed frame at ``vaddr`` when it lies in a live
    dynamic heap's demand-zero range and nothing maps it yet."""
    machine = space.machine
    vpn = vaddr // machine.config.page_size
    if space.frame_of(vpn) is not None:
        return False
    for lo, hi in demand_zero.values():
        if lo <= vaddr < hi:
            frame = machine.phys.alloc(zero=True)
            space.map_page(vpn, frame, PagePerm.rwc())
            machine.emit(events.DEMAND_ZERO_PAGE)
            return True
    return False
