"""Memory-copy strategies: full copy, Copy-on-Access, Copy-on-Pointer-Access.

Traditional CoW cannot be applied as-is by μFork (§3.8): a page the
child merely *reads* may contain absolute memory references that still
point into the parent, so it must be copied and relocated before the
child can load them.  The three strategies the paper evaluates:

* ``FULL_COPY`` — copy + relocate every parent page synchronously at
  fork (the 23.2 ms / 144 MB upper bound in §5.2);
* ``COA`` — share pages but mark the child's mappings inaccessible:
  *any* child access (and any parent write) triggers copy + relocation;
* ``COPA`` — share pages read-only, using CHERI's fault-on-capability-
  load page bit: parent/child writes and child *capability loads*
  trigger copy + relocation, but plain data reads stay shared.

The strategies are implemented as fork-time page-table setup plus a
page-fault handler; the records live in PTE ``note`` slots.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from itertools import compress
from typing import Any, Dict, NamedTuple, Optional, Tuple

from repro import events
from repro.core.relocate import (
    RegionPair,
    _charge_each,
    relocate_copied_frames,
    relocate_frame,
)
from repro.hw.paging import AccessKind, AddressSpace, PagePerm
from repro.hw.phys import consecutive_runs


class CopyStrategy(Enum):
    """How a forked child's memory is materialized."""

    FULL_COPY = "full"
    COA = "coa"
    COPA = "copa"


class ShareNote(NamedTuple):
    """PTE annotation for a page shared between parent and child (a
    named tuple, like :class:`~repro.core.relocate.RegionPair`)."""

    #: "parent" or "child" — which side of the fork this PTE belongs to
    role: str
    strategy: CopyStrategy
    regions: RegionPair
    #: permissions to restore once the page becomes private
    orig_perms: PagePerm


#: share-permission memo: IntFlag arithmetic is pure but surprisingly
#: slow, and fork-time sharing runs it once per page; the handful of
#: distinct (strategy, perms) pairs makes a tiny permanent memo
_CHILD_PERMS_MEMO: Dict[Tuple[CopyStrategy, int], PagePerm] = {}
_PARENT_PERMS_MEMO: Dict[int, PagePerm] = {}


def child_share_perms(strategy: CopyStrategy,
                      orig_perms: PagePerm) -> PagePerm:
    """Page permissions for the child's mapping of a shared page."""
    key = (strategy, int(orig_perms))
    cached = _CHILD_PERMS_MEMO.get(key)
    if cached is None:
        cached = _child_share_perms(strategy, orig_perms)
        _CHILD_PERMS_MEMO[key] = cached
    return cached


def _child_share_perms(strategy: CopyStrategy,
                       orig_perms: PagePerm) -> PagePerm:
    if strategy is CopyStrategy.COA:
        # fully inaccessible: any access faults
        return PagePerm.NONE
    if strategy is CopyStrategy.COPA:
        # readable/executable, but no writes and no capability loads
        return orig_perms & ~(PagePerm.WRITE | PagePerm.LOAD_CAP)
    raise ValueError(f"no sharing under {strategy}")


def parent_share_perms(orig_perms: PagePerm) -> PagePerm:
    """Parent keeps reading (including its own capabilities) but writes
    must fault to preserve the child's snapshot."""
    key = int(orig_perms)
    cached = _PARENT_PERMS_MEMO.get(key)
    if cached is None:
        cached = orig_perms & ~PagePerm.WRITE
        _PARENT_PERMS_MEMO[key] = cached
    return cached


def setup_shared_pages(space: AddressSpace, columns, delta_pages: int,
                       strategy: CopyStrategy, regions: RegionPair,
                       newly_shared: list) -> None:
    """Fork-time sharing setup under CoA/CoPA.

    ``columns`` are the ``(vpns, frames, perms, cows, notes)`` of
    :meth:`AddressSpace.mapped_columns` (``notes`` None when no page has
    one), vpn ascending.  The child maps each parent frame at the
    mirrored vpn with the strategy's share permissions and a child
    :class:`ShareNote`; the parent loses write permission and gains a
    parent note (kept if the page was already shared).  Runs of
    consecutive vpns with equal original permissions become one
    ``map_run`` on the child side (sharing a single interned
    :class:`ShareNote` — notes are never mutated, only replaced) and
    one ``protect_run`` on the parent side.  The PTE charges are those
    of setting the pages up one at a time: ``pte_bulk_share_ns`` (plus
    ``pte_coa_extra_ns`` under CoA) to ``fork_map`` and
    ``pte_protect_ns`` to ``fork_protect`` per page.

    Parent vpns newly write-protected are appended to ``newly_shared``
    (fork rollback resolves them through the space).
    """
    vpns, frames, perms, _cows, notes = columns
    count = len(vpns)
    if not count:
        return
    machine = space.machine
    costs = machine.costs
    child_notes: Dict[int, ShareNote] = {}
    parent_notes: Dict[int, ShareNote] = {}
    origs = perms if notes is None else [
        int(note.orig_perms) if isinstance(note, ShareNote) else perm
        for perm, note in zip(perms, notes)]
    for start, end in consecutive_runs(vpns, origs):
        vpn = vpns[start]
        orig_int = origs[start]
        orig = PagePerm(orig_int)
        child_note = child_notes.get(orig_int)
        if child_note is None:
            child_note = ShareNote("child", strategy, regions, orig)
            child_notes[orig_int] = child_note
        space.map_run(vpn + delta_pages, frames[start:end],
                      child_share_perms(strategy, orig), incref=True,
                      note=child_note)
        parent_note = parent_notes.get(orig_int)
        if parent_note is None:
            parent_note = ShareNote("parent", strategy, regions, orig)
            parent_notes[orig_int] = parent_note
        space.protect_run(vpn, end - start, parent_share_perms(orig))
        unnoted = vpns[start:end] if notes is None else [
            parent_vpn for parent_vpn, note in zip(vpns[start:end],
                                                   notes[start:end])
            if not isinstance(note, ShareNote)]
        if unnoted:
            space.set_note_many(unnoted, parent_note)
            newly_shared.extend(unnoted)
    _charge_each(machine, costs.pte_bulk_share_ns, count, "fork_map")
    if strategy is CopyStrategy.COA:
        _charge_each(machine, costs.pte_coa_extra_ns, count, "fork_map")
    _charge_each(machine, costs.pte_protect_ns, count, "fork_protect")


def handle_fork_fault(space: AddressSpace, vaddr: int,
                      kind: AccessKind) -> bool:
    """Page-fault handler implementing the lazy halves of CoA/CoPA.

    Returns True when the fault was a fork-sharing fault and has been
    resolved (the access should be retried).
    """
    machine = space.machine
    vpn = vaddr // machine.config.page_size
    note = space.note_of(vpn)
    if not isinstance(note, ShareNote):
        return False

    if note.role == "parent":
        if kind is not AccessKind.WRITE:
            return False  # parent reads never fault under either strategy
        _make_private(space, vpn, relocate=False, note=note)
        machine.emit(events.COW_BREAK[note.strategy.value, "parent", "write"],
                     role="parent", vpn=vpn)
        return True

    # child side: writes always break; reads/exec/cap-loads depend on strategy
    if note.strategy is CopyStrategy.COPA and kind is AccessKind.READ:
        return False  # CoPA allows plain reads; this fault is something else
    if kind is AccessKind.CAP_LOAD and machine.chaos.enabled and \
            machine.chaos.should_fire("core.strategies.cap_fault_storm"):
        # storm: the capability-load fault spuriously re-fires a few
        # times before the break sticks; each repeat costs a full fault.
        # Enough storms push UForkOS down the CoPA→CoA→eager ladder.
        for _ in range(3):
            machine.charge(machine.costs.page_fault_ns, "page_fault")
            machine.emit(events.CAP_FAULT_STORM_REPEAT)
        machine.chaos.note_recovery("core.strategies.cap_fault_storm")
    _make_private(space, vpn, relocate=True, note=note)
    machine.emit(events.COW_BREAK[note.strategy.value, "child", kind._nm],
                 role="child", vpn=vpn, kind=kind._nm)
    return True


#: ``_SHARED(refcount)``: is a frame mapped more than once
_SHARED = (1).__lt__


def handle_fork_write_run(space: AddressSpace, vaddrs,
                          kind: AccessKind) -> bool:
    """Bulk share break of the pages that block one access — the
    :attr:`AddressSpace.break_hook` that its two callers, a blocked
    multi-page read or write and :meth:`AddressSpace.write_run`, offer
    before per-fault dispatch.  ``vaddrs`` holds the first address of
    ``kind`` (a read or a write) in each blocked page, in access order.

    Commits only when EVERY page breaks under :func:`handle_fork_fault`'s
    rules for ``kind`` (a parent page on a write; a child page on any
    access but a CoPA child's plain read) and then allows the access,
    no frame is mapped twice, child pages share one region pair and
    every copy's frame allocation would succeed
    (:meth:`PhysicalMemory.alloc_budget`).  Anything else (foreign
    notes, protected pages, a failing allocation, SMP, where each fault
    serializes on the fault lock) returns False with no state touched,
    and per-fault dispatch reproduces the exact fault/exception
    sequence.

    Simulated-identical to faulting the pages one at a time in order:
    fault, page-copy, scan and relocation charges are batched as
    sum-equal advances (one per charge when a cost is non-integral);
    each copy gets the frame number its own fault would; no frame is
    freed (the other side of each share still holds it); the chaos
    draws are the per-fault copies' draws; the counters and
    observability records are pure sums plus a last-value gauge; an
    attached tracer receives each page's ``page_fault``,
    ``relocate_frame`` and ``cow_break`` records in that order.
    """
    machine = space.machine
    if machine.num_cpus > 1:
        return False  # SMP per-op dispatch serializes on the fault lock
    page_size = machine.config.page_size
    vpns = [vaddr // page_size for vaddr in vaddrs]
    notes = list(map(space.note_of, vpns))
    # notes are shared by the pages a fork set up together, so each
    # distinct one is judged once
    distinct = {id(note): note for note in notes}
    if not all(_breaks_on(note, kind) for note in distinct.values()):
        return False
    # child pages relocate in page order only under one region pair
    if len({id(note.regions) for note in distinct.values()
            if note.role == "child"}) > 1:
        return False
    phys = machine.phys
    frames = list(map(space.frame_of, vpns))
    if len(set(frames)) != len(frames):
        return False  # a frame's first break would change its second
    try:
        refcounts = phys.refcounts(frames)
    except KeyError:
        return False  # a dangling mapping raises at its own fault
    count = len(vpns)
    # the pages whose frame is still shared get a private copy
    copies = list(compress(range(count), map(_SHARED, refcounts)))
    if phys.alloc_budget(len(copies)) < len(copies):
        return False  # per-op dispatch reproduces the exact failing state
    _charge_each(machine, machine.costs.page_fault_ns, count, "page_fault")
    machine.emit(events.PAGE_FAULT[kind._nm], count, records=())
    targets = list(frames)  # each page's private frame once broken
    if copies:
        for index, copy in zip(copies, phys.copy_frames(
                [frames[index] for index in copies], in_order=True)):
            targets[index] = copy
        machine.emit(events.BREAK_PAGE_COPY, len(copies))
    # child-role pages may still hold parent-region capabilities:
    # relocate them through the fork content memo (a last sharer's
    # frame is its own copy)
    caps = [0] * count
    children = [index for index, note in enumerate(notes)
                if note.role == "child"]
    if children:
        moved = relocate_copied_frames(
            machine, phys, [frames[index] for index in children],
            [targets[index] for index in children],
            notes[children[0]].regions)
        for index, relocated in zip(children, moved):
            caps[index] = relocated
    if copies:
        phys.decref_many([frames[index] for index in copies])
    space.privatize_pages(vpns, [note.orig_perms for note in notes],
                          targets)
    tallies: Counter = Counter()
    for note_id, value in Counter(map(id, notes)).items():
        note = distinct[note_id]
        tallies[note.role, note.strategy.value] += value
    # parent breaks first, as the counters have always been keyed
    for (role, strategy), value in sorted(
            tallies.items(), key=lambda item: item[0][0] != "parent"):
        machine.emit(events.COW_BREAK[strategy, role, kind._nm], value,
                     records=())
    machine.emit(events.RECORDS, records=_break_records(
        space.name, kind._nm, vaddrs, vpns, notes, caps))
    return True


def _breaks_on(note: Any, kind: AccessKind) -> bool:
    """Whether a ``kind`` fault on a page carrying ``note`` is a share
    break (as :func:`handle_fork_fault` rules) after which the page
    allows ``kind``."""
    if not isinstance(note, ShareNote):
        return False
    if note.role == "parent" and kind is not AccessKind.WRITE:
        return False
    if note.role != "parent" and note.strategy is CopyStrategy.COPA and \
            kind is AccessKind.READ:
        return False
    return (int(note.orig_perms) & kind._req_bits) == kind._req_bits


def _break_records(space_name, kind_name, vaddrs, vpns, notes, caps):
    """The tracer stream of a bulk break, in per-fault order: each
    page's ``page_fault``, ``relocate_frame`` (when capabilities moved)
    and ``cow_break``."""
    for vaddr, vpn, note, moved in zip(vaddrs, vpns, notes, caps):
        yield events.PAGE_FAULT[kind_name], {
            "vaddr": vaddr, "kind": kind_name, "space": space_name}
        if moved:
            yield events.RELOCATE_FRAME, {"caps": moved}
        fields = {"role": note.role, "vpn": vpn}
        if note.role == "child":
            fields["kind"] = kind_name
        yield events.COW_BREAK[note.strategy.value, note.role, kind_name], \
            fields


def _make_private(space: AddressSpace, vpn: int,
                  relocate: bool, note: ShareNote) -> None:
    """Give this mapping a private frame (copying if still shared) and
    restore its original permissions."""
    machine = space.machine
    phys = machine.phys
    frame = space.frame_of(vpn)
    if phys.refcount(frame) > 1:
        new_frame = phys.cow_copy(frame)
        if relocate:
            relocate_frame(machine, phys.frame(new_frame), note.regions)
        space.privatize_page(vpn, note.orig_perms, new_frame)
        machine.emit(events.BREAK_PAGE_COPY)
        return
    if relocate:
        # Last sharer (peer exited/copied): the frame is now private but
        # may still hold parent-region capabilities needing relocation.
        relocate_frame(machine, phys.frame(frame), note.regions)
    space.privatize_page(vpn, note.orig_perms)


def resolve_all_pending(space: AddressSpace, region_base: int,
                        region_top: int) -> int:
    """Force-resolve every still-shared *child-role* page of a region.

    μFork calls this on a process about to fork again while some of its
    own pages are still shared with *its* parent: stabilizing the image
    first keeps relocation a single-hop rebase.
    """
    machine = space.machine
    page = machine.config.page_size
    lo = region_base // page
    hi = (region_top + page - 1) // page
    resolved = 0
    for vpn, _frame, _perms, note in space.noted_mappings(lo, hi):
        if isinstance(note, ShareNote) and note.role == "child":
            machine.charge(machine.costs.page_fault_ns, "page_fault")
            _make_private(space, vpn, relocate=True, note=note)
            resolved += 1
    if resolved:
        machine.emit(events.RESOLVED_PENDING_PAGES, resolved)
    return resolved


def iter_share_notes(space: AddressSpace, lo_vpn: Optional[int] = None,
                     hi_vpn: Optional[int] = None):
    """Yield ``(vpn, frame, perms_int, note)`` for every still-shared
    page (given ``[lo_vpn, hi_vpn)``, only those in it).

    Audit hook for the conformance invariants: a consistent kernel
    never leaves a :class:`ShareNote` whose frame has been freed, whose
    role is unknown, or whose restored permissions would be *narrower*
    than the current ones (sharing only ever removes permissions).

    Yields in ascending vpn order the raw PTE state of
    :meth:`AddressSpace.noted_mappings`.
    """
    for item in space.noted_mappings(lo_vpn, hi_vpn):
        if isinstance(item[3], ShareNote):
            yield item
