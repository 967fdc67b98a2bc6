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

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Tuple

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


@dataclass(slots=True)
class ShareNote:
    """PTE annotation for a page shared between parent and child."""

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

#: fault kind → child-side CoW-break counter name
_CHILD_BREAK_COUNTER: Dict[AccessKind, str] = {
    kind: f"fork_child_break_{kind._nm}" for kind in AccessKind}

#: side → write-fault CoW-break counter name
_WRITE_BREAK_COUNTER = {"parent": "fork_parent_cow_break",
                        "child": _CHILD_BREAK_COUNTER[AccessKind.WRITE]}

#: (strategy, side, fault kind) → CoW-break obs metric name
_BREAK_METRIC: Dict[Tuple[CopyStrategy, str, AccessKind], str] = {
    (strategy, side, kind):
        f"core.strategies.{strategy.value}.break.{side}.{kind._nm}"
    for strategy in CopyStrategy for side in ("parent", "child")
    for kind in AccessKind}


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


def setup_shared_pages(space: AddressSpace, items, delta_pages: int,
                       strategy: CopyStrategy, regions: RegionPair,
                       newly_shared: list) -> None:
    """Fork-time sharing setup under CoA/CoPA.

    ``items`` are ``(vpn, frame, perms_int, note)`` tuples, vpn
    ascending.  The child maps each parent frame at the mirrored vpn
    with the strategy's share permissions and a child
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
    count = len(items)
    if not count:
        return
    machine = space.machine
    costs = machine.costs
    child_notes: Dict[int, ShareNote] = {}
    parent_notes: Dict[int, ShareNote] = {}
    origs = [int(note.orig_perms) if isinstance(note, ShareNote) else perms
             for _vpn, _frame, perms, note in items]
    for start, end in consecutive_runs([item[0] for item in items], origs):
        vpn = items[start][0]
        run = items[start:end]
        orig_int = origs[start]
        orig = PagePerm(orig_int)
        child_note = child_notes.get(orig_int)
        if child_note is None:
            child_note = ShareNote("child", strategy, regions, orig)
            child_notes[orig_int] = child_note
        space.map_run(vpn + delta_pages, [item[1] for item in run],
                      child_share_perms(strategy, orig), incref=True,
                      note=child_note)
        parent_note = parent_notes.get(orig_int)
        if parent_note is None:
            parent_note = ShareNote("parent", strategy, regions, orig)
            parent_notes[orig_int] = parent_note
        space.protect_run(vpn, end - start, parent_share_perms(orig))
        unnoted = [parent_vpn
                   for parent_vpn, _pframe, _pperms, pnote in run
                   if not isinstance(pnote, ShareNote)]
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
        machine.emit("cow_break", counter=_WRITE_BREAK_COUNTER["parent"],
                     metric=_BREAK_METRIC[note.strategy, "parent",
                                          AccessKind.WRITE],
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
            machine.emit(metric="core.strategies.cap_fault_storm_repeats")
        machine.chaos.note_recovery("core.strategies.cap_fault_storm")
    _make_private(space, vpn, relocate=True, note=note)
    machine.emit("cow_break", counter=_CHILD_BREAK_COUNTER[kind],
                 metric=_BREAK_METRIC[note.strategy, "child", kind],
                 role="child", vpn=vpn, kind=kind._nm)
    return True


def handle_fork_write_run(space: AddressSpace, vaddrs) -> bool:
    """Bulk CoW break for a run of write-blocked pages — the lookahead
    :meth:`AddressSpace.write_run` offers before per-fault dispatch.
    ``vaddrs`` holds the first store address of each blocked page.

    Commits only when EVERY page is a clean ShareNote write-break whose
    restored permissions allow the write and every copy's frame
    allocation would succeed (:meth:`PhysicalMemory.alloc_budget`:
    enough frames, no injected ``hw.phys.alloc_fail``); anything else
    (foreign notes, genuinely read-only pages, a failing allocation,
    SMP) returns False with no state touched, and the per-op loop
    reproduces the exact fault/exception sequence.  On SMP each fault
    serializes on the fault lock, which this path does not model.

    Simulated-identical to faulting the pages one at a time in order:
    fault, page-copy, scan and relocation charges are batched as
    sum-equal advances (one per charge when a cost is non-integral);
    frame allocation and refcount evolution follow the same page order
    (no frame can be freed mid-run — every frame this path decrefs is
    still referenced by the other side of the share); the chaos draws
    are the per-fault copies' draws; the counters and observability
    records are pure sums plus a last-value gauge; an attached tracer
    receives each page's ``page_fault``, ``relocate_frame`` and
    ``cow_break`` records in that order.
    """
    machine = space.machine
    if machine.num_cpus > 1:
        return False  # SMP per-op dispatch serializes on the fault lock
    config = machine.config
    req = AccessKind.WRITE._req_bits
    note_of = space.note_of
    page_size = config.page_size
    breaks = []
    for vaddr in vaddrs:
        vpn = vaddr // page_size
        note = note_of(vpn)
        if not isinstance(note, ShareNote):
            return False
        if (int(note.orig_perms) & req) != req:
            return False  # the write still faults after the break
        breaks.append((vpn, note))
    phys = machine.phys
    frame_of = space.frame_of
    refcount = phys.refcount
    pending: Dict[int, int] = {}
    frames = [frame_of(vpn) for vpn, _note in breaks]
    copies = []  # indices of the pages whose frame is still shared
    for index, frame in enumerate(frames):
        if refcount(frame) - pending.get(frame, 0) > 1:
            pending[frame] = pending.get(frame, 0) + 1
            copies.append(index)
    if phys.alloc_budget(len(copies)) < len(copies):
        return False  # per-op dispatch reproduces the exact failing state
    count = len(breaks)
    _charge_each(machine, machine.costs.page_fault_ns, count, "page_fault")
    write = AccessKind.WRITE
    machine.emit("page_fault", count, counter=write._fault_counter,
                 metric=write._fault_obs, records=())
    copied: Dict[int, int] = {}  # page index -> its fresh private copy
    if copies:
        copied = dict(zip(copies, phys.copy_frames(
            [frames[index] for index in copies], preserve_tags=True)))
        machine.emit(n=len(copies), counter="fork_page_copies")
    # child-role pages may still hold parent-region capabilities:
    # relocate per region pair through the fork content memo (a last
    # sharer's frame is its own copy)
    groups: Dict[RegionPair, List[int]] = {}
    for index, (_vpn, note) in enumerate(breaks):
        if note.role == "child":
            groups.setdefault(note.regions, []).append(index)
    caps = [0] * count
    for regions, indices in groups.items():
        moved = relocate_copied_frames(
            machine, phys, [frames[index] for index in indices],
            [copied.get(index, frames[index]) for index in indices],
            regions)
        for index, relocated in zip(indices, moved):
            caps[index] = relocated
    for index, (vpn, note) in enumerate(breaks):
        dst = copied.get(index)
        if dst is None:
            space.privatize_page(vpn, note.orig_perms)
        else:
            phys.decref(frames[index])  # never frees: the peer holds it
            space.privatize_page(vpn, note.orig_perms, dst,
                                 decref_old=False)
    tallies: Dict[Tuple[str, CopyStrategy], int] = {}
    for _vpn, note in breaks:
        key = (note.role, note.strategy)
        tallies[key] = tallies.get(key, 0) + 1
    # parent breaks first, as the counters have always been keyed
    for (role, strategy), value in sorted(
            tallies.items(), key=lambda item: item[0][0] != "parent"):
        machine.emit("cow_break", value, counter=_WRITE_BREAK_COUNTER[role],
                     metric=_BREAK_METRIC[strategy, role, write],
                     records=())
    machine.emit(records=_write_break_records(space.name, vaddrs, breaks,
                                              caps))
    return True


def _write_break_records(space_name, vaddrs, breaks, caps):
    """The tracer stream of a bulk write-run break, in per-fault order:
    each page's ``page_fault``, ``relocate_frame`` (when capabilities
    moved) and ``cow_break``."""
    for vaddr, (vpn, note), moved in zip(vaddrs, breaks, caps):
        yield "page_fault", {"vaddr": vaddr, "kind": "write",
                             "space": space_name}
        if moved:
            yield "relocate_frame", {"caps": moved}
        fields = {"role": note.role, "vpn": vpn}
        if note.role == "child":
            fields["kind"] = "write"
        yield "cow_break", fields


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
        machine.emit(counter="fork_page_copies")
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
    for vpn, _frame, _perms, note in space.noted_mappings():
        if lo <= vpn < hi and isinstance(note, ShareNote) \
                and note.role == "child":
            machine.charge(machine.costs.page_fault_ns, "page_fault")
            _make_private(space, vpn, relocate=True, note=note)
            resolved += 1
    if resolved:
        machine.emit(n=resolved,
                     metric="core.strategies.resolved_pending_pages")
    return resolved


def iter_share_notes(space: AddressSpace):
    """Yield ``(vpn, frame, perms_int, note)`` for every still-shared
    page.

    Audit hook for the conformance invariants: a consistent kernel
    never leaves a :class:`ShareNote` whose frame has been freed, whose
    role is unknown, or whose restored permissions would be *narrower*
    than the current ones (sharing only ever removes permissions).

    Yields in ascending vpn order the raw PTE state of
    :meth:`AddressSpace.noted_mappings`.
    """
    for item in space.noted_mappings():
        if isinstance(item[3], ShareNote):
            yield item
