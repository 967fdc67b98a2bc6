"""μprocess migration and virtual-address-space compaction.

Paper §6 ("Fragmentation") notes that long-running systems forking many
μprocesses could fragment the VA window, and sketches "compacting the
virtual address space periodically" as future work.  This module
implements that: because μFork already knows how to find and rebase
every absolute reference via tags, *moving* a live μprocess is the same
machinery as forking one — minus the duplicate.

``migrate`` moves one μprocess to a freshly reserved area on fork's
bulk page path: one ``copy_frames`` gives the mover a private copy of
every page a forked child still shares (the child keeps the original
frame, whose fork-time note knows how to relocate it), exactly like a
parent-side CoW break; ``relocate_copied_frames`` relocates the copies
and, in place, the mover's own frames; ``map_run`` maps the new area,
MAP_SHARED pages on their same frames without relocation.  The
registers are relocated like a forked child's.  Every allocation
happens in that one ``copy_frames``, before anything is touched, so a
migration that runs out of frames gives back its VA reservation and
leaves the μprocess as it was.

``compact`` walks live μprocesses in address order migrating each to
the lowest-fitting hole, squeezing out fragmentation.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.chaos.recovery import Transaction
from repro.core.relocate import (RegionPair, _charge_each, record_flow,
                                 relocate_copied_frames, relocate_registers)
from repro.core.strategies import ShareNote, resolve_all_pending
from repro.hw.paging import PagePerm
from repro.hw.phys import consecutive_runs
from repro.kernel.task import Process


def migrate(os: Any, proc: Process) -> int:
    """Move ``proc`` to a newly reserved contiguous area.

    Returns the new region base.  The old area is released.  Capability
    values previously read out of registers/memory by user code are
    stale afterwards (as with a compacting GC); code must re-derive
    pointers from its (relocated) registers.  A migration that fails
    (out of frames) releases the new area and raises, leaving ``proc``
    untouched.
    """
    machine = os.machine
    phys = machine.phys
    space = os.space
    page = machine.config.page_size
    machine.charge(machine.costs.ufork_fixed_ns, "migrate_fixed")

    # Stabilize: pages still shared *from our parent* are resolved so
    # every capability reachable from this μprocess points into it.
    resolve_all_pending(space, proc.region_base, proc.region_top)

    old_base, old_top = proc.region_base, proc.region_top
    size = old_top - old_base
    tx = Transaction()
    new_base = os.vspace.reserve(size)
    tx.on_abort(lambda: os.vspace.release(new_base))
    regions = RegionPair(parent_base=old_base, parent_top=old_top,
                         child_base=new_base, child_top=new_base + size)
    delta_pages = (new_base - old_base) // page
    shm_vpns = getattr(proc, "shm_vpns", set())

    items = space.mapped_items(old_base // page, old_top // page)
    moved = [index for index, item in enumerate(items)
             if item[0] not in shm_vpns]
    shared = [index for index in moved if phys.refcount(items[index][1]) > 1]
    try:
        copies = phys.copy_frames([items[index][1] for index in shared],
                                  preserve_tags=True)
    except Exception:
        tx.rollback()
        raise
    tx.commit()

    # from here nothing can fail: relocate, map the new area, drop the old
    frames = [item[1] for item in items]
    for index, copy in zip(shared, copies):
        frames[index] = copy
    caps = relocate_copied_frames(machine, phys,
                                  [items[index][1] for index in moved],
                                  [frames[index] for index in moved],
                                  regions)
    machine.emit(records=(("relocate_frame", {"caps": count})
                          for count in caps if count))
    if copies:
        machine.emit(n=len(copies), counter="migrate_page_copies")
    # pages go back to their pre-share permissions; every frame but a
    # fresh copy takes a reference balancing the old mapping's release
    fresh = set(copies)
    keys = [(int(item[4].orig_perms) if isinstance(item[4], ShareNote)
             else item[2], frame not in fresh)
            for item, frame in zip(items, frames)]
    for start, end in consecutive_runs([item[0] for item in items], keys):
        perms, incref = keys[start]
        space.map_run(items[start][0] + delta_pages, frames[start:end],
                      PagePerm(perms), incref=incref)
    if len(items) > len(copies):
        _charge_each(machine, machine.costs.pte_copy_ns,
                     len(items) - len(copies), "migrate_pte")

    os._release_region(proc)

    # post-move phase: identity and roots
    os._place_like(proc, proc, new_base - old_base)
    os._register_demand_heap(proc)
    for task in proc.tasks:
        relocate_registers(machine, task.registers, regions)
    os._attach_allocator(proc, type(proc.allocator),
                         proc.allocator.max_blocks)
    machine.emit("migrate", counter="migrations", pid=proc.pid,
                 old_base=old_base, new_base=new_base, pages=len(items))
    record_flow(machine, "migrate", proc.pid, proc.pid,
                proc.region_base, proc.region_top)
    return new_base


def compact(os: Any) -> List[Tuple[int, int, int]]:
    """Compact the μprocess window: migrate live μprocesses, lowest
    first, into the lowest holes.  Returns [(pid, old_base, new_base)]
    for every μprocess that moved."""
    moves: List[Tuple[int, int, int]] = []
    for proc in sorted(os.procs.alive(), key=lambda p: p.region_base):
        old_base = proc.region_base
        # first-fit reservation returns the lowest hole; if that is not
        # below us, we are already packed — undo and continue.
        size = proc.region_size
        probe = os.vspace.reserve(size)
        os.vspace.release(probe)
        if probe >= old_base:
            continue
        new_base = migrate(os, proc)
        moves.append((proc.pid, old_base, new_base))
    return moves
