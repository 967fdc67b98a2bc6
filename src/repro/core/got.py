"""Global offset table model (paper §3.7).

PIC code finds global objects through the GOT; each GOT entry is a
tagged capability to a global.  Because a child μprocess lives at a
different base address, the GOT is one of the page sets μFork copies
and relocates *eagerly* during fork (§3.5 step 1) — a stale GOT entry
would send the child straight into parent memory on its first global
access.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, List, Sequence

from repro.cheri.capability import Capability, Perm
from repro.cheri.codec import CAP_SIZE, CURSOR_MASK, GRANULE


def init_got(space: Any, got_base: int, entries: int,
             region_cap: Capability, data_base: int, data_size: int,
             rodata_base: int, rodata_size: int) -> None:
    """Populate the GOT with capabilities to synthetic globals.

    Entries alternate between writable data globals and read-only
    rodata globals, 32 bytes apart, mirroring how a linked PIE's GOT
    points across its own segments.  Each entry is what ``set_bounds``
    of the region root narrowed to its permission class would derive;
    the table is minted and stored by :func:`store_pointers` (one
    monotonicity check per permission class, with the per-entry fault).
    """
    data_rw = region_cap.and_perms(Perm.data_rw())
    data_ro = region_cap.and_perms(Perm.data_ro())
    data_span = max(32, data_size - 32)
    rodata_span = max(32, rodata_size - 32)
    if data_size >= 32:
        roots = ([data_rw, data_ro] * ((entries + 1) // 2))[:entries]
    else:
        roots = [data_ro] * entries
    targets = [data_base + (index * 32) % data_span if root is data_rw
               else rodata_base + (index * 32) % rodata_span
               for index, root in enumerate(roots)]
    store_pointers(space, got_base, roots, targets, 32)


def store_pointers(space: Any, base: int, roots: Sequence[Capability],
                   targets: Sequence[int], length: int) -> None:
    """Privileged, charge-free store at consecutive granules from
    ``base`` of ``roots[i].set_bounds(targets[i], length)
    .with_cursor(targets[i])`` for every ``i``, minted as packed
    ``(cursor, meta id)`` granules: no :class:`Capability` is built.

    Monotonicity is checked once per distinct root (permission class)
    over the minimum and maximum of its targets; if any class fails,
    the per-entry derivation is replayed in entry order, so the fault
    raised (``MonotonicityFault``, or ``SealFault``/``BoundsFault``)
    and its message are those of the first offending entry, and
    nothing is interned or stored.  The metadata is interned in entry
    order, as encoding the derived capabilities one by one would, and
    the table is written with one
    :meth:`~repro.hw.paging.AddressSpace.store_granules` — one slice
    store per page.
    """
    keys = list(map(id, roots))
    kinds = {}
    for key, root in dict(zip(keys, roots)).items():
        mine = list(compress(targets, map(key.__eq__, keys)))
        if (root.is_sealed or length < 0 or min(mine) < root.base
                or max(mine) + length > root.top):
            for owner, target in zip(roots, targets):
                owner.set_bounds(target, length)
        kinds[key] = (int(root.perms), root.otype, 1 if root.valid else 0)
    entry_kinds = list(map(kinds.__getitem__, keys))
    intern = space.machine.codec.intern
    ids = [intern((target, length, perms, otype))
           for target, (perms, otype, _tag) in zip(targets, entry_kinds)]
    space.store_granules(
        base,
        b"".join(map(GRANULE.pack,
                     [target & CURSOR_MASK for target in targets], ids)),
        bytes([tag for _perms, _otype, tag in entry_kinds]))


def read_got(space: Any, got_base: int, entries: int,
             privileged: bool = False) -> List[Capability]:
    """Read all GOT entries (a child doing this exercises relocation)."""
    return [
        space.load_cap(got_base + index * CAP_SIZE, privileged=privileged)
        for index in range(entries)
    ]


def got_confined(space: Any, got_base: int, entries: int,
                 region_base: int, region_top: int) -> bool:
    """Verification helper: every GOT entry points inside the region."""
    for cap in read_got(space, got_base, entries, privileged=True):
        if not cap.valid:
            continue
        if cap.base < region_base or cap.top > region_top:
            return False
    return True
