"""Global offset table model (paper §3.7).

PIC code finds global objects through the GOT; each GOT entry is a
tagged capability to a global.  Because a child μprocess lives at a
different base address, the GOT is one of the page sets μFork copies
and relocates *eagerly* during fork (§3.5 step 1) — a stale GOT entry
would send the child straight into parent memory on its first global
access.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.cheri.capability import Capability, Perm
from repro.cheri.codec import CAP_SIZE


def init_got(space: Any, got_base: int, entries: int,
             region_cap: Capability, data_base: int, data_size: int,
             rodata_base: int, rodata_size: int) -> None:
    """Populate the GOT with capabilities to synthetic globals.

    Entries alternate between writable data globals and read-only
    rodata globals, 32 bytes apart, mirroring how a linked PIE's GOT
    points across its own segments.  Each entry is derived with its own
    ``set_bounds`` (the monotonicity check runs per entry) from the
    region root narrowed once per permission class; the table is then
    stored page by page (:func:`store_caps`).
    """
    data_rw = region_cap.and_perms(Perm.data_rw())
    data_ro = region_cap.and_perms(Perm.data_ro())
    data_span = max(32, data_size - 32)
    rodata_span = max(32, rodata_size - 32)
    caps = []
    for index in range(entries):
        if index % 2 == 0 and data_size >= 32:
            target = data_base + (index * 32) % data_span
            root = data_rw
        else:
            target = rodata_base + (index * 32) % rodata_span
            root = data_ro
        caps.append(root.set_bounds(target, 32).with_cursor(target))
    store_caps(space, got_base, caps)


def store_caps(space: Any, base: int, caps: Sequence[Capability]) -> None:
    """Privileged, charge-free store of ``caps`` at consecutive granules
    from ``base``: encoded in order (so the codec interns their
    metadata in order) and written with one
    :meth:`~repro.hw.paging.AddressSpace.store_granules` — one slice
    store per page instead of one ``store_cap`` per capability."""
    encode = space.machine.codec.encode
    space.store_granules(base, b"".join(map(encode, caps)),
                         bytes(1 if cap.valid else 0 for cap in caps))


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
