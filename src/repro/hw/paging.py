"""Address spaces: page-table state, access methods and fault dispatch.

An :class:`AddressSpace` is a page table bound to the machine's physical
memory.  The SASOS owns exactly one (kernel and every μprocess live in
it); the monolithic and VM-clone baselines create one per process.

Faults are the extension point that makes the μFork copy strategies
work: when an access violates page permissions (or hits an unmapped
page) the address space charges the fault cost and calls the registered
fault handler.  CoW, CoA and CoPA are all implemented as fault handlers
(:mod:`repro.core.strategies`, :mod:`repro.baselines.monolithic`); the
dedicated *capability-load* access kind models CHERI's
fault-on-capability-load page permission that CoPA requires (§4.2).

PTE state lives in dense per-chunk parallel arrays (docs/ARCHITECTURE.md
"Vectorized engine") — an ``array('q')`` of frame numbers, a
``bytearray`` of permission bits and a ``bytearray`` of CoW marks,
:data:`CHUNK` vpns per chunk — with the free-form ``note`` slot in a
sparse side dict.  There are no per-entry objects: callers read raw
``(vpn, frame, perms_int, cow, note)`` state through
:meth:`AddressSpace.mapped_items` / :meth:`AddressSpace.frame_of` /
:meth:`AddressSpace.noted_mappings` and write it through the single-vpn
ops (``map_page``/``protect_page``/``privatize_page``/``set_note``/
``unmap_page``) or their run forms (``map_run``/``protect_run``/
``unmap_range``).

Sweeps are *stable*: entries come out in ascending vpn order, so walks,
teardown frees and audits behave identically whatever the insertion
history.

Every one of those writes also appends its ``[lo_vpn, hi_vpn)`` to a
bounded *edit journal*, once per call.  :meth:`AddressSpace.journal_mark`
remembers a point in it and :meth:`AddressSpace.edits_since` lists the
vpn ranges written since, so a checker re-reads only those ranges of a
sweep it has already made (:func:`splice_edits`).

Callers outside :mod:`repro.hw` must stay on that surface and never
touch the chunk arrays; ``tests/test_memory_api_clean.py`` enforces the
contract by grep.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from enum import Enum, IntFlag, auto
from itertools import compress, count as _counter, repeat
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import events
from repro.cheri.capability import Capability
from repro.cheri.codec import CAP_SIZE
from repro.errors import (
    AlignmentFault,
    ProtectionError,
    UnmappedAddressError,
)
from repro.hw.phys import _ZEROS, Frame


class PagePerm(IntFlag):
    """Page-table permission bits."""

    NONE = 0
    READ = 1 << 0
    WRITE = 1 << 1
    EXEC = 1 << 2
    #: CHERI page permission: when absent, *loading a capability* from
    #: the page faults even though plain data loads succeed.  This is
    #: the hardware hook CoPA is built on.
    LOAD_CAP = 1 << 3

    @classmethod
    def rwc(cls) -> "PagePerm":
        return _PAGE_RWC

    @classmethod
    def read_only(cls) -> "PagePerm":
        return _PAGE_RO

    @classmethod
    def rx(cls) -> "PagePerm":
        return _PAGE_RX


#: precomputed composite page-permission constants (pure values that
#: skip IntFlag ``|`` member resolution on every call)
_PAGE_RWC = PagePerm.READ | PagePerm.WRITE | PagePerm.LOAD_CAP
_PAGE_RO = PagePerm.READ | PagePerm.LOAD_CAP
_PAGE_RX = PagePerm.READ | PagePerm.EXEC | PagePerm.LOAD_CAP


class AccessKind(Enum):
    READ = auto()
    WRITE = auto()
    EXEC = auto()
    #: a capability (tagged, 16-byte) load — distinct so the CoPA
    #: fault-on-capability-load bit can be modeled
    CAP_LOAD = auto()


_REQUIRED_PERM = {
    AccessKind.READ: PagePerm.READ,
    AccessKind.WRITE: PagePerm.WRITE,
    AccessKind.EXEC: PagePerm.EXEC,
    AccessKind.CAP_LOAD: PagePerm.READ | PagePerm.LOAD_CAP,
}

#: plain-int view of the required-permission masks — the cached walk
#: compares raw bits to skip IntFlag instantiation on every access
_REQUIRED_BITS = {kind: int(mask) for kind, mask in _REQUIRED_PERM.items()}

_ACCESS_NAME = {
    AccessKind.READ: "read",
    AccessKind.WRITE: "write",
    AccessKind.EXEC: "exec",
    AccessKind.CAP_LOAD: "cap_load",
}

# Per-member attributes precomputed for the fast paths: an attribute
# load skips both the Enum.__hash__ dict probe and the per-fault
# f-string formatting.
#
# ``_blocks`` maps each permission byte to 1 when it blocks the access
# and 0 when it allows it: ``perms.translate(kind._blocks)`` flags the
# blocked pages of a whole span in one C-level pass.
for _kind in AccessKind:
    _kind._req_bits = _REQUIRED_BITS[_kind]
    _kind._nm = _ACCESS_NAME[_kind]
    _kind._blocks = bytes(b & _kind._req_bits != _kind._req_bits
                          for b in range(256))
del _kind

#: raw permission-bit masks for the two byte-access kinds, hoisted for
#: the inline walk-cache probes in :meth:`AddressSpace.read`/``write``
_READ_BITS = AccessKind.READ._req_bits
_WRITE_BITS = AccessKind.WRITE._req_bits

#: pages a span must cover to be translated at once; a shorter one is
#: walked page by page through :meth:`AddressSpace.resolve`.  Measured
#: (CPython 3.11.7, 2-vCPU Linux host, best of 4 x 7 x 3,000 calls on
#: mapped, writable pages), span against walk: a 2-page read 3.7 and
#: 3.0 µs, a 2-page write 7.8 and 4.5; at 4 pages a read 4.2 and 5.5, a
#: write 8.5 and 8.2; at 12 pages a read 6.8 and 17.4, a write 11.3 and
#: 21.9 (the span stores one slice per bank run, the walk one
#: ``Frame.write`` a page)
_SPAN_MIN_PAGES = 4


#: vpns per page-table chunk (2^9 → a chunk covers 2 MiB
#: of VA at 4 KiB pages, one dict probe per chunk on the walk)
CHUNK_SHIFT = 9
CHUNK = 1 << CHUNK_SHIFT
_CHUNK_MASK = CHUNK - 1

#: template for freshly created chunks: every slot unmapped
_EMPTY_FRAMES = array("q", [-1]) * CHUNK

#: where a chunk slot's most significant byte sits in its 8-byte lane:
#: that byte is 0xff exactly when the slot holds -1 (unmapped), since
#: frame numbers are far below 2**56
_TOP_BYTE = 7 if sys.byteorder == "little" else 0
#: a slot's most significant byte -> 1 when the slot is mapped
_MAPPED_TOP = b"\x01" * 255 + b"\x00"

#: edit-journal entries kept before it starts a new epoch
JOURNAL_LIMIT = 1024

#: journal epochs, unique across every address space: a mark taken on
#: one space never matches another, or the same space after a reset
_EPOCHS = _counter()


def _drop_vpns(entries: Dict[int, Any], lo_vpn: int, hi_vpn: int) -> None:
    """Delete the keys in [lo, hi) of a vpn-keyed dict, walking
    whichever is smaller: the dict or the range."""
    if not entries:
        return
    if len(entries) < hi_vpn - lo_vpn:
        for vpn in [vpn for vpn in entries if lo_vpn <= vpn < hi_vpn]:
            del entries[vpn]
    else:
        pop = entries.pop
        for vpn in range(lo_vpn, hi_vpn):
            pop(vpn, None)


#: the vpn of a sweep row (``row[0]``)
_ROW_VPN = itemgetter(0)


def splice_edits(rows: List[Any], edits: Sequence[Tuple[int, int]],
                 fetch: Callable[[int, int], List[Any]],
                 paired: Optional[List[Any]] = None
                 ) -> Tuple[List[Any], Optional[List[Any]]]:
    """Refresh a vpn-ordered sweep: ``rows`` (ascending by ``row[0]``, a
    vpn) with the rows inside each of ``edits`` (disjoint, ascending
    ``[lo, hi)`` ranges, as :meth:`AddressSpace.edits_since` gives them)
    replaced by ``fetch(lo, hi)``.  ``paired``, a list parallel to
    ``rows``, is spliced alongside, with ``None`` for each fetched row.
    Returns the new ``(rows, paired)``."""
    out: List[Any] = []
    out_paired: Optional[List[Any]] = None if paired is None else []
    start = 0
    for lo, hi in edits:
        cut = bisect_left(rows, lo, start, key=_ROW_VPN)
        end = bisect_left(rows, hi, cut, key=_ROW_VPN)
        fresh = fetch(lo, hi)
        out += rows[start:cut]
        out += fresh
        if out_paired is not None:
            out_paired += paired[start:cut]
            out_paired += [None] * len(fresh)
        start = end
    out += rows[start:]
    if out_paired is not None:
        out_paired += paired[start:]
    return out, out_paired


#: fault handler: (space, vaddr, kind) -> True if resolved (retry access)
FaultHandler = Callable[["AddressSpace", int, AccessKind], bool]


class AddressSpace:
    """A page table plus access methods with fault dispatch.

    ``machine`` is any object exposing ``config``, ``costs``, ``clock``,
    ``counters``, ``phys`` and ``codec`` (see :class:`repro.machine.Machine`).
    """

    def __init__(self, machine: Any, name: str = "as") -> None:
        self.machine = machine
        self.name = name
        #: chunk id -> per-slot frame numbers (-1 = unmapped), permission
        #: bits and CoW marks; vpn -> note for the noted slots; chunk id
        #: -> mapped slots (a chunk is dropped when it empties)
        self._frames: Dict[int, array] = {}
        self._perms: Dict[int, bytearray] = {}
        self._cow: Dict[int, bytearray] = {}
        self._notes: Dict[int, Any] = {}
        self._chunk_len: Dict[int, int] = {}
        self.fault_handler: Optional[FaultHandler] = None
        #: optional bulk share-break hook for a blocked span and for
        #: :meth:`write_run`: called as ``hook(space, vaddrs, kind)``
        #: with the first access address of each blocked page, in
        #: access order; returns True when it broke them all (False
        #: leaves state untouched — per-fault dispatch follows)
        self.break_hook: Optional[Any] = None
        self._page_size = machine.config.page_size
        #: host-side page-walk cache: vpn -> (chunk perms bytearray,
        #: slot index, Frame).  Entries are only trusted while the
        #: generation stamp matches, the *live* permission byte is
        #: re-checked on every hit (so permission narrowing — CoW/CoPA
        #: sharing — can never be bypassed), and every single-vpn unmap
        #: or privatize replaces or pops exactly its own entry.  Only
        #: mapped vpns are ever cached, and every unmap drops its
        #: entries, so a vpn being mapped has none.
        self._walk_cache: Dict[int, Tuple[bytearray, int, Frame]] = {}
        #: generation of the cached entries: the machine-wide TLB
        #: flush/shootdown generation (cross-core invalidations clear
        #: the whole cache)
        self._walk_stamp = -1
        #: size -> int(round(memcpy_ns_per_byte * size)); sound because
        #: ``machine.costs`` is a frozen dataclass assigned once at
        #: machine construction
        self._charge_memo: Dict[int, int] = {}
        #: the edit journal: the ``(lo_vpn, hi_vpn)`` of each PTE or note
        #: write in this epoch, in order (an entry's sequence number is
        #: its index); cleared into a fresh epoch past
        #: :data:`JOURNAL_LIMIT` entries
        self._journal: List[Tuple[int, int]] = []
        self._journal_epoch = next(_EPOCHS)
        #: what the share-note check saw of this space last time
        #: (:mod:`repro.conform.invariants`); dies with the space
        self.share_sweep: Any = None

    # -- edit journal -------------------------------------------------------

    def _log_edit(self, lo_vpn: int, hi_vpn: int) -> None:
        journal = self._journal
        journal.append((lo_vpn, hi_vpn))
        if len(journal) > JOURNAL_LIMIT:
            journal.clear()
            self._journal_epoch = next(_EPOCHS)

    def journal_mark(self) -> Tuple[int, int]:
        """The journal's current point: ``(epoch, sequence number)``."""
        return self._journal_epoch, len(self._journal)

    def edits_since(self, mark: Tuple[int, int], lo_vpn: int,
                    hi_vpn: int) -> Optional[List[Tuple[int, int]]]:
        """The vpn ranges inside ``[lo_vpn, hi_vpn)`` that PTE or note
        writes logged after ``mark`` (a :meth:`journal_mark` of this
        space) may have touched: disjoint, ascending and clipped to the
        range.  ``None`` when ``mark`` is from another space or an older
        epoch.

        Outside the returned ranges, :meth:`mapped_items` and
        :meth:`noted_mappings` return what they returned at the mark.
        """
        epoch, seq = mark
        if epoch != self._journal_epoch:
            return None
        if seq == len(self._journal) or hi_vpn <= lo_vpn:
            return []
        touched = sorted((max(lo, lo_vpn), min(hi, hi_vpn))
                         for lo, hi in self._journal[seq:]
                         if lo < hi_vpn and lo_vpn < hi)
        merged: List[Tuple[int, int]] = []
        for lo, hi in touched:
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        return merged

    # -- chunk plumbing -----------------------------------------------------

    def _chunk_for(self, chunk_id: int) -> array:
        frames = self._frames.get(chunk_id)
        if frames is None:
            frames = self._frames[chunk_id] = array("q", _EMPTY_FRAMES)
            self._perms[chunk_id] = bytearray(CHUNK)
            self._cow[chunk_id] = bytearray(CHUNK)
            self._chunk_len[chunk_id] = 0
        return frames

    def _drop_chunk(self, chunk_id: int) -> None:
        del self._frames[chunk_id]
        del self._perms[chunk_id]
        del self._cow[chunk_id]
        del self._chunk_len[chunk_id]

    def _chunks_in(self, lo_vpn: int, hi_vpn: int) -> List[int]:
        """Ids of the live chunks overlapping [lo, hi), ascending."""
        chunks = self._frames
        lo_chunk = lo_vpn >> CHUNK_SHIFT
        hi_chunk = (hi_vpn + _CHUNK_MASK) >> CHUNK_SHIFT
        if hi_chunk - lo_chunk > len(chunks):
            return sorted(c for c in chunks if lo_chunk <= c < hi_chunk)
        return [c for c in range(lo_chunk, hi_chunk) if c in chunks]

    def _slot(self, vpn: int) -> Tuple[int, int, array]:
        """``(chunk id, index, chunk frames)`` of a mapped vpn; raises
        :class:`KeyError` when it is unmapped."""
        chunk_id = vpn >> CHUNK_SHIFT
        index = vpn & _CHUNK_MASK
        frames = self._frames.get(chunk_id)
        if frames is None or frames[index] < 0:
            raise KeyError(f"vpn {vpn:#x} not mapped")
        return chunk_id, index, frames

    # -- mapping ------------------------------------------------------------

    def map_page(self, vpn: int, frame: int, perms: PagePerm,
                 incref: bool = False, cow: bool = False,
                 note: Any = None) -> None:
        chunk_id = vpn >> CHUNK_SHIFT
        index = vpn & _CHUNK_MASK
        frames = self._chunk_for(chunk_id)
        if frames[index] >= 0:
            raise ValueError(f"vpn {vpn:#x} already mapped in {self.name}")
        self._log_edit(vpn, vpn + 1)
        if incref:
            self.machine.phys.incref(frame)
        frames[index] = frame
        self._perms[chunk_id][index] = int(perms)
        self._cow[chunk_id][index] = 1 if cow else 0
        if note is not None:
            self._notes[vpn] = note
        self._chunk_len[chunk_id] += 1
        # no walk-cache entry to drop: the cache only ever holds mapped
        # vpns, and this one was unmapped

    def unmap_page(self, vpn: int, decref: bool = True) -> int:
        chunk_id, index, frames = self._slot(vpn)
        self._log_edit(vpn, vpn + 1)
        frame = frames[index]
        frames[index] = -1
        self._perms[chunk_id][index] = 0
        self._cow[chunk_id][index] = 0
        self._notes.pop(vpn, None)
        remaining = self._chunk_len[chunk_id] - 1
        if remaining:
            self._chunk_len[chunk_id] = remaining
        else:
            self._drop_chunk(chunk_id)
        if decref:
            self.machine.phys.decref(frame)
        self._walk_cache.pop(vpn, None)
        return frame

    def protect_page(self, vpn: int, perms: PagePerm) -> None:
        chunk_id, index, _frames = self._slot(vpn)
        self._log_edit(vpn, vpn + 1)
        # in-place permission write: cached walk entries alias this
        # byte, so narrowing takes effect on their very next probe
        self._perms[chunk_id][index] = int(perms)

    def protect_run(self, start_vpn: int, count: int,
                    perms: PagePerm, cow: bool = False) -> None:
        """:meth:`protect_page` for ``count`` consecutive vpns, setting
        their CoW marks to ``cow`` too.

        Charge-free, like :meth:`protect_page`.  Validate-all-then-
        write: an unmapped vpn anywhere in the run raises before any
        permission changes; each chunk's span is then one slice write
        per array.
        """
        spans = []
        vpn = start_vpn
        remaining = count
        while remaining > 0:
            chunk_id = vpn >> CHUNK_SHIFT
            index = vpn & _CHUNK_MASK
            take = min(remaining, CHUNK - index)
            frames = self._frames.get(chunk_id)
            if frames is None or min(frames[index:index + take]) < 0:
                bad = next(v for v in range(vpn, vpn + take)
                           if frames is None
                           or frames[v & _CHUNK_MASK] < 0)
                raise KeyError(f"vpn {bad:#x} not mapped")
            spans.append((chunk_id, index, take))
            vpn += take
            remaining -= take
        if count > 0:
            self._log_edit(start_vpn, start_vpn + count)
        perm_byte = bytes([int(perms)])
        cow_byte = b"\x01" if cow else b"\x00"
        for chunk_id, index, take in spans:
            self._perms[chunk_id][index:index + take] = perm_byte * take
            self._cow[chunk_id][index:index + take] = cow_byte * take

    def privatize_page(self, vpn: int, perms: PagePerm,
                       new_frame: Optional[int] = None,
                       decref_old: bool = True) -> None:
        """Make ``vpn`` a private mapping: optionally repoint it at
        ``new_frame`` (decref'ing the old frame unless the caller already
        settled the refcount), set ``perms``, and clear the CoW mark and
        the share note — in one slot visit, because both kernels' CoW
        breaks (μFork's sharing faults, the baselines' classic CoW) run
        this once per broken page.
        """
        chunk_id, index, frames = self._slot(vpn)
        self._log_edit(vpn, vpn + 1)
        if new_frame is not None:
            if decref_old:
                self.machine.phys.decref(frames[index])
            frames[index] = new_frame
            # the cached tuple holds the *old* Frame object; install the
            # new translation (walk-cache entries are charge-free —
            # :meth:`resolve` — so this only skips a redundant walk,
            # never a simulated charge)
            if self.machine.translation_gen == self._walk_stamp:
                self._walk_cache[vpn] = (
                    self._perms[chunk_id], index,
                    self.machine.phys.frame(new_frame))
            else:
                self._walk_cache.pop(vpn, None)
        # in-place permission write: cached walk entries alias this byte
        # (see :meth:`protect_page`)
        self._perms[chunk_id][index] = int(perms)
        self._cow[chunk_id][index] = 0
        self._notes.pop(vpn, None)

    def privatize_pages(self, vpns: Sequence[int], perms: Sequence[Any],
                        frames: Sequence[int]) -> None:
        """:meth:`privatize_page` ``(vpn, perm, frame, decref_old=False)``
        for each ``(vpn, perm, frame)``; a ``frame`` equal to the mapped
        one keeps it.  One journal entry covers the batch, and its
        walk-cache entries are dropped, not reinstalled."""
        if not vpns:
            return
        self._log_edit(min(vpns), max(vpns) + 1)
        chunks = self._frames
        perms_map = self._perms
        cow_map = self._cow
        drop_note = self._notes.pop
        drop_walk = self._walk_cache.pop
        for vpn, perm, frame in zip(vpns, perms, frames):
            chunk_id, index, chunk = self._slot(vpn)
            chunk[index] = frame
            perms_map[chunk_id][index] = perm
            cow_map[chunk_id][index] = 0
            drop_note(vpn, None)
            drop_walk(vpn, None)

    # -- bulk mapping interface (docs/ARCHITECTURE.md "Vectorized engine") --

    def _windows(self, lo_vpn: int, hi_vpn: int
                 ) -> List[Tuple[int, int, int, List[Tuple[int, int]]]]:
        """``(chunk id, start, stop, runs)`` of each live chunk's slice
        ``[start, stop)`` of [lo, hi), ascending, with the ``[a, b)``
        slot runs of its mapped slots: the whole slice when the chunk
        is fully mapped, else read off each slot's top byte with one
        ``bytes.translate`` and a ``bytes.find`` per run edge."""
        chunk_len = self._chunk_len
        out = []
        for chunk_id in self._chunks_in(lo_vpn, hi_vpn):
            base = chunk_id << CHUNK_SHIFT
            start = max(lo_vpn - base, 0)
            stop = min(hi_vpn - base, CHUNK)
            runs = []
            if chunk_len[chunk_id] == CHUNK:
                runs.append((start, stop))
            else:
                mapped = self._frames[chunk_id][start:stop].tobytes()[
                    _TOP_BYTE::8].translate(_MAPPED_TOP)
                at = mapped.find(1)
                while at >= 0:
                    end = mapped.find(0, at)
                    end = len(mapped) if end < 0 else end
                    runs.append((start + at, start + end))
                    at = mapped.find(1, end)
            out.append((chunk_id, start, stop, runs))
        return out

    def mapped_columns(self, lo_vpn: int, hi_vpn: int
                       ) -> Tuple[List[int], array, bytearray, bytearray,
                                  Optional[List[Any]]]:
        """All mappings with ``lo_vpn <= vpn < hi_vpn``, ascending, as
        columns: ``(vpns, frames, perms, cows, notes)`` — vpn list,
        ``array('q')`` of frame numbers, ``bytearray``s of permission
        bits and CoW marks (0/1), and the note of each mapping, or
        ``None`` for the whole column when the space holds no note.

        The raw PTE state, so walkers (fork, teardown, accounting)
        sweep a region with no per-page call: each run of mapped slots
        of a chunk (a fully mapped chunk's window is one) is taken
        whole, one slice per column.
        """
        vpns: List[int] = []
        frames = array("q")
        perms = bytearray()
        cows = bytearray()
        for chunk_id, _start, _stop, runs in self._windows(lo_vpn, hi_vpn):
            base = chunk_id << CHUNK_SHIFT
            for start, stop in runs:
                vpns += range(base + start, base + stop)
                frames += self._frames[chunk_id][start:stop]
                perms += self._perms[chunk_id][start:stop]
                cows += self._cow[chunk_id][start:stop]
        notes = list(map(self._notes.get, vpns)) if self._notes else None
        return vpns, frames, perms, cows, notes

    def mapped_items(self, lo_vpn: int, hi_vpn: int
                     ) -> List[Tuple[int, int, int, bool, Any]]:
        """:meth:`mapped_columns` as rows: ``(vpn, frame, perms_int,
        cow, note)`` tuples, ascending — for walkers that keep or splice
        whole rows (the capability-flow audit)."""
        vpns, frames, perms, cows, notes = self.mapped_columns(lo_vpn, hi_vpn)
        return list(zip(vpns, frames, perms, map(bool, cows),
                        repeat(None) if notes is None else notes))

    def noted_mappings(self, lo_vpn: Optional[int] = None,
                       hi_vpn: Optional[int] = None
                       ) -> List[Tuple[int, int, int, Any]]:
        """``(vpn, frame, perms_int, note)`` for every mapped vpn with a
        note, ascending vpn; given ``[lo_vpn, hi_vpn)``, only those in it.

        The raw PTE state of the noted pages, like :meth:`mapped_items`,
        served from the sparse note dict — the share-note audit's sweep
        with no range.  A range walks whichever is smaller: the note
        dict or the range.
        """
        notes = self._notes
        if lo_vpn is None:
            noted = sorted(notes.items())
        elif hi_vpn - lo_vpn < len(notes):
            noted = [(vpn, notes[vpn]) for vpn in range(lo_vpn, hi_vpn)
                     if vpn in notes]
        else:
            noted = sorted(item for item in notes.items()
                           if lo_vpn <= item[0] < hi_vpn)
        chunks = self._frames
        perms = self._perms
        out: List[Tuple[int, int, int, Any]] = []
        for vpn, note in noted:
            chunk_id = vpn >> CHUNK_SHIFT
            frames = chunks.get(chunk_id)
            if frames is None:
                continue
            index = vpn & _CHUNK_MASK
            frame = frames[index]
            if frame >= 0:
                out.append((vpn, frame, perms[chunk_id][index], note))
        return out

    def map_run(self, start_vpn: int, frames: Sequence[int], perms: PagePerm,
                incref: bool = False, cow: bool = False,
                note: Any = None) -> None:
        """Map ``frames`` at consecutive vpns from ``start_vpn``.

        Equivalent to ``map_page`` per frame with the same arguments
        (including the already-mapped check), filled into the chunk
        arrays with slice stores (an ``array('q')`` of ``frames``, such
        as :meth:`PhysicalMemory.copy_frames` returns, as it is).
        """
        count = len(frames)
        if count == 0:
            return
        if type(frames) is not array:
            frames = array("q", frames)
        # logged first: a run failing its already-mapped check in a
        # later chunk keeps the chunks it already filled
        self._log_edit(start_vpn, start_vpn + count)
        perms_int = int(perms)
        cow_int = 1 if cow else 0
        phys = self.machine.phys
        position = 0
        vpn = start_vpn
        while position < count:
            chunk_id = vpn >> CHUNK_SHIFT
            index = vpn & _CHUNK_MASK
            take = min(CHUNK - index, count - position)
            chunk_frames = self._chunk_for(chunk_id)
            if chunk_frames[index:index + take] != _EMPTY_FRAMES[:take]:
                for slot in range(index, index + take):
                    if chunk_frames[slot] >= 0:
                        raise ValueError(
                            f"vpn {(chunk_id << CHUNK_SHIFT) + slot:#x} "
                            f"already mapped in {self.name}")
            if incref:
                phys.incref_many(frames[position:position + take])
            chunk_frames[index:index + take] = \
                frames[position:position + take]
            self._perms[chunk_id][index:index + take] = \
                bytes([perms_int]) * take
            if cow_int:
                self._cow[chunk_id][index:index + take] = b"\x01" * take
            if note is not None:
                notes = self._notes
                for offset in range(take):
                    notes[vpn + offset] = note
            # no walk-cache entry to drop: the cache only ever holds
            # mapped vpns, and these were unmapped
            self._chunk_len[chunk_id] += take
            vpn += take
            position += take

    def unmap_range(self, lo_vpn: int, hi_vpn: int,
                    decref: bool = True) -> int:
        """Unmap every mapping in [lo, hi); returns the count.

        Sweeps the chunk windows :meth:`mapped_columns` does: each
        window's frame numbers are sliced out run by run of mapped
        slots and the window slice-cleared (or the chunk is
        dropped whole when the window held all its mappings); the note
        and walk-cache entries of the range are dropped in one pass
        each.  Frames are released in ascending vpn order, one
        ``array('q')`` batch — the same free-list order the per-page
        ``unmap_page`` loop produces.
        """
        chunks = self._frames
        chunk_len = self._chunk_len
        released = array("q")
        for chunk_id, start, stop, runs in self._windows(lo_vpn, hi_vpn):
            if not runs:
                continue
            frames = chunks[chunk_id]
            before = len(released)
            for run_start, run_stop in runs:
                released += frames[run_start:run_stop]
            remaining = chunk_len[chunk_id] - (len(released) - before)
            if remaining:
                chunk_len[chunk_id] = remaining
                width = stop - start
                frames[start:stop] = _EMPTY_FRAMES[:width]
                self._perms[chunk_id][start:stop] = _ZEROS[:width]
                self._cow[chunk_id][start:stop] = _ZEROS[:width]
            else:
                self._drop_chunk(chunk_id)
        if not released:
            return 0
        self._log_edit(lo_vpn, hi_vpn)
        _drop_vpns(self._notes, lo_vpn, hi_vpn)
        _drop_vpns(self._walk_cache, lo_vpn, hi_vpn)
        if decref:
            self.machine.phys.decref_many(released)
        return len(released)

    # -- single-slot accessors ------------------------------------------------

    def frame_of(self, vpn: int) -> Optional[int]:
        """The frame mapped at ``vpn``, or None."""
        frames = self._frames.get(vpn >> CHUNK_SHIFT)
        if frames is None:
            return None
        frame = frames[vpn & _CHUNK_MASK]
        return frame if frame >= 0 else None

    def pte(self, vpn: int) -> Optional[Tuple[int, int, bool]]:
        """``(frame, perms_int, cow)`` of the mapping at ``vpn``, or
        None when it is unmapped."""
        frame = self.frame_of(vpn)
        if frame is None:
            return None
        chunk_id = vpn >> CHUNK_SHIFT
        index = vpn & _CHUNK_MASK
        return (frame, self._perms[chunk_id][index],
                self._cow[chunk_id][index] == 1)

    def note_of(self, vpn: int) -> Any:
        """The note stored at ``vpn`` (None when absent/unmapped)."""
        return self._notes.get(vpn)

    def set_note(self, vpn: int, note: Any) -> None:
        """Attach/replace/clear (``None``) the note of a mapped vpn."""
        self.set_note_many((vpn,), note)

    def set_note_many(self, vpns: Sequence[int], note: Any) -> None:
        """:meth:`set_note` for each vpn.

        Validate-all-then-write: an unmapped vpn anywhere in the batch
        raises before any note is touched.
        """
        for vpn in vpns:
            self._slot(vpn)
        if vpns:
            self._log_edit(min(vpns), max(vpns) + 1)
        notes = self._notes
        if note is None:
            for vpn in vpns:
                notes.pop(vpn, None)
        else:
            for vpn in vpns:
                notes[vpn] = note

    # -- translation with fault dispatch ---------------------------------------

    def resolve(self, vaddr: int, kind: AccessKind,
                privileged: bool = False) -> Tuple[Frame, int]:
        """Translate an address, dispatching faults at most once.

        Successful walks are served from a generation-stamped cache:
        one dict probe plus a raw permission-bit check against the live
        chunk byte.  The stamp folds in the machine's TLB
        flush/shootdown generation, so any cross-core invalidation drops
        every cached translation before it can be reused — the cache is
        host-side only and never changes fault dispatch order or SMP
        shootdown behaviour.
        """
        page_size = self._page_size
        vpn = vaddr // page_size
        stamp = self.machine.translation_gen
        if stamp != self._walk_stamp:
            self._walk_cache.clear()
            self._walk_stamp = stamp
        else:
            hit = self._walk_cache.get(vpn)
            if hit is not None:
                perms, index, frame = hit
                if privileged:
                    return frame, vaddr % page_size
                bits = kind._req_bits
                if (perms[index] & bits) == bits:
                    return frame, vaddr % page_size
        chunk_id = vpn >> CHUNK_SHIFT
        index = vpn & _CHUNK_MASK
        for attempt in (0, 1):
            frames = self._frames.get(chunk_id)
            if frames is not None and frames[index] >= 0:
                if privileged:
                    # only perm-complete walks are cached: a
                    # privileged bypass must never satisfy a later
                    # user access
                    return (self.machine.phys.frame(frames[index]),
                            vaddr % page_size)
                perms = self._perms[chunk_id]
                bits = kind._req_bits
                if (perms[index] & bits) == bits:
                    frame = self.machine.phys.frame(frames[index])
                    self._walk_cache[vpn] = (perms, index, frame)
                    return frame, vaddr % page_size
            if attempt == 1:
                break
            if not self._dispatch_fault(vaddr, kind):
                break
        if self.frame_of(vpn) is None:
            raise UnmappedAddressError(vaddr, kind._nm)
        raise ProtectionError(vaddr, kind._nm)

    def _dispatch_fault(self, vaddr: int, kind: AccessKind) -> bool:
        """Charge the fault and hand it to the registered handler.

        Observable as ``hw.paging.fault.<kind>`` counters — the
        ``cap_load`` kind counts CoPA's fault-on-capability-load traps.
        """
        machine = self.machine
        machine.clock.advance(machine.costs.page_fault_ns, "page_fault")
        machine.emit(events.PAGE_FAULT[kind._nm], vaddr=vaddr, kind=kind._nm,
                     space=self.name)
        if self.fault_handler is None:
            return False
        return self.fault_handler(self, vaddr, kind)

    # -- byte access ------------------------------------------------------------
    #
    # An access that crosses a page is copied with no walk when its
    # span is long enough and every page of it is mapped and allows the
    # access, after one bulk break of the pages that block it when the
    # break hook takes them all; otherwise it walks the span page by
    # page in address order, as one :meth:`resolve` per page would
    # (docs/ARCHITECTURE.md "Byte access").

    def _span_numbers(self, vaddr: int, size: int, kind: AccessKind,
                      privileged: bool,
                      may_break: bool = True) -> Optional[List[int]]:
        """The frame number of each page of ``[vaddr, vaddr + size)``,
        in address order, when each is mapped and (unless
        ``privileged``) allows ``kind``, if need be once
        :attr:`break_hook` has broken the pages that block it, offered
        in one call with the first address of each; else None.
        Host-side only unless that break commits: no fault, charge or
        cache entry."""
        page_size = self._page_size
        vpn = vaddr // page_size
        end_vpn = (vaddr + size - 1) // page_size + 1
        out: List[int] = []
        blocked: List[int] = []
        while vpn < end_vpn:
            chunk_id = vpn >> CHUNK_SHIFT
            frames = self._frames.get(chunk_id)
            if frames is None:
                return None
            lo = vpn & _CHUNK_MASK
            hi = min(CHUNK, lo + end_vpn - vpn)
            window = frames[lo:hi]
            if min(window) < 0:
                return None
            if not privileged:
                flags = self._perms[chunk_id][lo:hi].translate(kind._blocks)
                if 1 in flags:
                    if not may_break or self.break_hook is None:
                        return None
                    blocked += compress(range(vpn, vpn + hi - lo), flags)
            out += window
            vpn += hi - lo
        if not blocked:
            return out
        # a span that maps one frame twice walks: breaking one of its
        # pages ahead of the access to the other would change what that
        # access copies
        if len(set(out)) != len(out):
            return None
        vaddrs = [vpn * page_size for vpn in blocked]
        vaddrs[0] = max(vaddrs[0], vaddr)
        machine = self.machine
        machine.irq_depth += 1
        try:
            broken = self.break_hook(self, vaddrs, kind)
        finally:
            machine.irq_depth -= 1
        return self._span_numbers(vaddr, size, kind, privileged, False) \
            if broken else None

    def read(self, vaddr: int, size: int, privileged: bool = False,
             charge: bool = True) -> bytes:
        """Read bytes (may span pages)."""
        offset = vaddr % self._page_size
        if offset + size <= self._page_size:
            # single-page fast path: one frame read.  The walk-cache
            # probe, the frame read and the clock charge are all
            # inlined (bit-identical to the span path: same stamp +
            # raw perm-bit checks as the hit path in :meth:`resolve`,
            # same memcpy charge rounded through the memo); any miss
            # falls back to resolve.
            machine = self.machine
            frame = None
            if machine.translation_gen == self._walk_stamp:
                hit = self._walk_cache.get(vaddr // self._page_size)
                if hit is not None:
                    perms, index, frame = hit
                    if not privileged and \
                            (perms[index] & _READ_BITS) != _READ_BITS:
                        frame = None
            if frame is None:
                frame, offset = self.resolve(vaddr, AccessKind.READ,
                                             privileged)
            data = bytes(frame.data[offset:offset + size])
            if charge:
                ns_int = self._charge_memo.get(size)
                if ns_int is None:
                    ns_int = int(round(
                        machine.costs.memcpy_ns_per_byte * size))
                    self._charge_memo[size] = ns_int
                clock = machine.clock
                clock._now_ns += ns_int
                buckets = clock.buckets
                buckets["mem_read"] = buckets.get("mem_read", 0) + ns_int
            return data
        page_size = self._page_size
        numbers = None
        if offset + size > (_SPAN_MIN_PAGES - 1) * page_size:
            numbers = self._span_numbers(vaddr, size, AccessKind.READ,
                                         privileged)
        if numbers is not None:
            views = self.machine.phys.page_views(numbers)
            views[0] = views[0][offset:]
            views[-1] = views[-1][:(offset + size - 1) % page_size + 1]
            data = b"".join(views)
        else:
            # each page is copied as it is translated, before the next
            # page's fault dispatch can run
            pieces = []
            addr = vaddr
            end = vaddr + size
            while addr < end:
                frame, offset = self.resolve(addr, AccessKind.READ,
                                             privileged)
                take = min(end - addr, page_size - offset)
                pieces.append(frame.data[offset:offset + take].tobytes())
                addr += take
            data = b"".join(pieces)
        if charge:
            self.machine.clock.advance(
                self.machine.costs.memcpy_ns_per_byte * size, "mem_read"
            )
        return data

    def write(self, vaddr: int, data: bytes, privileged: bool = False,
              charge: bool = True) -> None:
        """Write bytes (may span pages); clears tags of touched granules."""
        offset = vaddr % self._page_size
        size = len(data)
        if offset + size <= self._page_size:
            # single-page fast path: skips the span bookkeeping.
            # Walk-cache probe, byte store + batched tag clear
            # (same cleared set as :meth:`Frame.write`) and the
            # memoised memcpy charge are all inlined, as in
            # :meth:`read`.
            machine = self.machine
            frame = None
            if machine.translation_gen == self._walk_stamp:
                hit = self._walk_cache.get(vaddr // self._page_size)
                if hit is not None:
                    perms, index, frame = hit
                    if not privileged and \
                            (perms[index] & _WRITE_BITS) != _WRITE_BITS:
                        frame = None
            if frame is None:
                frame, offset = self.resolve(vaddr, AccessKind.WRITE,
                                             privileged)
            frame._versions[frame.number] += 1
            frame.data[offset:offset + size] = data
            first = offset // CAP_SIZE
            count = (offset + size - 1) // CAP_SIZE + 1 - first
            if count > 0:
                frame.tags[first:first + count] = \
                    _ZEROS[:count] if count <= len(_ZEROS) \
                    else bytes(count)
            if charge:
                ns_int = self._charge_memo.get(size)
                if ns_int is None:
                    ns_int = int(round(
                        machine.costs.memcpy_ns_per_byte * size))
                    self._charge_memo[size] = ns_int
                clock = machine.clock
                clock._now_ns += ns_int
                buckets = clock.buckets
                buckets["mem_write"] = buckets.get("mem_write", 0) + ns_int
            return
        page_size = self._page_size
        addr = vaddr
        end = vaddr + size
        if offset + size > (_SPAN_MIN_PAGES - 1) * page_size:
            numbers = self._span_numbers(vaddr, size, AccessKind.WRITE,
                                         privileged)
            if numbers is not None:
                self.machine.phys.write_span(numbers, offset, data)
                addr = end
        # a span that is short or blocked resolves each page just
        # before its store, so a fault finds the earlier pages stored
        while addr < end:
            frame, offset = self.resolve(addr, AccessKind.WRITE, privileged)
            take = min(end - addr, page_size - offset)
            frame.write(offset, data[addr - vaddr:addr - vaddr + take])
            addr += take
        if charge:
            self.machine.clock.advance(
                self.machine.costs.memcpy_ns_per_byte * size, "mem_write"
            )

    def write_run(self, vaddrs: Sequence[int], data: bytes,
                  privileged: bool = False) -> None:
        """``write(vaddr, data)`` for each address, charges batched.

        Simulated-identical to the per-call loop: each address gets the
        same walk/fault dispatch in sequence order and the same cleared
        tag set; only the memcpy charge is batched, as the exact sum of
        the identical per-call rounded charges, so the clock and its
        buckets read as the per-call loop leaves them.
        """
        machine = self.machine
        size = len(data)
        page_size = self._page_size
        ns_int = self._charge_memo.get(size)
        if ns_int is None:
            ns_int = int(round(machine.costs.memcpy_ns_per_byte * size))
            self._charge_memo[size] = ns_int
        cache_get = self._walk_cache.get
        # one shot at the bulk CoW-break hook per run: on the first
        # blocked store, the rest of the run is classified and — when
        # every blocked page is a clean sharing break — broken in one
        # vectorized pass instead of one fault dispatch per page
        hook = None if privileged else self.break_hook
        count = 0
        check_perms = not privileged
        write_bits = _WRITE_BITS
        cap_size = CAP_SIZE
        zeros = _ZEROS
        zeros_len = len(_ZEROS)
        # the stamp can only move inside fault dispatch (hook/resolve),
        # so it is re-checked after those instead of per store
        stamp_ok = machine.translation_gen == self._walk_stamp
        for position, vaddr in enumerate(vaddrs):
            offset = vaddr % page_size
            if offset + size > page_size:
                # page-spanning store: the span path (charges itself)
                self.write(vaddr, data, privileged)
                stamp_ok = machine.translation_gen == self._walk_stamp
                continue
            frame = None
            if stamp_ok:
                hit = cache_get(vaddr // page_size)
                if hit is not None:
                    perms, index, frame = hit
                    if check_perms and \
                            (perms[index] & write_bits) != write_bits:
                        frame = None
            if frame is None:
                if hook is not None:
                    run_hook, hook = hook, None
                    blocked = self._blocked_write_vaddrs(vaddrs, position,
                                                         size)
                    if blocked:
                        machine.irq_depth += 1
                        try:
                            run_hook(self, blocked, AccessKind.WRITE)
                        finally:
                            machine.irq_depth -= 1
                frame, offset = self.resolve(vaddr, AccessKind.WRITE,
                                             privileged)
                stamp_ok = machine.translation_gen == self._walk_stamp
            frame._versions[frame.number] += 1
            frame.data[offset:offset + size] = data
            first = offset // cap_size
            tag_count = (offset + size - 1) // cap_size + 1 - first
            if tag_count > 0:
                frame.tags[first:first + tag_count] = \
                    zeros[:tag_count] if tag_count <= zeros_len \
                    else bytes(tag_count)
            count += 1
        if count:
            total = ns_int * count
            clock = machine.clock
            clock._now_ns += total
            buckets = clock.buckets
            buckets["mem_write"] = buckets.get("mem_write", 0) + total

    def _blocked_write_vaddrs(self, vaddrs: Sequence[int], start: int,
                              size: int) -> Optional[List[int]]:
        """The first store address in ``vaddrs[start:]`` of each page
        (first-occurrence order) whose current mapping blocks an
        unprivileged write — where per-op dispatch would fault.

        Purely a read-only probe for the bulk-break hook.  Returns None
        (caller falls back to per-fault dispatch) when the tail holds a
        page-spanning store or an unmapped page — cases whose faults
        must fire per-op, in sequence order.
        """
        chunks = self._frames
        perms_map = self._perms
        page_size = self._page_size
        seen = set()
        out: List[int] = []
        for vaddr in vaddrs[start:]:
            if vaddr % page_size + size > page_size:
                return None
            vpn = vaddr // page_size
            if vpn in seen:
                continue
            seen.add(vpn)
            chunk_id = vpn >> CHUNK_SHIFT
            index = vpn & _CHUNK_MASK
            frames = chunks.get(chunk_id)
            if frames is None or frames[index] < 0:
                return None
            if (perms_map[chunk_id][index] & _WRITE_BITS) != _WRITE_BITS:
                out.append(vaddr)
        return out

    # -- capability access ----------------------------------------------------------

    def load_cap(self, vaddr: int, privileged: bool = False) -> Capability:
        """Load one capability granule (subject to the CoPA fault bit)."""
        kind = AccessKind.CAP_LOAD
        frame, offset = self.resolve(vaddr, kind, privileged)
        return frame.load_cap(offset, self.machine.codec)

    def store_cap(self, vaddr: int, cap: Capability,
                  privileged: bool = False) -> None:
        frame, offset = self.resolve(vaddr, AccessKind.WRITE, privileged)
        frame.store_cap(offset, cap, self.machine.codec)

    def store_granules(self, vaddr: int, raw: bytes, tags: bytes) -> None:
        """Privileged, charge-free store of consecutive whole granules:
        ``raw`` at ``vaddr`` (granule aligned) and one validity byte per
        granule in ``tags`` — the image loader's page store.

        Per page touched: one :meth:`resolve`, one data slice store, one
        tag slice store and one ``version`` bump.  The bytes and tags
        left behind are those of :meth:`store_cap` per capability (and
        of a privileged :meth:`write` for an untagged granule).
        """
        if vaddr % CAP_SIZE or len(raw) != len(tags) * CAP_SIZE:
            raise AlignmentFault(
                f"granule store of {len(raw)} bytes and {len(tags)} tags "
                f"at {vaddr:#x}")
        page_size = self._page_size
        done = 0
        while done < len(raw):
            frame, offset = self.resolve(vaddr + done, AccessKind.WRITE,
                                         privileged=True)
            span = min(len(raw) - done, page_size - offset)
            first = offset // CAP_SIZE
            frame._versions[frame.number] += 1
            frame.data[offset:offset + span] = raw[done:done + span]
            frame.tags[first:first + span // CAP_SIZE] = \
                tags[done // CAP_SIZE:(done + span) // CAP_SIZE]
            done += span

    # -- accounting -----------------------------------------------------------------

    def resident_bytes(self, lo_vaddr: int, hi_vaddr: int,
                       proportional: bool = True) -> float:
        """Resident set of the VA range [lo, hi).

        With ``proportional`` (the paper's metric, §5.2) each mapped page
        contributes ``page_size / frame_refcount`` so memory shared with
        another process is split between its sharers.
        """
        page = self._page_size
        frames = self.mapped_columns(lo_vaddr // page,
                                     (hi_vaddr + page - 1) // page)[1]
        if proportional:
            return sum((page / count
                        for count in self.machine.phys.refcounts(frames)),
                       0.0)
        return float(page * len(frames))

    def mapped_pages(self, lo_vaddr: int, hi_vaddr: int) -> int:
        lo_vpn = lo_vaddr // self._page_size
        hi_vpn = (hi_vaddr + self._page_size - 1) // self._page_size
        return len(self.mapped_columns(lo_vpn, hi_vpn)[1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pages = sum(self._chunk_len.values())
        return f"AddressSpace({self.name!r}, pages={pages})"


# re-export for convenience
__all__ = [
    "AccessKind",
    "AddressSpace",
    "FaultHandler",
    "PagePerm",
    "CAP_SIZE",
    "splice_edits",
]
