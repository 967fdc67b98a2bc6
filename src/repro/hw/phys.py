"""Tagged physical memory.

Physical memory is a pool of page-sized :class:`Frame` objects.  Each
frame carries, next to its data bytes, one validity-tag bit per 16-byte
granule — the CHERI tagged memory μFork's relocation scan relies on
(§3.4, building block 3).  The tag invariants enforced here:

* a granule's tag is set only by a legitimate capability store;
* **any** raw byte store overlapping a granule clears its tag;
* copying a frame through the kernel's capability-aware copy preserves
  tags; byte-wise copies do not.

Frames are reference counted so copy-on-write style sharing (all three
μFork strategies, and the monolithic baseline's classic CoW) can be
accounted precisely — the proportional-resident-set numbers in Figs 5
and 8 come straight from these refcounts.

Storage is a **banked flat store** (docs/ARCHITECTURE.md "Vectorized
engine"): data bytes and granule tags live in machine-wide per-bank
arenas (:data:`BANK_FRAMES` frames per bank; data in a mapping the host
zero-fills on first touch, tags in a ``bytearray``) and each
``Frame`` holds ``memoryview`` windows into its bank, so frame copies,
tag clears and the relocation scan are C-level slice/``find``
operations over the flat tag bitmap.  Fork's batch primitives work on
bank runs (consecutive slots of one bank):
:meth:`PhysicalMemory.copy_frames` copies a run with one data and one
tag slice store and :meth:`PhysicalMemory.tagged_frames` finds a run's
tagged frames with one ``find``.  The image loader takes a segment's
frames with one :meth:`PhysicalMemory.alloc_run`.
"""

from __future__ import annotations

import itertools
import mmap
from operator import sub
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.cheri.capability import Capability
from repro.cheri.codec import CAP_SIZE, CapabilityCodec
from repro.clock import SimClock
from repro.errors import AlignmentFault, OutOfMemory
from repro.params import CostModel, MachineConfig

#: shared immutable zero-run used for batched tag clears
_ZEROS = bytes(4096)

#: frames per storage bank; banks are allocated on demand and **never
#: resized** (resizing would invalidate the outstanding ``memoryview``
#: windows)
BANK_FRAMES = 512


def _zeroed_arena(size: int) -> Any:
    """A writable, zero-filled buffer of ``size`` bytes whose pages the
    host maps on first touch: a private anonymous mapping where there
    is one (``bytearray(size)`` writes every page up front, which is
    most of a fresh bank's cost when a frame only gets a few granules),
    else a ``bytearray``."""
    if hasattr(mmap, "MAP_PRIVATE"):
        return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    return bytearray(size)  # pragma: no cover - hosts without mmap flags


def _zeros(count: int) -> bytes:
    return _ZEROS[:count] if count <= len(_ZEROS) else bytes(count)


class Frame:
    """One physical page: data bytes plus per-granule validity tags.

    ``data`` and ``tags`` are ``memoryview`` windows into the
    machine-wide banked store (a frame built directly, outside any
    :class:`PhysicalMemory`, owns its ``bytearray`` buffers instead;
    every access method works identically on both).
    ``_tag_store``/``_tag_base`` address this frame's granule run inside
    the flat tag bitmap so the relocation scan can use the underlying
    ``bytearray.find`` (memchr) even through a view.
    """

    __slots__ = ("data", "tags", "refcount", "version", "_tag_store",
                 "_tag_base")

    def __init__(self, page_size: int, granules: int) -> None:
        self.data = bytearray(page_size)
        self.tags = bytearray(granules)
        self.refcount = 1
        #: content generation: bumped by every mutation of ``data`` or
        #: ``tags`` (including the inlined stores in
        #: :mod:`repro.hw.paging` and the free-time scrub), so content
        #: memos — the fork-time relocated-page cache — can key on
        #: ``(number, version)`` and never serve stale bytes
        self.version = 0
        self._tag_store = self.tags
        self._tag_base = 0

    @classmethod
    def _bank_view(cls, data_view, tags_view, tag_store: bytearray,
                   tag_base: int) -> "Frame":
        """A frame windowing the banked store."""
        frame = object.__new__(cls)
        frame.data = data_view
        frame.tags = tags_view
        frame.refcount = 1
        frame.version = 0
        frame._tag_store = tag_store
        frame._tag_base = tag_base
        return frame

    # -- byte access ---------------------------------------------------

    def read(self, offset: int, size: int) -> bytes:
        return bytes(self.data[offset:offset + size])

    def write(self, offset: int, data: bytes) -> None:
        """Raw byte store: clears tags of every overlapped granule
        (one C-level slice store over the granule run)."""
        self.version += 1
        self.data[offset:offset + len(data)] = data
        first = offset // CAP_SIZE
        last = (offset + len(data) - 1) // CAP_SIZE
        count = last + 1 - first
        if count > 0:
            self.tags[first:last + 1] = _zeros(count)

    # -- capability access -----------------------------------------------

    def load_cap(self, offset: int, codec: CapabilityCodec) -> Capability:
        if offset % CAP_SIZE:
            raise AlignmentFault(f"capability load at offset {offset:#x}")
        raw = bytes(self.data[offset:offset + CAP_SIZE])
        valid = bool(self.tags[offset // CAP_SIZE])
        return codec.decode(raw, valid)

    def store_cap(self, offset: int, cap: Capability,
                  codec: CapabilityCodec) -> None:
        if offset % CAP_SIZE:
            raise AlignmentFault(f"capability store at offset {offset:#x}")
        self.version += 1
        self.data[offset:offset + CAP_SIZE] = codec.encode(cap)
        self.tags[offset // CAP_SIZE] = 1 if cap.valid else 0

    def write_granule(self, offset: int, raw: bytes, tag: int) -> None:
        """Store one already-encoded granule plus its validity tag.

        The relocation sweep's write-back primitive: unlike
        :meth:`store_cap` it takes the 16 raw bytes (the memoised
        encoder output) so bulk rewrites skip re-encoding.
        """
        if offset % CAP_SIZE:
            raise AlignmentFault(f"granule store at offset {offset:#x}")
        self.version += 1
        self.data[offset:offset + CAP_SIZE] = raw
        self.tags[offset // CAP_SIZE] = 1 if tag else 0

    def tagged_granules(self) -> List[int]:
        """Offsets of granules currently holding valid capabilities.

        Scans the flat tag bitmap with ``bytearray.find`` (a C memchr
        loop) — on the common mostly-untagged frame this is the
        relocation scan's hot loop.
        """
        out: List[int] = []
        store = self._tag_store
        base = self._tag_base
        end = base + len(self.tags)
        index = store.find(1, base, end)
        while index >= 0:
            out.append((index - base) * CAP_SIZE)
            index = store.find(1, index + 1, end)
        return out

    def clear_tags_range(self, lo_offset: int, hi_offset: int) -> None:
        """Clear the tags of every granule overlapping [lo, hi)."""
        if hi_offset <= lo_offset:
            return
        self.version += 1
        first = lo_offset // CAP_SIZE
        last = (hi_offset - 1) // CAP_SIZE
        count = last + 1 - first
        self.tags[first:last + 1] = _zeros(count)

    def snapshot_content(self) -> Tuple[bytes, bytes]:
        """Immutable ``(data, tags)`` copy of the whole page.

        The content-memo primitive: paired with :meth:`restore_content`
        it lets fork's relocated-page cache replay a page without ever
        reaching into the frame's storage representation.
        """
        return bytes(self.data), bytes(self.tags)

    def restore_content(self, data: bytes, tags: bytes) -> None:
        """Overwrite the whole page's bytes and granule tags."""
        self.version += 1
        self.data[:] = data
        self.tags[:] = tags

    def copy_from(self, other: "Frame", preserve_tags: bool = True) -> None:
        """Copy another frame's contents (kernel capability-aware copy)."""
        self.version += 1
        self.data[:] = other.data
        if preserve_tags:
            self.tags[:] = other.tags
        else:
            self.tags[:] = _zeros(len(self.tags))


class PhysicalMemory:
    """Frame allocator with refcounting and allocation accounting.

    Observability: allocation/copy/free events are counted under
    ``hw.phys.*`` and the live frame count is kept in the
    ``hw.phys.allocated_frames`` gauge (see docs/OBSERVABILITY.md).
    """

    def __init__(self, config: MachineConfig, costs: CostModel,
                 clock: SimClock, emit: Callable[..., None],
                 obs=None) -> None:
        from repro.chaos.engine import NULL_CHAOS
        from repro.obs import NULL_OBS
        self._config = config
        self._costs = costs
        self._clock = clock
        self._emit = emit
        self._obs = obs if obs is not None else NULL_OBS
        #: fault injection hook (ChaosEngine.attach replaces the null)
        self.chaos = NULL_CHAOS
        self._frames: Dict[int, Frame] = {}
        self._free: List[int] = []
        self._next_frame = 1
        self._capacity_frames = config.dram_bytes // config.page_size
        # per-bank data/tag arenas plus hoisted memoryviews (slicing a
        # memoryview is cheaper than taking a fresh view of the
        # bytearray per frame); a data view holds its arena alive
        self._tag_banks: List[bytearray] = []
        self._data_views: List[memoryview] = []
        self._tag_views: List[memoryview] = []
        # frame-object reuse pool: a freed number's Frame keeps its
        # (immutable) bank-window views, so realloc of the same number
        # can revive the object instead of re-slicing the views
        self._frame_pool: Dict[int, Frame] = {}
        # deferred scrub: freeing leaves the slot's stale bytes in the
        # bank (listed here) and the scrub happens only on a later
        # ``zero=True`` allocation of the same number.  Sound because
        # ``alloc(zero=False)`` content is *unspecified* — every caller
        # (frame copy, snapshot restore) fully overwrites data and tags
        # before the frame is readable — and a freed frame is
        # unreachable (not in ``_frames``) until realloc'd.
        self._stale: set = set()
        #: pre-rounded integral per-page copy charge for the bulk path
        self._page_copy_int = int(round(costs.page_copy_ns(config.page_size)))

    # -- allocation ------------------------------------------------------

    def _make_frame(self, number: int) -> Frame:
        pooled = self._frame_pool.get(number)
        if pooled is not None:
            pooled.refcount = 1
            return pooled
        page_size = self._config.page_size
        granules = self._config.granules_per_page
        bank, slot = divmod(number - 1, BANK_FRAMES)
        while bank >= len(self._data_views):
            self._data_views.append(
                memoryview(_zeroed_arena(BANK_FRAMES * page_size)))
            self._tag_banks.append(bytearray(BANK_FRAMES * granules))
            self._tag_views.append(memoryview(self._tag_banks[-1]))
        d0 = slot * page_size
        t0 = slot * granules
        frame = Frame._bank_view(
            self._data_views[bank][d0:d0 + page_size],
            self._tag_views[bank][t0:t0 + granules],
            self._tag_banks[bank], t0,
        )
        self._frame_pool[number] = frame
        return frame

    def alloc(self, zero: bool = True, charge: bool = True) -> int:
        """Allocate one frame; returns its frame number."""
        if len(self._frames) >= self._capacity_frames:
            raise OutOfMemory("physical memory exhausted")
        if self.chaos.enabled and self.chaos.should_fire("hw.phys.alloc_fail"):
            from repro.chaos.faults import InjectedAllocFailure
            raise InjectedAllocFailure("injected frame-allocation failure")
        if self._free:
            number = self._free.pop()
        else:
            number = self._next_frame
            self._next_frame += 1
        frame = self._make_frame(number)
        self._frames[number] = frame
        if zero and number in self._stale:
            # deferred free-time scrub lands here: the caller asked for
            # a zeroed frame and this slot still holds freed content
            frame.version += 1
            frame.data[:] = _zeros(len(frame.data))
            frame.tags[:] = _zeros(len(frame.tags))
            self._stale.discard(number)
        if zero and charge:
            self._clock.advance(self._costs.page_zero_ns, "page_zero")
        self._emit(counter="frames_allocated",
                   metric="hw.phys.frames_allocated")
        self._obs.gauge_set("hw.phys.allocated_frames", len(self._frames))
        return number

    def frame(self, number: int) -> Frame:
        frame = self._frames.get(number)
        if frame is None:
            raise KeyError(f"no such frame {number}")
        return frame

    def _require_allocated(self, numbers: Sequence[int]) -> None:
        """Raise :meth:`frame`'s ``KeyError`` for the first of
        ``numbers`` that is not allocated."""
        frames = self._frames
        if not all(map(frames.__contains__, numbers)):
            self.frame(next(n for n in numbers if n not in frames))

    def incref(self, number: int) -> None:
        self.frame(number).refcount += 1

    def decref(self, number: int) -> None:
        frame = self.frame(number)
        frame.refcount -= 1
        if frame.refcount == 0:
            # the scrub is deferred to a later zero-allocation of this
            # number (see ``_stale``)
            self._stale.add(number)
            del self._frames[number]
            self._free.append(number)
            self._emit(counter="frames_freed",
                       metric="hw.phys.frames_freed")
            self._obs.gauge_set("hw.phys.allocated_frames", len(self._frames))
        elif frame.refcount < 0:  # pragma: no cover - invariant guard
            raise AssertionError(f"frame {number} refcount underflow")

    def decref_many(self, numbers: Sequence[int]) -> None:
        """:meth:`decref` for a batch, in order (fork teardown's path).

        Identical refcount/free-list evolution; the freed-frame counter
        and gauge updates are batched into sum-equal / last-value-equal
        updates.  When :meth:`decref` has been overridden (fault
        injection, instrumented subclasses) the batch defers to it
        per number so the override observes every release.
        """
        if type(self).decref is not _BASE_DECREF:
            for number in numbers:
                self.decref(number)
            return
        frames = self._frames
        free = self._free
        stale = self._stale
        freed = 0
        for number in numbers:
            frame = frames.get(number)
            if frame is None:
                raise KeyError(f"no such frame {number}")
            rc = frame.refcount - 1
            frame.refcount = rc
            if rc == 0:
                stale.add(number)
                del frames[number]
                free.append(number)
                freed += 1
            elif rc < 0:  # pragma: no cover - invariant guard
                raise AssertionError(f"frame {number} refcount underflow")
        if freed:
            self._emit(n=freed, counter="frames_freed",
                       metric="hw.phys.frames_freed")
            self._obs.gauge_set("hw.phys.allocated_frames", len(frames))

    def refcount(self, number: int) -> int:
        return self.frame(number).refcount

    def free_frames(self) -> int:
        """Frames still allocatable before :class:`OutOfMemory`."""
        return self._capacity_frames - len(self._frames)

    def alloc_budget(self, count: int) -> int:
        """How many of the next ``count`` single :meth:`alloc` calls
        would succeed, consuming nothing: the first failure is the
        first past capacity or, before that, the first
        ``hw.phys.alloc_fail`` draw that fires (:meth:`alloc` checks in
        that order)."""
        return self.chaos.lookahead("hw.phys.alloc_fail",
                                    min(count, self.free_frames()))

    # -- kernel copy -------------------------------------------------------

    def copy_frame(self, src: int, preserve_tags: bool = True,
                   charge: bool = True) -> int:
        """Allocate a new frame and copy ``src`` into it."""
        dst = self.alloc(zero=False, charge=False)
        self.frame(dst).copy_from(self.frame(src), preserve_tags)
        if charge:
            # pre-rounded in __init__; advance re-rounds idempotently,
            # so the charge is bit-equal to rounding page_copy_ns here
            self._clock.advance(self._page_copy_int, "page_copy")
        if preserve_tags and self.chaos.enabled and \
                self.chaos.should_fire("hw.phys.tag_clear"):
            self._recover_tag_clear(src, dst, charge)
        self._emit(counter="frames_copied", metric="hw.phys.frames_copied")
        return dst

    def cow_copy(self, src: int) -> int:
        """:meth:`copy_frame` ``(src, preserve_tags=True)`` with the
        allocation inlined — the CoW-break fast path.  Identical
        accounting (capacity check, charge, counters, gauge); chaos
        falls back to the layered call so injected faults fire exactly
        as they do there.
        """
        if self.chaos.enabled:
            return self.copy_frame(src, preserve_tags=True)
        frames = self._frames
        if len(frames) >= self._capacity_frames:
            raise OutOfMemory("physical memory exhausted")
        free = self._free
        if free:
            number = free.pop()
        else:
            number = self._next_frame
            self._next_frame += 1
        frame = self._frame_pool.get(number)
        if frame is None:
            frame = self._make_frame(number)
        else:
            frame.refcount = 1
        frames[number] = frame
        frame.copy_from(frames[src], True)
        self._clock.advance(self._page_copy_int, "page_copy")
        self._settle_copies(1)
        return number

    def copy_frames(self, srcs: Sequence[int], preserve_tags: bool = True,
                    charge: bool = True) -> List[int]:
        """Bulk :meth:`copy_frame`, copied by bank run.

        The destinations are the numbers ``len(srcs)`` single
        allocations would take (the free-list tail, then fresh numbers),
        paired with the sources in ascending order, so consecutive
        sources land on consecutive destinations.  Each run of
        consecutive source and destination slots inside one bank is
        copied with one data and one tag slice store (zeros for
        ``preserve_tags=False``); per frame only the :class:`Frame`
        object is revived, its ``version`` bumped and the frame marked
        allocated.

        The copies, refcounts, capacity checks, clock charges,
        counter/observability totals, chaos draws and the free list
        left behind are identical to calling :meth:`copy_frame` once
        per source; only which destination number a source gets
        differs.  :meth:`alloc_budget` says up front how many copies
        succeed: each consumes one ``hw.phys.alloc_fail`` draw, and
        after the run copy ``hw.phys.tag_clear`` is consulted once per
        copied page, in order, with the same recovery as
        :meth:`copy_frame`.  On a shortfall the next single
        :meth:`alloc` raises :class:`OutOfMemory` (capacity) or
        :class:`~repro.chaos.InjectedAllocFailure` (an injected draw);
        the copies made before it were charged and counted, and are
        freed in allocation order before the error propagates.
        """
        frames = self._frames
        self._require_allocated(srcs)
        fit = self.alloc_budget(len(srcs))
        taken = self._take(fit)
        dsts = sorted(taken)
        make = self._make_frame
        for number in dsts:
            frame = make(number)
            frame.version += 1
            frames[number] = frame
        self._copy_runs(srcs[:fit], dsts, preserve_tags)
        self._settle_bulk_copy(fit, charge)
        if preserve_tags:
            for index in self.chaos.fire_each("hw.phys.tag_clear", fit):
                self._recover_tag_clear(srcs[index], dsts[index], charge)
        if fit < len(srcs):
            self._shortfall(taken, zero=False)
        return dsts

    def alloc_run(self, count: int) -> List[int]:
        """``count`` calls of :meth:`alloc` ``(zero=True, charge=False)``
        in one go — the image loader's batch.

        The frame numbers (in the order returned), the
        ``hw.phys.alloc_fail`` draws, the deferred scrub of stale slots
        with its ``version`` bump, and the counter and gauge totals are
        those of the single-call loop.  On a shortfall the frames taken
        are released in allocation order and the error the next single
        :meth:`alloc` raises (:class:`OutOfMemory` or
        :class:`~repro.chaos.InjectedAllocFailure`) propagates, so a
        failed batch allocates nothing.
        """
        fit = self.alloc_budget(count)
        numbers = self._take(fit)
        frames = self._frames
        stale = self._stale
        make = self._make_frame
        for number in numbers:
            frame = make(number)
            frames[number] = frame
            if number in stale:
                # the deferred free-time scrub (see :meth:`alloc`)
                frame.version += 1
                frame.data[:] = _zeros(len(frame.data))
                frame.tags[:] = _zeros(len(frame.tags))
                stale.discard(number)
        if fit:
            self._emit(n=fit, counter="frames_allocated",
                       metric="hw.phys.frames_allocated")
            self._obs.gauge_set("hw.phys.allocated_frames", len(frames))
        if fit < count:
            self._shortfall(numbers, zero=True)
        return numbers

    def _take(self, count: int) -> List[int]:
        """Consume the ``hw.phys.alloc_fail`` draws of ``count``
        allocations that :meth:`alloc_budget` said succeed, and pop the
        numbers they take, in their order: the free-list tail, then
        fresh numbers.  The caller marks them allocated."""
        # the budget stops short of the first draw that would fire
        self.chaos.fire_each("hw.phys.alloc_fail", count)
        free = self._free
        taken = free[len(free) - min(count, len(free)):]
        del free[len(free) - len(taken):]
        taken.reverse()
        fresh = self._next_frame
        self._next_frame += count - len(taken)
        taken += range(fresh, self._next_frame)
        return taken

    def _shortfall(self, taken: List[int], zero: bool) -> None:
        """A batch came up short: raise what the next single
        :meth:`alloc` raises, after releasing the frames the batch
        took, in allocation order."""
        try:
            self.alloc(zero=zero, charge=False)
        finally:
            self.decref_many(taken)
        raise AssertionError(  # pragma: no cover - invariant guard
            "alloc_budget predicted a failing allocation")

    def _copy_runs(self, srcs: Sequence[int], dsts: Sequence[int],
                   preserve_tags: bool) -> None:
        """Copy ``srcs[i]`` into ``dsts[i]``: one data and one tag slice
        store per joint bank run (``memoryview`` to ``memoryview``, so
        the bytes move once)."""
        page_size = self._config.page_size
        granules = self._config.granules_per_page
        data_views = self._data_views
        tag_views = self._tag_views
        # srcs[i] - dsts[i] is constant along a joint run
        runs = consecutive_runs(dsts, map(sub, srcs, dsts))
        for start, end in _cut_at_banks(runs, srcs, dsts):
            count = end - start
            src_bank, src_slot = divmod(srcs[start] - 1, BANK_FRAMES)
            dst_bank, dst_slot = divmod(dsts[start] - 1, BANK_FRAMES)
            d0 = dst_slot * page_size
            s0 = src_slot * page_size
            span = count * page_size
            data_views[dst_bank][d0:d0 + span] = \
                data_views[src_bank][s0:s0 + span]
            d0 = dst_slot * granules
            span = count * granules
            if preserve_tags:
                s0 = src_slot * granules
                tag_views[dst_bank][d0:d0 + span] = \
                    tag_views[src_bank][s0:s0 + span]
            else:
                tag_views[dst_bank][d0:d0 + span] = _zeros(span)

    def _settle_bulk_copy(self, count: int, charge: bool) -> None:
        if count == 0:
            return
        if charge:
            self._clock.advance(self._page_copy_int * count, "page_copy")
        self._settle_copies(count)

    def _settle_copies(self, count: int) -> None:
        """Record ``count`` frames allocated and copied in one go."""
        emit = self._emit
        emit(n=count, counter="frames_allocated",
             metric="hw.phys.frames_allocated")
        emit(n=count, counter="frames_copied", metric="hw.phys.frames_copied")
        self._obs.gauge_set("hw.phys.allocated_frames", len(self._frames))

    def _recover_tag_clear(self, src: int, dst: int, charge: bool) -> None:
        """Injected spurious tag loss on a tag-preserving copy: the copy
        engine dropped the validity bits.  The kernel's verify-after-copy
        compares tag vectors and redoes the copy when they differ (a
        frame with no tags loses nothing, so nothing to recover)."""
        dst_frame = self.frame(dst)
        dst_frame.version += 1
        for index in range(len(dst_frame.tags)):
            dst_frame.tags[index] = 0
        src_frame = self.frame(src)
        if bytes(dst_frame.tags) != bytes(src_frame.tags):
            dst_frame.copy_from(src_frame, preserve_tags=True)
            if charge:
                self._clock.advance(
                    self._costs.page_copy_ns(self._config.page_size),
                    "page_copy"
                )
            self.chaos.note_recovery("hw.phys.tag_clear")

    # -- narrow iteration/scan interface --------------------------------------

    def frames_items(self) -> Iterator[Tuple[int, Frame]]:
        """Stable (frame-number-sorted) iteration over allocated frames.

        The sanctioned way for auditors (:mod:`repro.conform.invariants`)
        to sweep physical memory — callers must not touch ``_frames``.
        """
        return iter(sorted(self._frames.items()))

    def scan_tagged(self, number: int) -> List[int]:
        """Offsets of tagged granules in frame ``number`` (bulk scan)."""
        return self.frame(number).tagged_granules()

    def tagged_frames(self, numbers: Sequence[int]) -> List[int]:
        """Positions in ``numbers`` of the frames holding any valid tag,
        ascending.

        One ``bytearray.find`` (a C memchr) per bank run of consecutive
        numbers over the bank's tag arena, plus one per tagged frame
        found — the relocation sweep's filter, so untagged pages are
        never visited one by one.
        """
        self._require_allocated(numbers)
        granules = self._config.granules_per_page
        tag_banks = self._tag_banks
        out: List[int] = []
        for start, end in _cut_at_banks(consecutive_runs(numbers), numbers):
            bank, slot = divmod(numbers[start] - 1, BANK_FRAMES)
            store = tag_banks[bank]
            lo = slot * granules
            hi = lo + (end - start) * granules
            hit = store.find(1, lo, hi)
            while hit >= 0:
                page = (hit - lo) // granules
                out.append(start + page)
                hit = store.find(1, lo + (page + 1) * granules, hi)
        return out

    def clear_tags_range(self, number: int, lo_offset: int,
                         hi_offset: int) -> None:
        """Clear the tags of granules overlapping [lo, hi) of a frame."""
        self.frame(number).clear_tags_range(lo_offset, hi_offset)

    # -- accounting -----------------------------------------------------------

    @property
    def allocated_frames(self) -> int:
        return len(self._frames)

    @property
    def allocated_bytes(self) -> int:
        return len(self._frames) * self._config.page_size

    def contains(self, number: int) -> bool:
        return number in self._frames


def consecutive_runs(numbers: Sequence[int],
                     keys: Optional[Iterable[Any]] = None
                     ) -> List[Tuple[int, int]]:
    """``(start, end)`` index ranges of the maximal runs of consecutive
    numbers (with equal keys, when given).  ``numbers[i] - i`` is
    constant along a run, so ``groupby`` finds the runs at C speed."""
    steps: Iterable[Any] = map(sub, numbers, itertools.count())
    if keys is not None:
        steps = zip(steps, keys)
    bounds = list(itertools.accumulate(
        (len(list(group)) for _key, group in itertools.groupby(steps)),
        initial=0))
    return list(zip(bounds, bounds[1:]))


def _cut_at_banks(runs: Iterable[Tuple[int, int]],
                  *sequences: Sequence[int]) -> List[Tuple[int, int]]:
    """Split ``(start, end)`` runs of consecutive frame numbers so that
    no piece leaves a bank in any of ``sequences``."""
    pieces: List[Tuple[int, int]] = []
    for start, end in runs:
        while start < end:
            stop = min(end, *(start + BANK_FRAMES - (seq[start] - 1)
                              % BANK_FRAMES for seq in sequences))
            pieces.append((start, stop))
            start = stop
    return pieces


# the pristine release routine: batch paths compare against this to
# detect overridden/monkeypatched ``decref`` and fall back per-number
_BASE_DECREF = PhysicalMemory.decref
