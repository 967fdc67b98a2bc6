"""Tagged physical memory.

Physical memory is a pool of numbered page frames.  Each frame carries,
next to its data bytes, one validity-tag bit per 16-byte granule — the
CHERI tagged memory μFork's relocation scan relies on (§3.4, building
block 3).  The tag invariants enforced here:

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
zero-fills on first touch, tags in a ``bytearray``), and the per-frame
state lives in columns indexed by frame number, grown one bank at a
time with the arenas: refcount and content version in ``array('q')``
columns, the deferred-scrub mark in a ``bytearray``.  A frame is
allocated while its refcount is positive.  :class:`Frame` is a window
over one number's slice of that store, built on first use and cached.
Fork's batch primitives work on runs of consecutive numbers, as slice
stores over the columns and the arenas:
:meth:`PhysicalMemory.copy_frames` copies a bank run with one data and
one tag slice store, :meth:`PhysicalMemory.decref_many` releases a
run of equal refcounts with one column store, and
:meth:`PhysicalMemory.tagged_frames` finds a run's tagged frames with
one ``find``, :meth:`PhysicalMemory.restore_contents` replays a
memoised run of relocated pages with one data and one tag slice store,
and :meth:`PhysicalMemory.write_span` stores a multi-page write with one
data, one tag-clear and one version store per run.
The image loader takes a segment's frames with one
:meth:`PhysicalMemory.alloc_run`.

Copy provenance: four more per-number columns record, for each frame
last written by a tag-preserving :meth:`PhysicalMemory.copy_frames`
(a copy of its source, or a fork memo replay), which source and source
version it holds, what its content is a function of, and its own
version right after.  A later batch whose destinations still hold what
it would write skips those slice stores (:meth:`PhysicalMemory._holds`):
a parent forked again and again writes the same pages into the same
numbers, which its child's exit freed.
"""

from __future__ import annotations

import functools
import itertools
import mmap
import struct
import sys
from array import array
from bisect import bisect_left, bisect_right
from operator import lt, sub
from typing import (Any, Callable, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from repro import events
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

#: one bank's worth of zeroed ``array('q')`` column entries
_BANK_COLUMN = bytes(8 * BANK_FRAMES)
_ONE = array("q", [1])
#: shortest batch :meth:`PhysicalMemory.decref_many` tests for one run
#: of equal refcounts.  Measured (CPython 3.11.7, 2-vCPU Linux host,
#: median of 15): at 16 frames the slice store costs what the
#: per-number loop does (4.8 vs 4.8 µs at refcount 1, 3.8 vs 3.5 µs at
#: refcount 2); at 24 it wins at both (5.8 vs 7.2, 4.7 vs 5.4 µs).  A
#: batch that only looks like one run pays the test, ~45 ns a number.
_RUN_MIN = 24
#: byte order of the ``array('q')`` columns, for big-integer lane views
_ORDER = sys.byteorder
#: the copy-provenance context of a tag-preserving copy of the source;
#: 0 (a fresh column entry) records nothing, and :func:`new_context`
#: hands out the others
_COPIED = 1
_CONTEXTS = itertools.count(_COPIED + 1)


@functools.lru_cache(maxsize=64)
def _lanes(count: int) -> int:
    """The integer whose ``count`` 8-byte lanes each hold 1."""
    return int.from_bytes(_ONE * count, _ORDER)


@functools.lru_cache(maxsize=64)
def _ramp(count: int) -> int:
    """The integer whose ``count`` 8-byte lanes hold 0, 1, 2, ..."""
    return int.from_bytes(array("q", range(count)), _ORDER)


def new_context() -> int:
    """A copy-provenance context no content has been recorded under:
    the name of what a replay's bytes are a function of (the memo
    sub-run they were read from), for :meth:`PhysicalMemory.copy_frames`
    ``stored`` and :meth:`PhysicalMemory.note_replayed`."""
    return next(_CONTEXTS)


def _zeroed_arena(size: int) -> Any:
    """A writable, zero-filled buffer of ``size`` bytes whose pages the
    host maps on first touch: a private anonymous mapping where there
    is one (``bytearray(size)`` writes every page up front, which is
    most of a fresh bank's cost when a frame only gets a few granules),
    else a ``bytearray``."""
    if hasattr(mmap, "MAP_PRIVATE"):
        return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    return bytearray(size)  # pragma: no cover - hosts without mmap flags


@functools.lru_cache(maxsize=4)
def _meta_id_words(granules: int) -> struct.Struct:
    """Unpacks the meta-id word of each of a page's ``granules`` (one
    page size per machine config)."""
    return struct.Struct("<" + "8xQ" * granules)


def _zeros(count: int) -> bytes:
    return _ZEROS[:count] if count <= len(_ZEROS) else bytes(count)


class Frame:
    """One physical page of a :class:`PhysicalMemory`: data bytes plus
    per-granule validity tags.

    A window, not a holder of state: ``data`` and ``tags`` are
    ``memoryview`` windows into the machine-wide banked store, and
    :attr:`version` reads the memory's per-number version column.
    :meth:`PhysicalMemory.frame` builds at most one per frame
    number and hands the same window out for every later allocation of
    that number.  ``_tag_store``/``_tag_base`` address this frame's
    granule run inside the flat tag bitmap so the relocation scan can
    use the underlying ``bytearray.find`` (memchr) even through a view.
    The mutators (and the inlined stores in :mod:`repro.hw.paging`)
    bump the version column entry directly.
    """

    __slots__ = ("number", "data", "tags", "_versions", "_tag_store",
                 "_tag_base")

    def __init__(self, number: int, data: memoryview, tags: memoryview,
                 versions: array, tag_store: bytearray,
                 tag_base: int) -> None:
        self.number = number
        self.data = data
        self.tags = tags
        self._versions = versions
        self._tag_store = tag_store
        self._tag_base = tag_base

    @property
    def version(self) -> int:
        """Content generation: bumped by every mutation of ``data`` or
        ``tags`` (including the inlined stores in
        :mod:`repro.hw.paging`, run copies and the deferred scrub) and
        never going back for a frame number, across free and
        reallocation, so five caches can key on ``(number, version)``
        and never serve stale bytes: the fork relocation memo, the audit
        page memo, the per-process audit cache, the per-space share
        sweep and the copy provenance of
        :meth:`PhysicalMemory.copy_frames`."""
        return self._versions[self.number]

    # -- byte access ---------------------------------------------------

    def write(self, offset: int, data: bytes) -> None:
        """Raw byte store: clears tags of every overlapped granule
        (one C-level slice store over the granule run)."""
        self._versions[self.number] += 1
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
        self._versions[self.number] += 1
        self.data[offset:offset + CAP_SIZE] = codec.encode(cap)
        self.tags[offset // CAP_SIZE] = 1 if cap.valid else 0

    def write_granule(self, offset: int, raw: bytes, tag: int) -> None:
        """Store one already-encoded granule plus its validity tag.

        The relocation sweep's write-back primitive: unlike
        :meth:`store_cap` it takes the 16 raw bytes (a packed
        ``(cursor, meta id)`` pair) so bulk rewrites build no
        :class:`Capability`.
        """
        if offset % CAP_SIZE:
            raise AlignmentFault(f"granule store at offset {offset:#x}")
        self._versions[self.number] += 1
        self.data[offset:offset + CAP_SIZE] = raw
        self.tags[offset // CAP_SIZE] = 1 if tag else 0

    def rewrote_granules(self, count: int, untagged: Sequence[int]) -> None:
        """Settle ``count`` granule rewrites made in place through
        :attr:`data` (the relocation scan's packed stores): clear the
        tag of each granule at an offset in ``untagged`` and bump the
        version ``count`` times, as ``count``
        :meth:`write_granule` calls leave it."""
        tags = self.tags
        for offset in untagged:
            tags[offset // CAP_SIZE] = 0
        self._versions[self.number] += count

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

    def tagged_meta_ids(self) -> Set[int]:
        """The distinct meta ids named by the granules holding valid
        capabilities: one unpack of every granule's meta-id word
        (:data:`~repro.cheri.codec.GRANULE` packs ``(cursor, meta id)``)
        filtered by the tags, both C-level."""
        return set(itertools.compress(
            _meta_id_words(len(self.tags)).unpack(self.data), self.tags))

    def clear_tags_range(self, lo_offset: int, hi_offset: int) -> None:
        """Clear the tags of every granule overlapping [lo, hi)."""
        if hi_offset <= lo_offset:
            return
        self._versions[self.number] += 1
        first = lo_offset // CAP_SIZE
        last = (hi_offset - 1) // CAP_SIZE
        count = last + 1 - first
        self.tags[first:last + 1] = _zeros(count)

    def snapshot_content(self) -> Tuple[bytes, bytes]:
        """Immutable ``(data, tags)`` copy of the whole page."""
        return bytes(self.data), bytes(self.tags)

    def restore_content(self, data: bytes, tags: bytes) -> None:
        """Overwrite the whole page's bytes and granule tags."""
        self._versions[self.number] += 1
        self.data[:] = data
        self.tags[:] = tags

    def copy_from(self, other: "Frame", preserve_tags: bool = True) -> None:
        """Copy another frame's contents (kernel capability-aware copy)."""
        self._versions[self.number] += 1
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
        self._free: List[int] = []
        self._next_frame = 1
        self._capacity_frames = config.dram_bytes // config.page_size
        #: allocated frames: the count of positive refcounts
        self._live = 0
        # per-number columns, index 0 unused (numbers start at 1) and
        # grown one bank at a time with the arenas; no buffer of them
        # is ever exported, so they can grow in place
        self._refcounts = array("q", bytes(8))
        self._versions = array("q", bytes(8))
        # copy provenance (:meth:`_holds`): for a frame last written by a
        # tag-preserving bulk copy, its source as ``source - number``,
        # that source's version, the content's context (:data:`_COPIED`
        # or a replay's) and its own version right after the write
        self._prov_offsets = array("q", bytes(8))
        self._prov_source_versions = array("q", bytes(8))
        self._prov_contexts = array("q", bytes(8))
        self._prov_versions = array("q", bytes(8))
        #: each number itself, so a run of numbers is one slice
        self._numbers = array("q", bytes(8))
        # deferred scrub: freeing marks the slot here and leaves its
        # stale bytes in the bank; the scrub happens only on a later
        # ``zero=True`` allocation of the same number.  Sound because
        # ``alloc(zero=False)`` content is *unspecified* — every caller
        # (frame copy, snapshot restore) fully overwrites data and tags
        # before the frame is readable — and a freed frame is
        # unreachable (refcount 0) until realloc'd.
        self._stale = bytearray(1)
        #: number -> its :class:`Frame` window, built on first use
        self._views: List[Optional[Frame]] = [None]
        # per-bank data/tag arenas plus hoisted memoryviews (slicing a
        # memoryview is cheaper than taking a fresh view of the
        # bytearray per frame); a data view holds its arena alive
        self._tag_banks: List[bytearray] = []
        self._data_views: List[memoryview] = []
        self._tag_views: List[memoryview] = []
        #: pre-rounded integral per-page copy charge for the bulk path
        self._page_copy_int = int(round(costs.page_copy_ns(config.page_size)))

    # -- storage ------------------------------------------------------------

    def _add_bank(self) -> None:
        """One more bank of arenas and column entries."""
        self._data_views.append(memoryview(
            _zeroed_arena(BANK_FRAMES * self._config.page_size)))
        self._tag_banks.append(
            bytearray(BANK_FRAMES * self._config.granules_per_page))
        self._tag_views.append(memoryview(self._tag_banks[-1]))
        for column in (self._refcounts, self._versions, self._prov_offsets,
                       self._prov_source_versions, self._prov_contexts,
                       self._prov_versions):
            column.frombytes(_BANK_COLUMN)
        self._numbers.frombytes(
            (len(self._numbers) * _lanes(BANK_FRAMES)
             + _ramp(BANK_FRAMES)).to_bytes(8 * BANK_FRAMES, _ORDER))
        self._stale += bytes(BANK_FRAMES)
        self._views += [None] * BANK_FRAMES

    def _fresh(self, count: int) -> range:
        """Take the next ``count`` never-used numbers."""
        first = self._next_frame
        self._next_frame = first + count
        while self._next_frame > len(self._refcounts):
            self._add_bank()
        return range(first, first + count)

    def _view(self, number: int) -> Frame:
        """The cached :class:`Frame` window of ``number``."""
        frame = self._views[number]
        if frame is None:
            page_size = self._config.page_size
            granules = self._config.granules_per_page
            bank, slot = divmod(number - 1, BANK_FRAMES)
            d0 = slot * page_size
            t0 = slot * granules
            frame = self._views[number] = Frame(
                number, self._data_views[bank][d0:d0 + page_size],
                self._tag_views[bank][t0:t0 + granules],
                self._versions, self._tag_banks[bank], t0)
        return frame

    def _scrub(self, number: int) -> None:
        """The deferred free-time scrub of a stale slot (see ``_stale``),
        with its ``version`` bump."""
        frame = self._view(number)
        frame.restore_content(_zeros(len(frame.data)),
                              _zeros(len(frame.tags)))
        self._stale[number] = 0

    # -- allocation ------------------------------------------------------

    def alloc(self, zero: bool = True, charge: bool = True) -> int:
        """Allocate one frame; returns its frame number."""
        if self._live >= self._capacity_frames:
            raise OutOfMemory("physical memory exhausted")
        if self.chaos.enabled and self.chaos.should_fire("hw.phys.alloc_fail"):
            from repro.chaos.faults import InjectedAllocFailure
            raise InjectedAllocFailure("injected frame-allocation failure")
        number = self._free.pop() if self._free else self._fresh(1)[0]
        self._refcounts[number] = 1
        self._live += 1
        if zero and self._stale[number]:
            # the caller asked for a zeroed frame and this slot still
            # holds freed content
            self._scrub(number)
        if zero and charge:
            self._clock.advance(self._costs.page_zero_ns, "page_zero")
        self._emit(events.FRAMES_ALLOCATED)
        self._obs.gauge_set("hw.phys.allocated_frames", self._live)
        return number

    def frame(self, number: int) -> Frame:
        try:
            if number > 0 and self._refcounts[number] > 0:
                return self._views[number] or self._view(number)
        except IndexError:  # past every bank: never allocated
            pass
        raise KeyError(f"no such frame {number}")

    def refcount(self, number: int) -> int:
        try:
            if number > 0 and self._refcounts[number] > 0:
                return self._refcounts[number]
        except IndexError:
            pass
        raise KeyError(f"no such frame {number}")

    def contains(self, number: int) -> bool:
        try:
            return number > 0 and self._refcounts[number] > 0
        except IndexError:
            return False

    def incref(self, number: int) -> None:
        self._refcounts[number] = self.refcount(number) + 1

    def incref_many(self, numbers: Sequence[int]) -> None:
        """:meth:`incref` for each number, in order (``KeyError`` for
        the first unallocated one, the ones before it incremented)."""
        refcounts = self._refcounts
        top = len(refcounts)
        for number in numbers:
            value = refcounts[number] if 0 < number < top else 0
            if value <= 0:
                raise KeyError(f"no such frame {number}")
            refcounts[number] = value + 1

    def _uniform_run(self, numbers: Sequence[int]) -> int:
        """The refcount all of ``numbers`` share when they are one run
        of at least :data:`_RUN_MIN` consecutive allocated numbers,
        else 0."""
        count = len(numbers)
        if count < _RUN_MIN or not _one_run(numbers):
            return 0
        first = numbers[0]
        window = self._refcounts[first:first + count] if first > 0 else ()
        if len(window) == count and window[0] > 0 \
                and window == window[:1] * count:
            return window[0]
        return 0

    def decref(self, number: int) -> None:
        count = self.refcount(number) - 1
        self._refcounts[number] = count
        if count == 0:
            # the scrub is deferred to a later zero-allocation of this
            # number (see ``_stale``)
            self._stale[number] = 1
            self._free.append(number)
            self._live -= 1
            self._emit(events.FRAMES_FREED)
            self._obs.gauge_set("hw.phys.allocated_frames", self._live)

    def decref_many(self, numbers: Sequence[int]) -> None:
        """:meth:`decref` for a batch, in order (fork teardown's path).

        Identical refcount/free-list evolution: a batch of at least
        :data:`_RUN_MIN` numbers that is one run of consecutive
        allocated numbers with equal refcounts takes one column store
        (and, when they reach zero, one scrub-mark store and one
        free-list extend, in ascending order); any other batch goes
        number by number.  The freed-frame counter and gauge updates
        are batched into sum-equal / last-value-equal updates, made also
        when an unallocated number raises part-way.  When :meth:`decref`
        has been overridden (fault injection, instrumented subclasses)
        the batch defers to it per number so the override observes
        every release.
        """
        if type(self).decref is not _BASE_DECREF:
            for number in numbers:
                self.decref(number)
            return
        refcounts = self._refcounts
        stale = self._stale
        free = self._free
        before = len(free)
        try:
            value = self._uniform_run(numbers)
            if value:
                first = numbers[0]
                end = first + len(numbers)
                refcounts[first:end] = array("q", [value - 1]) * len(numbers)
                if value == 1:
                    stale[first:end] = b"\x01" * len(numbers)
                    free += range(first, end)
            else:
                top = len(refcounts)
                for number in numbers:
                    value = refcounts[number] - 1 if 0 < number < top else -1
                    if value < 0:
                        raise KeyError(f"no such frame {number}")
                    refcounts[number] = value
                    if not value:
                        stale[number] = 1
                        free.append(number)
        finally:
            freed = len(free) - before
            if freed:
                self._live -= freed
                self._emit(events.FRAMES_FREED, freed)
                self._obs.gauge_set("hw.phys.allocated_frames", self._live)

    def free_frames(self) -> int:
        """Frames still allocatable before :class:`OutOfMemory`."""
        return self._capacity_frames - self._live

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
        self._emit(events.FRAMES_COPIED)
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
        if self._live >= self._capacity_frames:
            raise OutOfMemory("physical memory exhausted")
        number = self._free.pop() if self._free else self._fresh(1)[0]
        self._refcounts[number] = 1
        self._live += 1
        dst = self._views[number] or self._view(number)
        dst.copy_from(self.frame(src), True)
        self._clock.advance(self._page_copy_int, "page_copy")
        self._settle_copies(1)
        return number

    def copy_frames(self, srcs: Sequence[int], preserve_tags: bool = True,
                    charge: bool = True, in_order: bool = False,
                    runs: Optional[List[Tuple[int, int]]] = None,
                    stored: Sequence[tuple] = ()) -> array:
        """Bulk :meth:`copy_frame`, copied by bank run.

        The destinations, returned as an ``array('q')`` (which
        :meth:`~repro.hw.paging.AddressSpace.map_run` stores as it is),
        are the numbers ``len(srcs)`` single allocations would take (the
        free-list tail, then fresh numbers), paired with the sources in
        ascending order, so consecutive sources land on consecutive
        destinations, or with ``in_order`` in the order those
        allocations take them.  Each run of consecutive destination
        numbers is marked allocated with one refcount store and one
        :meth:`bump_versions`, and each joint bank run of consecutive
        source and destination slots is copied with one data and one tag
        slice store (zeros for ``preserve_tags=False``).

        ``runs``, when the caller already has them, are
        :meth:`batch_runs` of ``srcs``: found and checked allocated
        once, by the caller.  ``stored`` lists ascending, disjoint
        ``(start, end, data, tags, context)`` replays over batch
        positions (fork's relocation memo replay): their destinations
        get ``data`` and ``tags``, the pages' relocated bytes and granule
        tags concatenated, instead of their sources' bytes.  A replay is
        written after the ``hw.phys.tag_clear`` recoveries, each version
        one more up, as :meth:`Frame.restore_content` leaves it;
        ``context``, from :func:`new_context`, names what ``data`` is a
        function of.  Those destinations are allocated, charged,
        counted and drawn for like every other.

        A tag-preserving batch skips the data and tag stores of each
        joint run whose destinations already hold what it would write
        (:meth:`_holds`, read before the allocation bump), and records
        what every run's destinations hold once it is done
        (:meth:`_note`); nothing but the host's work depends on it.

        The copies, refcounts, version bumps, capacity checks, clock
        charges, counter/observability totals, chaos draws and the free
        list left behind are identical to calling :meth:`copy_frame`
        once per source; unless ``in_order``, which destination number a
        source gets differs.  :meth:`alloc_budget` says up front how
        many copies succeed: each consumes one ``hw.phys.alloc_fail``
        draw, and after the run copy ``hw.phys.tag_clear`` is consulted
        once per copied page, in order, with the same recovery as
        :meth:`copy_frame`.  On a shortfall the next single
        :meth:`alloc` raises :class:`OutOfMemory` (capacity) or
        :class:`~repro.chaos.InjectedAllocFailure` (an injected draw);
        the copies made before it were charged and counted, and are
        freed in allocation order before the error propagates.
        """
        src_runs = self.batch_runs(srcs) if runs is None else runs
        fit = self.alloc_budget(len(srcs))
        taken = self._take(fit)
        dsts = taken if in_order else sorted(taken)
        if fit and not in_order and dsts[-1] - dsts[0] == fit - 1:
            # distinct, ascending and spanning ``fit`` numbers
            dst_runs = [(0, fit)]
            dsts = self._numbers[dsts[0]:dsts[0] + fit]
        else:
            dst_runs = consecutive_runs(dsts)
            dsts = array("q", dsts)
        # a joint run ends wherever the sources' (cut at the batch's
        # end) or the destinations' runs end, and at the edges of the
        # replays
        ends = sorted({min(end, fit) for _start, end in src_runs + dst_runs}
                      | {min(edge, fit) for replay in stored
                         for edge in replay[:2]})
        pieces = []
        for start, end in _cut_at_banks(zip([0] + ends, ends), srcs, dsts):
            replay = _covering(stored, start)
            pieces.append((start, end, replay,
                           _COPIED if replay is None else replay[4]))
        held = [preserve_tags and self._holds(srcs[start], dsts[start],
                                              end - start, context)
                for start, end, _replay, context in pieces]
        refcounts = self._refcounts
        for start, end in dst_runs:
            refcounts[dsts[start]:dsts[start] + end - start] = \
                _ONE * (end - start)
            self.bump_versions(dsts[start], end - start)
        self._copy_runs(srcs, dsts, [
            (start, end) for (start, end, replay, _context), hold
            in zip(pieces, held) if replay is None and not hold],
            preserve_tags)
        self._live += fit
        self._settle_bulk_copy(fit, charge)
        recovered: List[int] = []
        if preserve_tags:
            recovered = self.chaos.fire_each("hw.phys.tag_clear", fit)
            for index in recovered:
                self._recover_tag_clear(srcs[index], dsts[index], charge)
        for (start, end, replay, _context), hold in zip(pieces, held):
            if replay is not None:
                self.bump_versions(dsts[start], end - start)
                # a recovery rewrote the destinations it drew for
                if not hold or bisect_left(recovered, start) \
                        < bisect_left(recovered, end):
                    self._store(dsts[start], end - start, replay[2],
                                replay[3], start - replay[0])
        if preserve_tags:
            # a held run's provenance holds but for its versions, which
            # moved with the bumps
            for start, end in dst_runs:
                first = dsts[start]
                self._prov_versions[first:first + end - start] = \
                    self._versions[first:first + end - start]
            for (start, end, _replay, context), hold in zip(pieces, held):
                if not hold:
                    self._note(srcs[start], dsts[start], end - start,
                               context)
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
        refcounts = self._refcounts
        for number in numbers:
            refcounts[number] = 1
        self._live += fit
        stale = self._stale
        for number in itertools.compress(numbers,
                                         map(stale.__getitem__, numbers)):
            self._scrub(number)
        if fit:
            self._emit(events.FRAMES_ALLOCATED, fit)
            self._obs.gauge_set("hw.phys.allocated_frames", self._live)
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
        taken += self._fresh(count - len(taken))
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
                   pieces: Iterable[Tuple[int, int]],
                   preserve_tags: bool) -> None:
        """Copy ``srcs[i]`` into ``dsts[i]`` over ``pieces``, ``(start,
        end)`` runs of consecutive sources and destinations inside one
        bank each: one data and one tag slice store per piece
        (``memoryview`` to ``memoryview``, so the bytes move once)."""
        page_size = self._config.page_size
        granules = self._config.granules_per_page
        data_views = self._data_views
        tag_views = self._tag_views
        for start, end in pieces:
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

    def _holds(self, src: int, dst: int, count: int, context: int) -> bool:
        """Whether the ``count`` consecutive numbers from ``dst`` already
        hold what a tag-preserving copy from ``src`` under ``context``
        writes: their provenance names the same sources, source versions
        and context (:meth:`_note`), and their versions have not moved
        since it was recorded.  Sound because every mutation of a
        frame's bytes or tags bumps its version and versions never go
        back (:attr:`Frame.version`): a destination still at its noted
        version holds the content it was noted with, and a source still
        at its noted version holds what that content came from.  One
        slice compare per column, after the first destination's context
        and version alone, which turn most misses away without a
        slice."""
        end = dst + count
        versions = self._versions
        if self._prov_contexts[dst] != context \
                or self._prov_versions[dst] != versions[dst]:
            return False
        return (self._prov_versions[dst:end] == versions[dst:end]
                and self._prov_contexts[dst:end]
                == array("q", [context]) * count
                and self._prov_offsets[dst:end]
                == array("q", [src - dst]) * count
                and self._prov_source_versions[dst:end]
                == versions[src:src + count])

    def _note(self, src: int, dst: int, count: int, context: int) -> None:
        """Record that the ``count`` consecutive numbers from ``dst``
        hold the content ``context`` makes of the numbers from ``src``,
        at both sides' current versions: one slice store per column."""
        end = dst + count
        versions = self._versions
        self._prov_offsets[dst:end] = array("q", [src - dst]) * count
        self._prov_source_versions[dst:end] = versions[src:src + count]
        self._prov_contexts[dst:end] = array("q", [context]) * count
        self._prov_versions[dst:end] = versions[dst:end]

    def note_replayed(self, srcs: Sequence[int], dsts: Sequence[int],
                  context: int) -> None:
        """Record that each of ``dsts`` holds, at its current version,
        what a :meth:`copy_frames` replay under ``context`` writes there
        for the source at the same position (a relocation memo sub-run,
        just read back from the pages it was relocated in): one
        :meth:`_note` per joint run of consecutive sources and
        destinations."""
        ends = sorted({end for _start, end in consecutive_runs(srcs)}
                      | {end for _start, end in consecutive_runs(dsts)})
        for start, end in zip([0] + ends, ends):
            self._note(srcs[start], dsts[start], end - start, context)

    def _store(self, first: int, count: int, data: Any, tags: Any,
               at: int) -> None:
        """Write pages ``[at, at + count)`` of the concatenated ``data``
        and ``tags`` into the ``count`` consecutive numbers from
        ``first``, all in one bank: one data and one tag slice store,
        no version bump."""
        page_size = self._config.page_size
        granules = self._config.granules_per_page
        bank, slot = divmod(first - 1, BANK_FRAMES)
        stop = slot + count
        self._data_views[bank][slot * page_size:stop * page_size] = \
            memoryview(data)[at * page_size:(at + count) * page_size]
        self._tag_views[bank][slot * granules:stop * granules] = \
            memoryview(tags)[at * granules:(at + count) * granules]

    def page_views(self, numbers: Sequence[int]) -> List[memoryview]:
        """The ``data`` window of each of ``numbers``, in order: a built
        :class:`Frame`'s own, else a slice of its bank, so a span read
        builds no :class:`Frame` (``KeyError`` for the first unallocated
        number)."""
        self._require_allocated(numbers)
        views = self._views
        data_views = self._data_views
        page_size = self._config.page_size
        out = []
        for number in numbers:
            frame = views[number]
            if frame is None:
                bank, slot = divmod(number - 1, BANK_FRAMES)
                out.append(data_views[bank][slot * page_size:
                                            (slot + 1) * page_size])
            else:
                out.append(frame.data)
        return out

    def write_span(self, numbers: Sequence[int], offset: int,
                   data: bytes) -> None:
        """:meth:`Frame.write` of ``data`` laid over the pages of
        ``numbers`` as one span, from ``offset`` into the first: each
        page's bytes stored, the tag of every granule they overlap
        cleared and its version exactly one up.  Each bank run of
        consecutive numbers takes one data, one tag and one
        version-column slice store.  ``KeyError`` for the first
        unallocated number, before anything is written."""
        runs = self.batch_runs(numbers)
        page_size = self._config.page_size
        data = memoryview(data)
        for start, end in _cut_at_banks(runs, numbers):
            first = numbers[start]
            self.bump_versions(first, end - start)
            bank, slot = divmod(first - 1, BANK_FRAMES)
            lo = max(start * page_size - offset, 0)
            hi = min(end * page_size - offset, len(data))
            at = (slot - start) * page_size + offset + lo
            self._data_views[bank][at:at + hi - lo] = data[lo:hi]
            granule = at // CAP_SIZE
            count = (at + hi - lo - 1) // CAP_SIZE + 1 - granule
            self._tag_views[bank][granule:granule + count] = _zeros(count)

    def snapshot_contents(self, numbers: Sequence[int]
                          ) -> Tuple[bytes, bytes]:
        """The bytes and the granule tags of ``numbers``, each
        concatenated in order (what :meth:`restore_contents` takes):
        one slice of each per bank run of consecutive numbers
        (``KeyError`` for the first unallocated number)."""
        pieces = list(self._bank_windows(numbers))
        return (b"".join([piece[2] for piece in pieces]),
                b"".join([piece[3] for piece in pieces]))

    def restore_contents(self, numbers: Sequence[int], data: Any,
                         tags: Any) -> None:
        """:meth:`Frame.restore_content` of each of ``numbers`` in one
        go — the relocation memo's replay into frames that no
        :meth:`copy_frames` wrote (a share break's).

        ``data`` and ``tags`` hold the pages' bytes and granule tags,
        concatenated in the order of ``numbers``.  Each bank run of
        consecutive numbers takes one data and one tag slice store and
        one version-column store (every version exactly one up), so a
        run memoised at one bank offset replays at any other.
        ``KeyError`` for the first unallocated number, before anything
        is written.
        """
        for start, end in _cut_at_banks(self.batch_runs(numbers), numbers):
            self.bump_versions(numbers[start], end - start)
            self._store(numbers[start], end - start, data, tags, start)

    def _bank_windows(self, numbers: Sequence[int]
                      ) -> Iterable[Tuple[int, int, memoryview, memoryview]]:
        """``(start, end, data window, tag window)`` of each bank run of
        consecutive ``numbers``, after checking every one allocated."""
        runs = self.batch_runs(numbers)
        page_size = self._config.page_size
        granules = self._config.granules_per_page
        for start, end in _cut_at_banks(runs, numbers):
            bank, slot = divmod(numbers[start] - 1, BANK_FRAMES)
            stop = slot + end - start
            yield (start, end,
                   self._data_views[bank][slot * page_size:stop * page_size],
                   self._tag_views[bank][slot * granules:stop * granules])

    def _settle_bulk_copy(self, count: int, charge: bool) -> None:
        if count == 0:
            return
        if charge:
            self._clock.advance(self._page_copy_int * count, "page_copy")
        self._settle_copies(count)

    def _settle_copies(self, count: int) -> None:
        """Record ``count`` frames allocated and copied in one go."""
        self._emit(events.FRAMES_ALLOCATED, count)
        self._emit(events.FRAMES_COPIED, count)
        self._obs.gauge_set("hw.phys.allocated_frames", self._live)

    def _recover_tag_clear(self, src: int, dst: int, charge: bool) -> None:
        """Injected spurious tag loss on a tag-preserving copy: the copy
        engine dropped the validity bits.  The kernel's verify-after-copy
        compares tag vectors and redoes the copy when they differ (a
        frame with no tags loses nothing, so nothing to recover)."""
        dst_frame = self.frame(dst)
        dst_frame.clear_tags_range(0, len(dst_frame.data))
        src_frame = self.frame(src)
        if bytes(dst_frame.tags) != bytes(src_frame.tags):
            dst_frame.copy_from(src_frame, preserve_tags=True)
            if charge:
                self._clock.advance(
                    self._costs.page_copy_ns(self._config.page_size),
                    "page_copy"
                )
            self.chaos.note_recovery("hw.phys.tag_clear")

    # -- bulk readers ------------------------------------------------------

    def _require_allocated(self, numbers: Sequence[int]) -> None:
        """Raise :meth:`frame`'s ``KeyError`` for the first of
        ``numbers`` that is not allocated: C-level ``min``/``max``
        passes over the numbers and their refcounts."""
        refcounts = self._refcounts
        if numbers and not (
                0 < min(numbers) and max(numbers) < len(refcounts)
                and min(map(refcounts.__getitem__, numbers)) > 0):
            for number in numbers:
                self.refcount(number)

    def batch_runs(self, numbers: Sequence[int]) -> List[Tuple[int, int]]:
        """``consecutive_runs(numbers)``, every number checked allocated
        (``KeyError`` for the first that is not) with one ``min`` over
        each run's column slice.  On a ``fork_full`` fork's 1,228-frame
        batch (one run) that check takes 22 µs, where
        :meth:`_require_allocated`'s number pass takes 131 µs (CPython
        3.11.7, 2-vCPU Linux host)."""
        runs = consecutive_runs(numbers)
        refcounts = self._refcounts
        for start, end in runs:
            first = numbers[start]
            window = refcounts[first:first + end - start] if first > 0 \
                else ()
            if len(window) != end - start or min(window) <= 0:
                for number in numbers[start:end]:
                    self.refcount(number)
        return runs

    def version_run(self, first: int, count: int) -> array:
        """The content versions of the ``count`` consecutive numbers
        from ``first``: one slice of the version column."""
        return self._versions[first:first + count]

    def bump_versions(self, first: int, count: int) -> None:
        """Add exactly one to the content version of each of the
        ``count`` consecutive numbers from ``first``, allocated or not:
        the column slice's bytes read as one integer, plus one in every
        8-byte lane, stored back.  Versions are non-negative int64s, so
        no lane carries into the next.  The slice is a copy, never a
        ``memoryview`` export, so the column can still grow in place."""
        end = first + count
        versions = self._versions
        bumped = int.from_bytes(versions[first:end], _ORDER) + _lanes(count)
        versions[first:end] = array("q", bumped.to_bytes(8 * count, _ORDER))

    def live_mask(self, numbers: Sequence[int]) -> List[bool]:
        """:meth:`contains` for each of ``numbers``, in one pass over the
        refcount column."""
        refcounts = self._refcounts
        if numbers and 0 < min(numbers) and max(numbers) < len(refcounts):
            return [refcounts[number] > 0 for number in numbers]
        return list(map(self.contains, numbers))

    def refcounts(self, numbers: Sequence[int]) -> List[int]:
        """:meth:`refcount` of each of ``numbers`` (``KeyError`` for the
        first unallocated one)."""
        self._require_allocated(numbers)
        return list(map(self._refcounts.__getitem__, numbers))

    def versions(self, numbers: Sequence[int]) -> List[int]:
        """The content version (:attr:`Frame.version`) of each of
        ``numbers`` — what content memos key on — read straight from the
        column, allocated or not: a freed number reads the version it
        was freed at, so the frame behind a dangling mapping raises
        nothing."""
        versions = self._versions
        return [versions[number] for number in numbers]

    def check_columns(self) -> List[str]:
        """Consistency of the per-number state; a list of violations
        (empty == consistent): the allocated-frame count equals the
        number of positive refcounts, no refcount is negative, and every
        free-list number has refcount 0 and is listed once."""
        refcounts = self._refcounts
        # only numbers below ``_next_frame`` were ever handed out; a
        # refcount written past it still counts as nonzero below
        used = refcounts[:self._next_frame]
        violations = [
            f"frames: frame {number} refcount {used[number]}"
            for number in itertools.compress(range(len(used)),
                                             map((0).__gt__, used))
        ] if min(used) < 0 else []
        positive = len(refcounts) - refcounts.count(0) - len(violations)
        if positive != self._live:
            violations.append(
                f"frames: {self._live} frames counted allocated, "
                f"{positive} with a positive refcount")
        free = self._free
        if free and (min(free) <= 0 or max(free) >= len(refcounts)
                     or any(map(refcounts.__getitem__, free))):
            for number in free:
                if not 0 < number < len(refcounts) or refcounts[number]:
                    violations.append(f"frames: free-list frame {number} "
                                      f"is allocated or out of range")
        if len(set(free)) != len(free):
            seen = set()
            for number in free:
                if number in seen:
                    violations.append(
                        f"frames: frame {number} listed free twice")
                seen.add(number)
        return violations

    # -- tag scans ---------------------------------------------------------

    def scan_tagged(self, number: int) -> List[int]:
        """Offsets of tagged granules in frame ``number`` (bulk scan)."""
        return self.frame(number).tagged_granules()

    def tagged_frames(self, numbers: Sequence[int]) -> List[int]:
        """Positions in ``numbers`` of the frames holding any valid tag,
        ascending (``KeyError`` for the first unallocated one).

        One ``bytearray.find`` (a C memchr) per bank run of consecutive
        numbers over the bank's tag arena, plus one per tagged frame
        found — the relocation sweep's filter, so untagged pages are
        never visited one by one.
        """
        runs = self.batch_runs(numbers)
        granules = self._config.granules_per_page
        tag_banks = self._tag_banks
        out: List[int] = []
        for start, end in _cut_at_banks(runs, numbers):
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
        return self._live


def consecutive_runs(numbers: Sequence[int],
                     keys: Optional[Sequence[Any]] = None
                     ) -> List[Tuple[int, int]]:
    """``(start, end)`` index ranges of the maximal runs of consecutive
    numbers (with equal keys, when given).

    A batch that is one run (fork's common case) is recognised by
    :func:`_one_run`.  Otherwise ``numbers[i] - i`` is
    constant along a run, so ``groupby`` finds the runs at C speed; the
    keys are grouped on their own and their run ends merged in.
    """
    count = len(numbers)
    if _one_run(numbers):
        ends = [count]
    else:
        ends = _group_ends(map(sub, numbers, itertools.count()))
    if keys is not None:
        ends = sorted(set(ends).union(_group_ends(keys)))
    return list(zip([0] + ends, ends))


def _group_ends(values: Iterable[Any]) -> List[int]:
    """End index of each run of equal ``values``."""
    return list(itertools.accumulate(
        len(list(group)) for _value, group in itertools.groupby(values)))


def _one_run(numbers: Sequence[int]) -> bool:
    """Whether ``numbers`` is one run of consecutive numbers: strictly
    ascending and spanning exactly ``len(numbers)`` values.  The
    ascent test stops at the first step down, so a batch that is a run
    with a few numbers swapped out (a CoW-broken child's pages) costs
    little; on one run of 1,228 numbers it takes 41 µs where
    ``sorted(set(x)) == list(x)`` takes 55 µs (CPython 3.11.7, 2-vCPU
    Linux host).  An ``array('q')`` of non-negative numbers (a
    page-table frame column) is compared as one integer instead, lane
    ``i`` against the first number plus ``i`` (no lane can carry into
    the next): 20 µs on that run, where the ascent test, boxing each
    number of the array, takes 80."""
    count = len(numbers)
    if count == 0 or numbers[-1] - numbers[0] != count - 1:
        return False
    if type(numbers) is array and numbers[0] >= 0:
        return int.from_bytes(numbers, _ORDER) == \
            numbers[0] * _lanes(count) + _ramp(count)
    return all(map(lt, numbers, itertools.islice(numbers, 1, None)))


def _covering(ranges: Sequence[tuple], position: int) -> Optional[tuple]:
    """The one of ``ranges`` (ascending, disjoint tuples that start with
    ``(start, end)``) that ``position`` lies in, else ``None``."""
    index = bisect_right(ranges, (position + 1,))
    if index and position < ranges[index - 1][1]:
        return ranges[index - 1]
    return None


def _cut_at_banks(runs: Iterable[Tuple[int, int]],
                  *sequences: Sequence[int]) -> List[Tuple[int, int]]:
    """Split ``(start, end)`` runs of consecutive frame numbers so that
    no piece leaves a bank in any of ``sequences``."""
    pieces: List[Tuple[int, int]] = []
    for start, end in runs:
        while start < end:
            stop = end
            for seq in sequences:
                room = start + BANK_FRAMES - (seq[start] - 1) % BANK_FRAMES
                if room < stop:
                    stop = room
            pieces.append((start, stop))
            start = stop
    return pieces


# the pristine release routine: batch paths compare against this to
# detect overridden/monkeypatched ``decref`` and fall back per-number
_BASE_DECREF = PhysicalMemory.decref
