"""Property suite: the per-number column store agrees with a
frame-object reference.

:class:`~repro.hw.phys.PhysicalMemory` keeps refcount, version and the
deferred-scrub mark in columns indexed by frame number and releases,
increments and copies runs of consecutive numbers with slice stores.
The reference here is the store it replaced, kept verbatim in
behaviour: one :class:`_RefFrame` object per frame number holding its
refcount and version, a dict of allocated frames, a pool that revives
a freed number's object, and a set of stale (unscrubbed) numbers.  Its
batch operations are the single-frame ones in a loop (``decref_many``
is ``decref`` per number, ``incref_many`` is ``incref`` per number).

Hypothesis drives programs of ``alloc``, ``alloc_run``, ``copy_frame``,
``copy_frames``, ``cow_copy``, ``incref``, ``decref``, ``decref_many``,
``map_run(incref=True)``, ``unmap_range`` and frame stores on two
machines, one per store, that start with runs straddling the first
bank boundary.  Batches mix refcounts, repeat numbers and name freed
or never-allocated numbers; the machines have little spare DRAM, so
batches run out of frames, and half the programs run under a chaos mix
of ``hw.phys.alloc_fail`` and ``hw.phys.tag_clear``.  After every step
both sides must agree on the returned numbers or raised error type,
the free list, the next fresh number, every refcount and version, the
stale set, the bank arenas' bytes and tags, the page table, the clock,
the event counters, the obs metrics (the allocated-frames gauge
included) and the chaos record; and no version may go back.
"""

import hashlib
import itertools
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro import events
from repro.chaos import ChaosEngine, FaultMix
from repro.chaos.faults import InjectedAllocFailure
from repro.cheri.capability import Capability, Perm
from repro.cheri.codec import CAP_SIZE
from repro.errors import OutOfMemory
from repro.hw.paging import AddressSpace, PagePerm
from repro.hw.phys import BANK_FRAMES, _RUN_MIN, _zeroed_arena, _zeros
from repro.machine import Machine
from repro.params import MachineConfig


def _live_numbers(phys):
    """The allocated frame numbers, ascending, read through
    ``PhysicalMemory.live_mask`` over every number handed out."""
    numbers = range(1, phys._next_frame)
    return list(itertools.compress(numbers, phys.live_mask(numbers)))


PAGE = 4096
#: frames allocated before a program runs: past the first bank
SETUP = BANK_FRAMES + 12
#: frames freed before a program runs, around the bank boundary
FREED = (3, 4, 40, 509, 510, 511, 513, 520)
#: DRAM left over after setup, so batches can run out of frames
SPARE = 10
#: injects frame-allocation failures and tag clears
CHAOS_MIX = "hw.phys.alloc_fail=0.08,hw.phys.tag_clear=0.3"
#: the page-table window map_run/unmap_range programs use
BASE_VPN = 0x100


class _RefFrame:
    """The reference frame: a bank window that owns its refcount and
    version."""

    __slots__ = ("data", "tags", "refcount", "version")

    def __init__(self, data, tags) -> None:
        self.data = data
        self.tags = tags
        self.refcount = 1
        self.version = 0

    def write(self, offset: int, data: bytes) -> None:
        self.version += 1
        self.data[offset:offset + len(data)] = data
        first = offset // CAP_SIZE
        count = (offset + len(data) - 1) // CAP_SIZE + 1 - first
        if count > 0:
            self.tags[first:first + count] = _zeros(count)

    def store_cap(self, offset: int, cap: Capability, codec) -> None:
        self.version += 1
        self.data[offset:offset + CAP_SIZE] = codec.encode(cap)
        self.tags[offset // CAP_SIZE] = 1 if cap.valid else 0

    def snapshot_content(self):
        return bytes(self.data), bytes(self.tags)

    def copy_from(self, other: "_RefFrame", preserve_tags: bool) -> None:
        self.version += 1
        self.data[:] = other.data
        if preserve_tags:
            self.tags[:] = other.tags
        else:
            self.tags[:] = _zeros(len(self.tags))


class ReferencePhysicalMemory:
    """The frame-object store: ``_frames`` maps each allocated number to
    its :class:`_RefFrame`, freed numbers' objects wait in
    ``_frame_pool`` and their numbers in ``_stale`` until a zeroing
    allocation scrubs them.  Batches are single-frame loops."""

    def __init__(self, config, costs, clock, emit, obs) -> None:
        from repro.chaos.engine import NULL_CHAOS
        self._config = config
        self._costs = costs
        self._clock = clock
        self._emit = emit
        self._obs = obs
        self.chaos = NULL_CHAOS
        self._frames: Dict[int, _RefFrame] = {}
        self._free: List[int] = []
        self._next_frame = 1
        self._capacity_frames = config.dram_bytes // config.page_size
        self._tag_banks: List[bytearray] = []
        self._data_views: List[memoryview] = []
        self._tag_views: List[memoryview] = []
        self._frame_pool: Dict[int, _RefFrame] = {}
        self._stale: set = set()
        self._page_copy_int = int(round(costs.page_copy_ns(config.page_size)))

    def _make_frame(self, number: int) -> _RefFrame:
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
        frame = _RefFrame(self._data_views[bank][d0:d0 + page_size],
                          self._tag_views[bank][t0:t0 + granules])
        self._frame_pool[number] = frame
        return frame

    def alloc(self, zero: bool = True, charge: bool = True) -> int:
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
            frame.version += 1
            frame.data[:] = _zeros(len(frame.data))
            frame.tags[:] = _zeros(len(frame.tags))
            self._stale.discard(number)
        if zero and charge:
            self._clock.advance(self._costs.page_zero_ns, "page_zero")
        self._emit(events.FRAMES_ALLOCATED)
        self._obs.gauge_set("hw.phys.allocated_frames", len(self._frames))
        return number

    def frame(self, number: int) -> _RefFrame:
        frame = self._frames.get(number)
        if frame is None:
            raise KeyError(f"no such frame {number}")
        return frame

    def contains(self, number: int) -> bool:
        return number in self._frames

    def refcount(self, number: int) -> int:
        return self.frame(number).refcount

    def incref(self, number: int) -> None:
        self.frame(number).refcount += 1

    def incref_many(self, numbers) -> None:
        for number in numbers:
            self.incref(number)

    def decref(self, number: int) -> None:
        frame = self.frame(number)
        frame.refcount -= 1
        if frame.refcount == 0:
            self._stale.add(number)
            del self._frames[number]
            self._free.append(number)
            self._emit(events.FRAMES_FREED)
            self._obs.gauge_set("hw.phys.allocated_frames", len(self._frames))

    def decref_many(self, numbers) -> None:
        for number in numbers:
            self.decref(number)

    @property
    def allocated_frames(self) -> int:
        return len(self._frames)

    def free_frames(self) -> int:
        return self._capacity_frames - len(self._frames)

    def alloc_budget(self, count: int) -> int:
        return self.chaos.lookahead("hw.phys.alloc_fail",
                                    min(count, self.free_frames()))

    def copy_frame(self, src: int, preserve_tags: bool = True,
                   charge: bool = True) -> int:
        dst = self.alloc(zero=False, charge=False)
        self.frame(dst).copy_from(self.frame(src), preserve_tags)
        if charge:
            self._clock.advance(self._page_copy_int, "page_copy")
        if preserve_tags and self.chaos.enabled and \
                self.chaos.should_fire("hw.phys.tag_clear"):
            self._recover_tag_clear(src, dst, charge)
        self._emit(events.FRAMES_COPIED)
        return dst

    def cow_copy(self, src: int) -> int:
        if self.chaos.enabled:
            return self.copy_frame(src, preserve_tags=True)
        frames = self._frames
        if len(frames) >= self._capacity_frames:
            raise OutOfMemory("physical memory exhausted")
        if self._free:
            number = self._free.pop()
        else:
            number = self._next_frame
            self._next_frame += 1
        frame = self._make_frame(number)
        frames[number] = frame
        frame.copy_from(self.frame(src), True)
        self._clock.advance(self._page_copy_int, "page_copy")
        self._settle_copies(1)
        return number

    def copy_frames(self, srcs, preserve_tags: bool = True,
                    charge: bool = True) -> List[int]:
        """The run copy's contract, frame by frame: the destinations
        are the numbers as many single allocations take, paired in
        ascending order with the sources."""
        for src in srcs:
            self.frame(src)
        fit = self.alloc_budget(len(srcs))
        taken = self._take(fit)
        dsts = sorted(taken)
        for src, number in zip(srcs, dsts):
            frame = self._make_frame(number)
            self._frames[number] = frame
            frame.copy_from(self._frames[src], preserve_tags)
        if fit:
            if charge:
                self._clock.advance(self._page_copy_int * fit, "page_copy")
            self._settle_copies(fit)
        if preserve_tags:
            for index in self.chaos.fire_each("hw.phys.tag_clear", fit):
                self._recover_tag_clear(srcs[index], dsts[index], charge)
        if fit < len(srcs):
            self._shortfall(taken, zero=False)
        return dsts

    def alloc_run(self, count: int) -> List[int]:
        fit = self.alloc_budget(count)
        numbers = self._take(fit)
        for number in numbers:
            frame = self._make_frame(number)
            self._frames[number] = frame
            if number in self._stale:
                frame.version += 1
                frame.data[:] = _zeros(len(frame.data))
                frame.tags[:] = _zeros(len(frame.tags))
                self._stale.discard(number)
        if fit:
            self._emit(events.FRAMES_ALLOCATED, fit)
            self._obs.gauge_set("hw.phys.allocated_frames", len(self._frames))
        if fit < count:
            self._shortfall(numbers, zero=True)
        return numbers

    def _take(self, count: int) -> List[int]:
        self.chaos.fire_each("hw.phys.alloc_fail", count)
        taken = []
        while len(taken) < count and self._free:
            taken.append(self._free.pop())
        while len(taken) < count:
            taken.append(self._next_frame)
            self._next_frame += 1
        return taken

    def _shortfall(self, taken: List[int], zero: bool) -> None:
        try:
            self.alloc(zero=zero, charge=False)
        finally:
            self.decref_many(taken)
        raise AssertionError("alloc_budget predicted a failing allocation")

    def _settle_copies(self, count: int) -> None:
        self._emit(events.FRAMES_ALLOCATED, count)
        self._emit(events.FRAMES_COPIED, count)
        self._obs.gauge_set("hw.phys.allocated_frames", len(self._frames))

    def _recover_tag_clear(self, src: int, dst: int, charge: bool) -> None:
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
                    "page_copy")
            self.chaos.note_recovery("hw.phys.tag_clear")


# ---------------------------------------------------------------------------
# The two sides
# ---------------------------------------------------------------------------

def _side(reference: bool, chaos_seed):
    """A machine (the reference store swapped in, when asked) with
    :data:`SETUP` frames allocated, most holding distinct bytes, some a
    capability and some a second reference, then :data:`FREED`
    released; and an empty address space on it."""
    machine = Machine(config=MachineConfig(
        dram_bytes=(SETUP - len(FREED) + SPARE) * PAGE))
    if reference:
        machine.phys = ReferencePhysicalMemory(
            machine.config, machine.costs, machine.clock, machine.emit,
            machine.obs)
    machine.obs.enable()
    phys = machine.phys
    for number in range(1, SETUP + 1):
        assert phys.alloc(zero=True, charge=False) == number
        if number % 3:
            phys.frame(number).write(CAP_SIZE, number.to_bytes(4, "little"))
        if number % 5 == 0:
            phys.frame(number).store_cap(0, _cap(number), machine.codec)
        if number % 7 == 0:
            phys.incref(number)  # runs of mixed refcounts
    for number in FREED:
        phys.decref(number)
    if chaos_seed is not None:
        ChaosEngine(seed=chaos_seed,
                    mix=FaultMix.parse(CHAOS_MIX)).attach(machine)
    return machine, AddressSpace(machine, "diff")


def _cap(seed: int) -> Capability:
    base = seed * PAGE
    return Capability(base=base, length=64, cursor=base, perms=Perm.data_rw())


def _digest(buffers) -> List[str]:
    return [hashlib.sha256(buffer).hexdigest() for buffer in buffers]


def _state(machine, space, reference: bool):
    """Every observable of one side."""
    phys = machine.phys
    numbers = range(1, phys._next_frame)
    if reference:
        refcounts = [phys._frames[n].refcount if n in phys._frames else 0
                     for n in numbers]
        versions = [phys._frame_pool[n].version for n in numbers]
        stale = sorted(phys._stale)
    else:
        refcounts = [phys.refcount(n) if phys.contains(n) else 0
                     for n in numbers]
        versions = list(phys._versions[1:phys._next_frame])
        stale = list(itertools.compress(itertools.count(), phys._stale))
    return {
        "free": list(phys._free),
        "next": phys._next_frame,
        "allocated": phys.allocated_frames,
        "free_frames": phys.free_frames(),
        "refcounts": refcounts,
        "versions": versions,
        "stale": stale,
        "data": _digest(phys._data_views),
        "tags": _digest(phys._tag_banks),
        "ptes": space.mapped_items(0, 1 << 30),
        "clock": machine.clock.now_ns,
        "buckets": dict(machine.clock.buckets),
        "counters": machine.counters.snapshot(),
        "obs": machine.obs.export()["metrics"],
        "chaos": machine.chaos.export() if machine.chaos.enabled else None,
    }


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

OPS = ("alloc", "alloc_run", "copy_frame", "copy_frames", "cow_copy",
       "incref", "decref", "decref_many", "map_run", "unmap_range",
       "store")


@st.composite
def _number(draw, live):
    """Mostly an allocated number; sometimes any number, freed, never
    allocated or out of range."""
    if live and draw(st.integers(0, 9)):
        return draw(st.sampled_from(live))
    return draw(st.integers(-1, SETUP + SPARE + 2))


@st.composite
def _batch(draw, live):
    """Runs up and down from allocated numbers (across the bank
    boundary when drawn near it), single picks and repeats."""
    out: List[int] = []
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(st.sampled_from(["up", "down", "pick", "repeat"]))
        first = draw(_number(live))
        length = draw(st.integers(1, 40))
        if shape == "up":
            out += range(first, first + length)
        elif shape == "down":
            out += range(first, first - length, -1)
        elif shape == "pick":
            out += draw(st.lists(_number(live), max_size=length))
        elif out:
            out += draw(st.lists(st.sampled_from(out), max_size=4))
    return out


def _draw_step(data, live, mapped_hi):
    """One program step: an op name and its arguments."""
    op = data.draw(st.sampled_from(OPS))
    if op == "alloc":
        return op, (data.draw(st.booleans()), data.draw(st.booleans()))
    if op == "alloc_run":
        return op, (data.draw(st.integers(0, SPARE + 3)),)
    if op in ("copy_frame", "cow_copy", "incref", "decref"):
        args = (data.draw(_number(live)),)
        if op == "copy_frame":
            args += (data.draw(st.booleans()),)
        return op, args
    if op == "copy_frames":
        live_only = data.draw(st.booleans())
        srcs = data.draw(_batch(live))
        if live_only:
            srcs = [src for src in srcs if src in live]
        return op, (srcs, data.draw(st.booleans()))
    if op == "decref_many":
        return op, (data.draw(_batch(live)),)
    if op == "map_run":
        return op, (data.draw(_batch(live)),)
    if op == "unmap_range":
        lo = data.draw(st.integers(BASE_VPN, max(BASE_VPN, mapped_hi)))
        return op, (lo, lo + data.draw(st.integers(0, 40)))
    return op, (data.draw(_number(live)), data.draw(st.integers(0, 255)),
                data.draw(st.booleans()))


def _apply(machine, space, op, args, vpn):
    """Run one step; the returned value, or the raised error's type."""
    phys = machine.phys
    try:
        if op == "map_run":
            space.map_run(vpn, args[0], PagePerm.READ | PagePerm.WRITE,
                          incref=True)
            return None
        if op == "unmap_range":
            return space.unmap_range(*args)
        if op == "store":
            number, granule, as_cap = args
            frame = phys.frame(number)
            if as_cap:
                frame.store_cap(granule * CAP_SIZE, _cap(granule),
                                machine.codec)
            else:
                frame.write(granule * CAP_SIZE + 3, b"store")
            return None
        return getattr(phys, op)(*args)
    except (KeyError, OutOfMemory, InjectedAllocFailure) as exc:
        return type(exc).__name__


@settings(max_examples=60, deadline=None)
@given(data=st.data(), chaos_seed=st.none() | st.integers(0, 2 ** 16))
def test_columns_match_frame_objects(data, chaos_seed):
    new, new_space = _side(False, chaos_seed)
    ref, ref_space = _side(True, chaos_seed)
    assert _state(new, new_space, False) == _state(ref, ref_space, True)
    versions = list(new.phys._versions)
    vpn = BASE_VPN
    for _ in range(data.draw(st.integers(1, 25))):
        live = _live_numbers(new.phys)
        op, args = _draw_step(data, live, vpn)
        got = _apply(new, new_space, op, args, vpn)
        want = _apply(ref, ref_space, op, args, vpn)
        assert got == want, (op, args)
        if op == "map_run":
            vpn += len(args[0]) + 1
        state = _state(new, new_space, False)
        assert state == _state(ref, ref_space, True), (op, args)
        now = list(new.phys._versions)
        assert all(after >= before for before, after in zip(versions, now))
        versions = now


def test_decref_many_counts_frees_before_a_bad_number():
    """A batch that meets an unallocated number part-way has freed the
    numbers before it: counters, gauge and free list say so, as after
    the per-number loop."""
    sides = []
    for batched in (True, False):
        machine = Machine()
        machine.obs.enable()
        phys = machine.phys
        a, b = phys.alloc_run(2)
        phys.decref(b)
        with pytest.raises(KeyError):
            if batched:
                phys.decref_many([a, b])
            else:
                for number in (a, b):
                    phys.decref(number)
        sides.append((machine.counters.snapshot(),
                      machine.obs.export()["metrics"], list(phys._free),
                      phys.allocated_frames))
    assert sides[0] == sides[1]
    assert sides[0][0]["frames_freed"] == 2


@pytest.mark.parametrize("length", [_RUN_MIN - 1, _RUN_MIN, 40])
@pytest.mark.parametrize("pattern", ["ones", "twos", "mixed"])
@pytest.mark.parametrize("offset", [0, BANK_FRAMES - 10])
def test_decref_many_run_matches_the_loop(length, pattern, offset):
    """One run of consecutive numbers either side of the slice-store
    cut-off, with equal or mixed refcounts, inside a bank or across a
    bank edge: the batch leaves the columns, free list, counters and
    gauge the per-number loop leaves."""
    sides = []
    for batched in (True, False):
        machine = Machine()
        machine.obs.enable()
        phys = machine.phys
        if offset:
            phys.alloc_run(offset)
        numbers = phys.alloc_run(length)
        for index, number in enumerate(numbers):
            if pattern == "twos" or (pattern == "mixed" and index % 3 == 0):
                phys.incref(number)
        if batched:
            phys.decref_many(numbers)
        else:
            for number in numbers:
                phys.decref(number)
        sides.append((list(phys._refcounts), bytes(phys._stale),
                      list(phys._free), phys.allocated_frames,
                      machine.counters.snapshot(),
                      machine.obs.export()["metrics"]))
    assert sides[0] == sides[1]
