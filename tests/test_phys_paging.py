"""Tests for physical memory (frames + tags) and paging (faults, CoW hooks)."""

import itertools
import random
from array import array
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cheri.capability import Capability, Perm
from repro.cheri.codec import CAP_SIZE, CapabilityCodec
from repro.errors import (
    AlignmentFault,
    OutOfMemory,
    ProtectionError,
    UnmappedAddressError,
)
from repro.hw import paging
from repro.hw.paging import AccessKind, AddressSpace, PagePerm
from repro.hw.phys import BANK_FRAMES, consecutive_runs
from repro.machine import Machine


def _live_numbers(phys):
    """The allocated frame numbers, ascending, read through
    ``PhysicalMemory.live_mask`` over every number handed out."""
    numbers = range(1, phys._next_frame)
    return list(itertools.compress(numbers, phys.live_mask(numbers)))


def _fresh_frame():
    """A fresh page, allocated from a machine's physical memory."""
    phys = Machine().phys
    return phys.frame(phys.alloc())


class TestFrame:
    def make_frame(self):
        return _fresh_frame()

    def test_read_write_roundtrip(self):
        frame = self.make_frame()
        frame.write(100, b"hello")
        assert bytes(frame.data[100:105]) == b"hello"

    def test_write_clears_overlapping_tags(self):
        frame = self.make_frame()
        codec = CapabilityCodec()
        cap = Capability(base=0, length=64, cursor=0, perms=Perm.data_rw())
        frame.store_cap(32, cap, codec)
        assert frame.tags[2] == 1
        frame.write(40, b"x")  # inside granule 2
        assert frame.tags[2] == 0

    def test_write_spanning_granules_clears_all(self):
        frame = self.make_frame()
        codec = CapabilityCodec()
        cap = Capability(base=0, length=64, cursor=0, perms=Perm.data_rw())
        frame.store_cap(0, cap, codec)
        frame.store_cap(16, cap, codec)
        frame.store_cap(32, cap, codec)
        frame.write(8, bytes(20))  # touches granules 0 and 1
        assert list(frame.tags[:3]) == [0, 0, 1]

    def test_cap_store_load_roundtrip(self):
        frame = self.make_frame()
        codec = CapabilityCodec()
        cap = Capability(base=0x2000, length=0x40, cursor=0x2010,
                         perms=Perm.data_ro())
        frame.store_cap(48, cap, codec)
        loaded = frame.load_cap(48, codec)
        assert loaded == cap

    def test_unaligned_cap_access_faults(self):
        frame = self.make_frame()
        codec = CapabilityCodec()
        cap = Capability(base=0, length=16, cursor=0, perms=Perm.data_rw())
        with pytest.raises(AlignmentFault):
            frame.store_cap(8, cap, codec)
        with pytest.raises(AlignmentFault):
            frame.load_cap(8, codec)

    def test_load_untagged_granule_gives_invalid_cap(self):
        frame = self.make_frame()
        codec = CapabilityCodec()
        loaded = frame.load_cap(0, codec)
        assert not loaded.valid

    def test_tagged_granules(self):
        frame = self.make_frame()
        codec = CapabilityCodec()
        cap = Capability(base=0, length=16, cursor=0, perms=Perm.data_rw())
        frame.store_cap(0, cap, codec)
        frame.store_cap(4080, cap, codec)
        assert frame.tagged_granules() == [0, 4080]

    def test_copy_preserving_tags(self):
        src, dst = self.make_frame(), self.make_frame()
        codec = CapabilityCodec()
        cap = Capability(base=0, length=16, cursor=0, perms=Perm.data_rw())
        src.store_cap(16, cap, codec)
        src.write(200, b"abc")
        dst.copy_from(src, preserve_tags=True)
        assert dst.load_cap(16, codec).valid
        assert bytes(dst.data[200:203]) == b"abc"

    def test_copy_without_tags(self):
        src, dst = self.make_frame(), self.make_frame()
        codec = CapabilityCodec()
        cap = Capability(base=0, length=16, cursor=0, perms=Perm.data_rw())
        src.store_cap(16, cap, codec)
        dst.copy_from(src, preserve_tags=False)
        assert not dst.load_cap(16, codec).valid
        # bytes still copied: cursor readable as data
        assert dst.data[16:16 + CAP_SIZE] == src.data[16:16 + CAP_SIZE]

    @given(offset=st.integers(0, 4095), size=st.integers(1, 64))
    def test_prop_any_byte_write_untags_its_granules(self, offset, size):
        frame = _fresh_frame()
        codec = CapabilityCodec()
        cap = Capability(base=0, length=16, cursor=0, perms=Perm.data_rw())
        for granule_offset in range(0, 4096, CAP_SIZE):
            frame.store_cap(granule_offset, cap, codec)
        size = min(size, 4096 - offset)
        frame.write(offset, bytes(size))
        first = offset // CAP_SIZE
        last = (offset + size - 1) // CAP_SIZE
        for granule in range(256):
            expected = 0 if first <= granule <= last else 1
            assert frame.tags[granule] == expected


class TestPhysicalMemory:
    def test_alloc_returns_distinct_frames(self, machine):
        a = machine.phys.alloc()
        b = machine.phys.alloc()
        assert a != b
        assert machine.phys.allocated_frames == 2

    def test_refcounting_frees_at_zero(self, machine):
        fn = machine.phys.alloc()
        machine.phys.incref(fn)
        machine.phys.decref(fn)
        assert machine.phys.contains(fn)
        machine.phys.decref(fn)
        assert not machine.phys.contains(fn)

    def test_frame_numbers_recycled(self, machine):
        fn = machine.phys.alloc()
        machine.phys.decref(fn)
        assert machine.phys.alloc() == fn

    def test_out_of_memory(self, small_machine):
        with pytest.raises(OutOfMemory):
            for _ in range(100):
                small_machine.phys.alloc()

    def test_copy_frame_charges_time(self, machine):
        fn = machine.phys.alloc()
        machine.phys.frame(fn).write(0, b"data")
        before = machine.clock.now_ns
        dst = machine.phys.copy_frame(fn)
        assert machine.clock.now_ns > before
        assert bytes(machine.phys.frame(dst).data[:4]) == b"data"

    def test_allocation_charges_zeroing(self, machine):
        before = machine.clock.now_ns
        machine.phys.alloc(zero=True)
        assert machine.clock.now_ns - before == int(machine.costs.page_zero_ns)

    def test_tagged_frames_of_a_run_across_a_bank_edge(self, machine):
        phys = machine.phys
        phys.alloc_run(BANK_FRAMES - 3)
        numbers = phys.alloc_run(6)
        cap = Capability(base=0, length=64, cursor=0, perms=Perm.data_rw())
        for position in (1, 3, 5):
            phys.frame(numbers[position]).store_cap(
                16 * position, cap, machine.codec)
        assert phys.tagged_frames(numbers) == [1, 3, 5]
        assert phys.tagged_frames(numbers[::-1]) == [0, 2, 4]

    @pytest.mark.parametrize("bad", ["freed", 0, -1, "past"])
    def test_tagged_frames_raises_for_an_unallocated_number(
            self, machine, bad):
        """A freed slot may still hold tags until scrubbed; the scan
        refuses it (and any never-allocated number) as ``frame`` does."""
        phys = machine.phys
        numbers = phys.alloc_run(4)
        cap = Capability(base=0, length=64, cursor=0, perms=Perm.data_rw())
        phys.frame(numbers[2]).store_cap(0, cap, machine.codec)
        if bad == "freed":
            phys.decref(numbers[2])
        else:
            numbers[2] = 10 ** 6 if bad == "past" else bad
        with pytest.raises(KeyError, match=f"no such frame {numbers[2]}"):
            phys.tagged_frames(numbers)


class TestCheckColumns:
    """``check_columns`` (the conformance audit's frame check) reports
    each way the per-number state can disagree with itself."""

    @staticmethod
    def build():
        phys = Machine().phys
        numbers = phys.alloc_run(6)
        phys.incref(numbers[0])
        phys.decref(numbers[1])
        phys.decref(numbers[4])
        assert phys.check_columns() == []
        return phys, numbers

    def test_live_count_off_by_one(self):
        phys, _numbers = self.build()
        phys._live += 1
        assert phys.check_columns() == [
            "frames: 5 frames counted allocated, 4 with a positive refcount"]

    def test_negative_refcount(self):
        phys, numbers = self.build()
        phys._refcounts[numbers[2]] = -1
        assert f"frames: frame {numbers[2]} refcount -1" in \
            phys.check_columns()

    def test_allocated_frame_on_the_free_list(self):
        phys, numbers = self.build()
        phys._free.append(numbers[0])
        assert phys.check_columns() == [
            f"frames: free-list frame {numbers[0]} is allocated or out of "
            f"range"]

    def test_out_of_range_number_on_the_free_list(self):
        phys, _numbers = self.build()
        phys._free.append(0)
        assert phys.check_columns() == [
            "frames: free-list frame 0 is allocated or out of range"]

    def test_free_number_listed_twice(self):
        phys, numbers = self.build()
        phys._free.append(numbers[1])
        assert phys.check_columns() == [
            f"frames: frame {numbers[1]} listed free twice"]

    def test_the_conformance_audit_reports_it(self):
        from repro.api import Session
        from repro.conform.invariants import check_invariants, leak_report

        os_ = Session(strategy="copa", cpus=1, seed=1).boot().os
        phys = os_.machine.phys
        phys._live += 1
        try:
            expected = (f"frames: {phys._live} frames counted allocated, "
                        f"{phys._live - 1} with a positive refcount")
            assert expected in leak_report(os_)
            assert expected in check_invariants(os_)
        finally:
            phys._live -= 1


class TestFrameNumberChurn:
    """Frame numbers are never double-issued, whatever the free/alloc
    interleaving — a regression net over the free list, the deferred
    scrub set and the frame-object pool, which all key on numbers.

    ``chaos`` attaches a chaos engine injecting frame-allocation
    failures and tag clears: ``cow_copy`` then takes the layered
    ``copy_frame`` path, and a failed ``alloc``/``copy_frame``/
    ``copy_frames`` must leave nothing allocated behind (the final
    count checks that no failed batch leaked its copies).
    """

    @pytest.mark.parametrize("chaos", [False, True])
    def test_heavy_churn_never_double_issues(self, chaos):
        import random

        from repro.chaos import ChaosEngine, FaultMix
        from repro.chaos.faults import InjectedAllocFailure

        machine = Machine(seed=1)
        if chaos:
            ChaosEngine(seed=1, mix=FaultMix.parse("hw.phys.*=0.05")
                        ).attach(machine)
        phys = machine.phys
        assert phys.chaos.enabled is chaos
        rng = random.Random(20250808)
        live = {}  # number -> remaining references we hold
        for step in range(2000):
            try:
                self.churn_step(phys, rng, live, step)
            except InjectedAllocFailure:
                assert chaos
            # the live view and the pool agree at every step
            assert set(live) == {
                number for number in live if phys.contains(number)}
        assert phys.allocated_frames == len(live)
        if chaos:
            assert phys.chaos.fired["hw.phys.alloc_fail"] > 0
            assert phys.chaos.fired["hw.phys.tag_clear"] > 0

    @staticmethod
    def churn_step(phys, rng, live, step):
        """One random alloc, copy, (in|de)ref or batch release."""
        action = rng.randrange(6)
        if action <= 1 or not live:
            number = phys.alloc(zero=bool(step % 2), charge=False)
            assert number not in live, \
                f"step {step}: frame {number} double-issued"
            live[number] = 1
        elif action == 2:
            src = rng.choice(list(live))
            dst = phys.cow_copy(src)
            assert dst not in live, \
                f"step {step}: cow_copy double-issued {dst}"
            live[dst] = 1
        elif action == 3:
            srcs = rng.sample(list(live), min(len(live), 4))
            dsts = phys.copy_frames(srcs, preserve_tags=True,
                                    charge=False)
            for dst in dsts:
                assert dst not in live, \
                    f"step {step}: copy_frames double-issued {dst}"
                live[dst] = 1
        elif action == 4:
            number = rng.choice(list(live))
            if rng.randrange(2):
                phys.incref(number)
                live[number] += 1
            else:
                phys.decref(number)
                live[number] -= 1
                if not live[number]:
                    del live[number]
        else:
            batch = rng.sample(list(live), min(len(live), 8))
            phys.decref_many(batch)
            for number in batch:
                live[number] -= 1
                if not live[number]:
                    del live[number]


class TestVersionBump:
    """``(number, version)`` names one frame content: every public
    mutator of a frame's bytes or tags bumps its ``version``, and a
    frame number's version never goes back, across free and
    reallocation included.  The fork run memo, the capability-flow
    audit's clean-verdict memo and the copy provenance of
    ``copy_frames`` are sound only while this holds.
    """

    PAGE = 4096
    #: mapped pages of the address space, from :attr:`BASE_VPN`
    PAGES = 3
    BASE_VPN = 16
    #: unmapped frames the test owns, at most
    SPARE = 6
    CODEC = CapabilityCodec()
    OPS = ("frame_write", "store_cap", "write_granule", "clear_tags",
           "restore_content", "restore_contents", "copy_from", "copy_frame",
           "copy_frames", "recycled_copy", "cow_copy", "realloc",
           "alloc_run", "space_write", "space_store_cap", "space_write_run",
           "space_store_granules", "phys_clear_tags")

    @staticmethod
    def observe(phys, seen):
        for number in _live_numbers(phys):
            frame = phys.frame(number)
            content = frame.snapshot_content()
            if number in seen:
                version, before = seen[number]
                assert frame.version >= version, \
                    f"frame {number}: version went back"
                if content != before:
                    assert frame.version != version, \
                        f"frame {number}: content changed, version did not"
            seen[number] = (frame.version, content)

    def cap(self, data):
        base = data.draw(st.integers(0, 1 << 20)) * CAP_SIZE
        return Capability(base=base, length=64, cursor=base,
                          perms=Perm.data_rw())

    def step(self, data, machine, space, spare):
        phys = machine.phys
        numbers = _live_numbers(phys)
        number = data.draw(st.sampled_from(numbers))
        frame = phys.frame(number)
        other = phys.frame(data.draw(st.sampled_from(numbers)))
        granule = data.draw(st.integers(0, self.PAGE // CAP_SIZE - 1))
        vaddr = self.BASE_VPN * self.PAGE + data.draw(
            st.integers(0, self.PAGES * self.PAGE - 64))
        op = data.draw(st.sampled_from(self.OPS))
        if op == "frame_write":
            size = data.draw(st.integers(1, 64))
            offset = data.draw(st.integers(0, self.PAGE - size))
            frame.write(offset, data.draw(st.binary(min_size=size,
                                                    max_size=size)))
        elif op == "store_cap":
            frame.store_cap(granule * CAP_SIZE, self.cap(data), self.CODEC)
        elif op == "write_granule":
            frame.write_granule(granule * CAP_SIZE,
                                data.draw(st.binary(min_size=CAP_SIZE,
                                                    max_size=CAP_SIZE)),
                                data.draw(st.integers(0, 1)))
        elif op == "clear_tags":
            lo, hi = sorted(data.draw(st.lists(
                st.integers(0, self.PAGE), min_size=2, max_size=2)))
            frame.clear_tags_range(lo, hi)
        elif op == "restore_content":
            frame.restore_content(*other.snapshot_content())
        elif op == "restore_contents":
            targets = data.draw(st.lists(st.sampled_from(numbers), min_size=1,
                                         max_size=3, unique=True))
            contents = [phys.frame(data.draw(st.sampled_from(numbers))
                                   ).snapshot_content() for _ in targets]
            phys.restore_contents(targets,
                                  b"".join(blob for blob, _ in contents),
                                  b"".join(tags for _, tags in contents))
        elif op == "copy_from":
            frame.copy_from(other, data.draw(st.booleans()))
        elif op == "copy_frame":
            spare.append(phys.copy_frame(number, data.draw(st.booleans())))
        elif op == "copy_frames":
            srcs = data.draw(st.lists(st.sampled_from(numbers), min_size=1,
                                      max_size=3))
            spare.extend(phys.copy_frames(srcs, data.draw(st.booleans())))
        elif op == "recycled_copy":
            # copy, free the destinations, rewrite one of them through a
            # reallocation, free it again and copy the same sources: the
            # second copy takes the same numbers, and the rewritten one
            # no longer holds its source's content (copy provenance)
            srcs = data.draw(st.lists(st.sampled_from(numbers), min_size=1,
                                      max_size=3))
            phys.decref_many(sorted(phys.copy_frames(srcs)))
            recycled = phys.alloc(zero=data.draw(st.booleans()))
            phys.frame(recycled).write(
                data.draw(st.integers(0, self.PAGE - 8)), b"recycled")
            phys.decref(recycled)
            dsts = phys.copy_frames(srcs)
            assert recycled in dsts
            for src, dst in zip(srcs, dsts):
                assert phys.frame(dst).snapshot_content() == \
                    phys.frame(src).snapshot_content()
            spare.extend(dsts)
        elif op == "cow_copy":
            spare.append(phys.cow_copy(number))
        elif op == "realloc":
            if spare:
                phys.decref(spare.pop(data.draw(
                    st.integers(0, len(spare) - 1))))
            spare.append(phys.alloc(zero=data.draw(st.booleans())))
        elif op == "alloc_run":
            # release some spares first, so the run revives stale slots
            for _ in range(data.draw(st.integers(0, len(spare)))):
                phys.decref(spare.pop(0))
            spare.extend(phys.alloc_run(data.draw(st.integers(0, 3))))
        elif op == "space_write":
            space.write(vaddr, data.draw(st.binary(min_size=1,
                                                   max_size=64)))
        elif op == "space_store_cap":
            space.store_cap(vaddr - vaddr % CAP_SIZE, self.cap(data))
        elif op == "space_store_granules":
            count = data.draw(st.integers(1, 4))
            space.store_granules(
                vaddr - vaddr % CAP_SIZE,
                data.draw(st.binary(min_size=count * CAP_SIZE,
                                    max_size=count * CAP_SIZE)),
                bytes(data.draw(st.lists(st.integers(0, 1), min_size=count,
                                         max_size=count))))
        elif op == "space_write_run":
            vaddrs = data.draw(st.lists(st.just(vaddr) | st.integers(
                self.BASE_VPN * self.PAGE,
                (self.BASE_VPN + self.PAGES) * self.PAGE - 8),
                min_size=1, max_size=4))
            space.write_run(vaddrs, data.draw(st.binary(min_size=1,
                                                        max_size=8)))
        else:
            lo, hi = sorted(data.draw(st.lists(
                st.integers(0, self.PAGE), min_size=2, max_size=2)))
            phys.clear_tags_range(number, lo, hi)
        while len(spare) > self.SPARE:
            phys.decref(spare.pop(0))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_prop_content_change_bumps_version(self, data):
        machine = Machine()
        space = AddressSpace(machine, "test")
        for index in range(self.PAGES):
            space.map_page(self.BASE_VPN + index, machine.phys.alloc(),
                           PagePerm.rwc())
        spare = []
        seen = {}
        self.observe(machine.phys, seen)
        for _ in range(data.draw(st.integers(1, 30))):
            self.step(data, machine, space, spare)
            self.observe(machine.phys, seen)


    def test_store_granules_bumps_each_page_once(self):
        machine = Machine()
        space = AddressSpace(machine, "test")
        for index in range(self.PAGES):
            space.map_page(self.BASE_VPN + index, machine.phys.alloc(),
                           PagePerm.rwc())
        frames = [machine.phys.frame(space.frame_of(self.BASE_VPN + index))
                  for index in range(self.PAGES)]
        before = [frame.version for frame in frames]
        # two granules at the end of page 0, all of page 1, one of page 2
        vaddr = (self.BASE_VPN + 1) * self.PAGE - 2 * CAP_SIZE
        count = 2 + self.PAGE // CAP_SIZE + 1
        space.store_granules(vaddr, b"\xab" * (count * CAP_SIZE),
                             b"\x01" * count)
        assert [frame.version - old for frame, old
                in zip(frames, before)] == [1, 1, 1]
        assert frames[2].tagged_granules() == [0]
        assert frames[0].tagged_granules() == [self.PAGE - 2 * CAP_SIZE,
                                               self.PAGE - CAP_SIZE]

    def test_alloc_run_scrub_bumps_once_and_never_goes_back(self):
        machine = Machine()
        phys = machine.phys
        numbers = phys.alloc_run(3)
        for number in numbers:
            phys.frame(number).write(0, b"stale")
        versions = {number: phys.frame(number).version for number in numbers}
        for number in numbers:
            phys.decref(number)
        # a run takes the free-list tail first, then a fresh number
        again = phys.alloc_run(4)
        assert again == numbers[::-1] + [numbers[-1] + 1]
        for number in numbers:
            frame = phys.frame(number)
            assert frame.version == versions[number] + 1
            assert frame.snapshot_content() == (bytes(self.PAGE),
                                                bytes(self.PAGE // CAP_SIZE))
        assert phys.frame(again[-1]).version == 0


def _naive_runs(numbers, keys):
    """Reference: grow each run while the next number is one more and
    its key is the same."""
    runs = []
    start = 0
    while start < len(numbers):
        end = start + 1
        while end < len(numbers) and \
                numbers[end] == numbers[end - 1] + 1 and \
                keys[end] == keys[start]:
            end += 1
        runs.append((start, end))
        start = end
    return runs


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 1)),
                max_size=40))
# spanning len(numbers) values without being one run: a repeat and a gap
@example([(0, 0), (0, 0), (2, 0)])
# ... and a swapped pair
@example([(0, 0), (2, 0), (-1, 0), (2, 0)])
def test_consecutive_runs_match_a_naive_scan(steps):
    """``consecutive_runs`` (shared by fork's ``map_run`` grouping and
    the bank-run copy and tag scan) splits exactly where a number does
    not follow its predecessor or, with keys, the key changes."""
    numbers = []
    for step, _key in steps:
        numbers.append(numbers[-1] + step if numbers else 100)
    keys = [key for _step, key in steps]
    assert consecutive_runs(numbers, keys) == _naive_runs(numbers, keys)
    assert consecutive_runs(numbers) == \
        _naive_runs(numbers, [0] * len(numbers))


class TestAllocRun:
    """``alloc_run(count)`` is ``count`` calls of ``alloc(zero=True,
    charge=False)``: the same numbers in the same order, the same chaos
    draws, the same scrub of stale slots, the same counters and gauge.
    On a shortfall it raises what the failing single call raises, with
    what it took released in allocation order — compared here with a
    single-call loop that does the same release.
    """

    #: frames allocated, written and partly freed before the run
    WRITTEN = 12

    @staticmethod
    def single_loop(phys, count):
        taken = []
        try:
            for _ in range(count):
                taken.append(phys.alloc(zero=True, charge=False))
        except Exception:
            for number in taken:
                phys.decref(number)
            raise
        return taken

    def run(self, batched, count, freed, dram_frames, rate, seed):
        from repro.chaos import ChaosEngine, FaultMix
        from repro.params import MachineConfig

        machine = Machine(config=MachineConfig(dram_bytes=dram_frames * 4096))
        machine.obs.enable()
        phys = machine.phys
        for number in range(1, self.WRITTEN + 1):
            assert phys.alloc() == number
            phys.frame(number).write(number, b"old content")
        for number in freed:
            phys.decref(number)
        engine = ChaosEngine(
            seed=seed, mix=FaultMix.parse(f"hw.phys.alloc_fail={rate}"))
        engine.attach(machine)
        try:
            if batched:
                result = phys.alloc_run(count)
            else:
                result = self.single_loop(phys, count)
        except Exception as exc:  # noqa: BLE001 - must match
            result = type(exc).__name__
        return {
            "result": result,
            "free": list(phys._free),
            "next": phys._next_frame,
            "stale": list(itertools.compress(itertools.count(),
                                            phys._stale)),
            "frames": [(number, phys.frame(number).version,
                        phys.refcount(number),
                        phys.frame(number).snapshot_content())
                       for number in _live_numbers(phys)],
            "counters": machine.counters.snapshot(),
            "obs": machine.obs.export()["metrics"],
            "hits": dict(engine.hits),
            "injections": list(engine.injections),
        }

    @settings(max_examples=80, deadline=None)
    @given(count=st.integers(0, 20),
           freed=st.lists(st.integers(1, WRITTEN), unique=True, max_size=8),
           spare=st.integers(0, 30),
           rate=st.sampled_from([0.0, 0.05, 0.3]),
           seed=st.integers(0, 50))
    @example(count=5, freed=[3, 1], spare=2, rate=0.0, seed=0)  # OOM
    def test_matches_single_calls(self, count, freed, spare, rate, seed):
        dram = self.WRITTEN + spare
        assert self.run(True, count, freed, dram, rate, seed) == \
            self.run(False, count, freed, dram, rate, seed)


class TestRunCopy:
    """``copy_frames`` copies by bank run; it must move exactly the
    bytes and tags a per-frame ``copy_frame`` loop moves.

    Each check builds two identical machines, copies the same sources
    with ``copy_frames`` on one and ``copy_frame`` per source on the
    other, and compares them.  Only which destination number a source
    gets may differ: the numbers allocated, the free list left behind,
    the clock and the counters may not.
    """

    #: enough frames that sources and destinations cross the first
    #: 512-frame bank boundary
    FRAMES = 540
    #: every 7th frame is never written: an untouched source
    UNTOUCHED = 7
    CODEC = CapabilityCodec()

    @classmethod
    def build(cls, freed, dram_frames=None):
        """A machine with :attr:`FRAMES` frames, each holding distinct
        bytes and a capability in the first and last granule of the
        page (except the untouched ones), then ``freed`` released in
        order, so copies draw from the free-list tail, then fresh
        numbers.  Returns the machine and each freed frame's version."""
        from repro.params import CostModel, MachineConfig

        config = MachineConfig() if dram_frames is None else \
            MachineConfig(dram_bytes=dram_frames * 4096)
        machine = Machine(config=config, costs=CostModel.morello())
        phys = machine.phys
        for number in range(1, cls.FRAMES + 1):
            assert phys.alloc(zero=True, charge=False) == number
            if number % cls.UNTOUCHED == 0:
                continue
            frame = phys.frame(number)
            frame.write(CAP_SIZE, number.to_bytes(4, "little") * 8)
            for offset in (0, 4096 - CAP_SIZE):
                cap = Capability(base=number * 4096, length=64,
                                 cursor=number * 4096 + offset,
                                 perms=Perm.data_rw())
                frame.store_cap(offset, cap, cls.CODEC)
        versions = {number: phys.frame(number).version for number in freed}
        for number in freed:
            phys.decref(number)
        return machine, versions

    @staticmethod
    def content(machine, number):
        return machine.phys.frame(number).snapshot_content()

    @staticmethod
    def later_allocations(machine, count):
        """The next ``count`` frame numbers: the free list's order,
        then the fresh numbers."""
        return [machine.phys.alloc(zero=False, charge=False)
                for _ in range(count)]

    def check(self, srcs, freed, preserve_tags=True):
        bulk, before = self.build(freed)
        ref, _versions = self.build(freed)
        dsts = bulk.phys.copy_frames(srcs, preserve_tags=preserve_tags)
        refs = [ref.phys.copy_frame(src, preserve_tags) for src in srcs]

        assert type(dsts) is array
        assert list(dsts) == sorted(dsts), \
            "destinations pair in ascending order"
        assert sorted(dsts) == sorted(refs)
        granules = bulk.config.granules_per_page
        for src, dst, ref_dst in zip(srcs, dsts, refs):
            data, tags = self.content(bulk, dst)
            assert (data, tags) == self.content(ref, ref_dst)
            src_data, src_tags = self.content(bulk, src)
            assert data == src_data
            assert tags == (src_tags if preserve_tags else bytes(granules))
            # the memo keys on (number, version): a revived frame must
            # never come back at a version it was seen at
            assert bulk.phys.frame(dst).version == before.get(dst, 0) + 1
        assert bulk.clock.now_ns == ref.clock.now_ns
        assert bulk.counters.snapshot() == ref.counters.snapshot()
        assert bulk.phys.allocated_frames == ref.phys.allocated_frames
        assert bulk.phys.free_frames() == ref.phys.free_frames()
        assert self.later_allocations(bulk, len(freed) + 3) == \
            self.later_allocations(ref, len(freed) + 3)

    def test_source_run_straddles_a_bank_boundary(self):
        self.check(list(range(500, 530)), freed=[])

    def test_destinations_straddle_a_bank_boundary(self):
        # reused 510..514 cross from bank 0 into bank 1
        self.check(list(range(3, 29)), freed=[510, 511, 512, 513, 514, 2])

    def test_descending_sources(self):
        self.check(list(range(530, 490, -1)), freed=[40, 41, 42, 43])

    def test_non_contiguous_and_repeated_sources(self):
        self.check([9, 300, 11, 10, 512, 513, 12, 300, 1, 539],
                   freed=[100, 7, 101, 520])

    def test_tags_dropped_when_not_preserved(self):
        self.check(list(range(505, 520)) + [3, 1], freed=[200, 201],
                   preserve_tags=False)

    def test_untouched_sources(self):
        srcs = [n for n in range(1, 200) if n % self.UNTOUCHED == 0]
        self.check(srcs, freed=[])

    @pytest.mark.parametrize("bad", [505, 520, 0, 10 ** 6])
    def test_unallocated_source_takes_nothing(self, bad):
        """A freed (inside or past the first bank), zero or
        never-allocated source in a run raises ``frame``'s ``KeyError``
        before any frame is taken, copied or charged."""
        srcs = list(range(500, 530))
        machine, _versions = self.build([bad] if bad in srcs else [])
        phys = machine.phys
        if bad not in srcs:
            srcs[12] = bad
        state = (phys.allocated_frames, list(phys._free),
                 machine.clock.now_ns, machine.counters.snapshot())
        with pytest.raises(KeyError, match=f"no such frame {bad}"):
            phys.copy_frames(srcs)
        assert (phys.allocated_frames, list(phys._free),
                machine.clock.now_ns, machine.counters.snapshot()) == state

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_prop_run_copy_matches_per_frame_copy(self, data):
        live = list(range(1, self.FRAMES + 1))
        segments = data.draw(st.lists(st.tuples(
            st.sampled_from(live), st.integers(1, 40),
            st.sampled_from(["up", "down", "pick"])), max_size=5))
        srcs = []
        for first, length, shape in segments:
            if shape == "up":
                srcs += range(first, min(first + length, self.FRAMES + 1))
            elif shape == "down":
                srcs += range(first, max(first - length, 0), -1)
            else:
                srcs += data.draw(st.lists(st.sampled_from(live),
                                           max_size=length))
        freed = data.draw(st.lists(st.sampled_from(live), unique=True,
                                   max_size=30))
        srcs = [src for src in srcs if src not in freed]
        self.check(srcs, freed=freed,
                   preserve_tags=data.draw(st.booleans()))

    def test_oom_mid_batch_matches_per_frame_sequence(self):
        """The first sources that fit are copied, charged and counted,
        then freed, then ``OutOfMemory`` is raised — the state a
        per-frame loop plus its caller's rollback leaves."""
        srcs = list(range(100, 110))
        freed = [3, 50, 4]
        capacity = self.FRAMES + 2  # 3 reused + 2 fresh fit
        bulk, _versions = self.build(freed, dram_frames=capacity)
        ref, _versions = self.build(freed, dram_frames=capacity)
        with pytest.raises(OutOfMemory):
            bulk.phys.copy_frames(srcs)
        copied = []
        with pytest.raises(OutOfMemory):
            for src in srcs:
                copied.append(ref.phys.copy_frame(src))
        assert len(copied) == 5
        for number in copied:
            ref.phys.decref(number)
        assert bulk.phys.allocated_frames == ref.phys.allocated_frames
        assert bulk.phys.free_frames() == ref.phys.free_frames()
        assert bulk.clock.now_ns == ref.clock.now_ns
        assert bulk.counters.snapshot() == ref.counters.snapshot()
        assert self.later_allocations(bulk, 5) == \
            self.later_allocations(ref, 5)


    #: injects frame-allocation failures and tag clears
    CHAOS_MIX = "hw.phys.alloc_fail=0.08,hw.phys.tag_clear=0.3"

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), count=st.integers(1, 30),
           preserve_tags=st.booleans())
    # fails at the 17th copy, after four tag clears
    @example(seed=2, count=30, preserve_tags=True)
    # every copy succeeds, three of them after a tag clear
    @example(seed=2, count=12, preserve_tags=True)
    def test_chaos_matches_per_frame_copy(self, seed, count, preserve_tags):
        """Under injected allocation failures and tag clears a run copy
        consults the schedule exactly like a per-frame ``copy_frame``
        loop: the same draws and injections, the same bytes and tags
        (tag clears recovered), the same charges and counters; on a
        failure it raises the same error and frees the copies it made,
        so ``allocated_frames`` is back where it started."""
        from repro.chaos import ChaosEngine, FaultMix
        from repro.chaos.faults import InjectedAllocFailure

        srcs = list(range(500, 500 + count))  # crosses the bank boundary
        freed = [3, 4, 535]
        bulk, _versions = self.build(freed)
        ref, _versions = self.build(freed)
        for machine in (bulk, ref):
            ChaosEngine(seed=seed, mix=FaultMix.parse(self.CHAOS_MIX)
                        ).attach(machine)
        before = bulk.phys.allocated_frames
        dsts = refs = None
        try:
            dsts = bulk.phys.copy_frames(srcs, preserve_tags=preserve_tags)
        except InjectedAllocFailure:
            pass
        copied = []
        try:
            for src in srcs:
                copied.append(ref.phys.copy_frame(src, preserve_tags))
            refs = copied
        except InjectedAllocFailure:
            for number in copied:
                ref.phys.decref(number)
        assert (dsts is None) == (refs is None)
        if dsts is None:
            assert bulk.phys.allocated_frames == before
        else:
            for src, dst, ref_dst in zip(srcs, dsts, refs):
                data, tags = self.content(bulk, dst)
                assert (data, tags) == self.content(ref, ref_dst)
                src_data, src_tags = self.content(bulk, src)
                assert data == src_data
                assert tags == (src_tags if preserve_tags
                                else bytes(len(src_tags)))
        assert bulk.chaos.export() == ref.chaos.export()
        assert bulk.clock.now_ns == ref.clock.now_ns
        assert bulk.counters.snapshot() == ref.counters.snapshot()
        assert bulk.phys.allocated_frames == ref.phys.allocated_frames
        with bulk.chaos.paused(), ref.chaos.paused():
            assert self.later_allocations(bulk, len(freed) + 3) == \
                self.later_allocations(ref, len(freed) + 3)


class TestSpanStore:
    """``write_span`` stores a span by bank run; it must leave exactly
    the bytes, tags and versions a per-page ``Frame.write`` loop leaves.

    Each check builds two identical machines whose :attr:`FRAMES` frames
    hold random bytes and random tags, stores the same span with
    ``write_span`` on one and ``Frame.write`` page by page on the other,
    and compares every frame.
    """

    PAGE = 4096
    #: enough frames for spans to cross the first 512-frame bank edge
    FRAMES = 540

    @classmethod
    def build(cls):
        machine = Machine()
        phys = machine.phys
        numbers = phys.alloc_run(cls.FRAMES)
        rng = random.Random(11)
        granules = machine.config.granules_per_page
        phys.restore_contents(
            numbers, rng.randbytes(cls.FRAMES * cls.PAGE),
            bytes(rng.choices((0, 1), k=cls.FRAMES * granules)))
        return machine

    @classmethod
    def pages(cls, machine):
        """Every allocated frame's bytes, tags and version."""
        phys = machine.phys
        return [(bytes(frame.data), bytes(frame.tags), frame.version)
                for frame in map(phys.frame, _live_numbers(phys))]

    def check(self, numbers, offset, end):
        """Store a span from ``offset`` into ``numbers[0]`` to ``end``
        bytes into the last page."""
        size = (len(numbers) - 1) * self.PAGE - offset + end
        data = random.Random(size).randbytes(size)
        bulk = self.build()
        ref = self.build()
        bulk.phys.write_span(numbers, offset, data)
        done = 0
        for number in numbers:
            take = min(size - done, self.PAGE - offset)
            ref.phys.frame(number).write(offset, data[done:done + take])
            done += take
            offset = 0
        assert self.pages(bulk) == self.pages(ref)

    def test_span_straddles_a_bank_boundary(self):
        self.check(list(range(505, 520)), offset=7, end=4000)

    def test_non_consecutive_and_repeated_frames(self):
        self.check([9, 10, 11, 300, 512, 513, 10, 11, 1], offset=4095, end=1)

    def test_unallocated_number_writes_nothing(self):
        machine = self.build()
        machine.phys.decref(300)
        before = self.pages(machine)
        with pytest.raises(KeyError, match="no such frame 300"):
            machine.phys.write_span([298, 299, 300, 301], 5, bytes(10_000))
        assert self.pages(machine) == before

    def test_page_views_read_what_the_frames_hold(self):
        """``page_views`` serves a built ``Frame``'s window or a bank
        slice, builds no ``Frame``, and raises for a freed number."""
        machine = self.build()
        phys = machine.phys
        numbers = [511, 512, 513, 3, 3]
        built = phys.frame(512)
        views = phys.page_views(numbers)
        assert views[1] is built.data
        assert [phys._views[n] for n in (511, 513, 3)] == [None] * 3
        assert [bytes(view) for view in views] == \
            [bytes(phys.frame(n).data) for n in numbers]
        phys.decref(300)
        with pytest.raises(KeyError, match="no such frame 300"):
            phys.page_views([299, 300])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_prop_matches_per_page_writes(self, data):
        live = list(range(1, self.FRAMES + 1))
        segments = data.draw(st.lists(st.tuples(
            st.sampled_from(live), st.integers(1, 30),
            st.sampled_from(["up", "down", "pick"])), min_size=1,
            max_size=4))
        numbers = []
        for first, length, shape in segments:
            if shape == "up":
                numbers += range(first, min(first + length, self.FRAMES + 1))
            elif shape == "down":
                numbers += range(first, max(first - length, 0), -1)
            else:
                numbers += data.draw(st.lists(st.sampled_from(live),
                                              min_size=1, max_size=length))
        offset = data.draw(st.integers(0, self.PAGE - 1))
        end = data.draw(st.integers(offset + 1 if len(numbers) == 1 else 1,
                                    self.PAGE))
        self.check(numbers, offset, end)


class TestAddressSpace:
    PAGE = 4096

    def make_space(self, machine, pages=4, perms=PagePerm.rwc(), base_vpn=16):
        space = AddressSpace(machine, "test")
        for index in range(pages):
            frame = machine.phys.alloc()
            space.map_page(base_vpn + index, frame, perms)
        return space, base_vpn * self.PAGE

    def test_read_write_roundtrip(self, machine):
        space, base = self.make_space(machine)
        space.write(base + 10, b"hello world")
        assert space.read(base + 10, 11) == b"hello world"

    def test_cross_page_write_and_read(self, machine):
        space, base = self.make_space(machine)
        data = bytes(range(256)) * 20  # 5120 bytes, crosses a page
        space.write(base + 4000, data)
        assert space.read(base + 4000, len(data)) == data

    def test_unmapped_access_raises(self, machine):
        space, base = self.make_space(machine)
        with pytest.raises(UnmappedAddressError):
            space.read(base - self.PAGE, 1)

    def test_write_to_readonly_raises(self, machine):
        space, base = self.make_space(machine, perms=PagePerm.read_only())
        with pytest.raises(ProtectionError):
            space.write(base, b"x")

    def test_fault_handler_can_resolve(self, machine):
        space, base = self.make_space(machine, perms=PagePerm.read_only())
        vpn = base // self.PAGE

        def handler(spc, vaddr, kind):
            if kind is AccessKind.WRITE:
                spc.protect_page(vpn, PagePerm.rwc())
                return True
            return False

        space.fault_handler = handler
        space.write(base, b"ok")
        assert space.read(base, 2) == b"ok"
        assert machine.counters.get("fault_write") == 1

    def test_fault_handler_failure_raises(self, machine):
        space, base = self.make_space(machine, perms=PagePerm.read_only())
        space.fault_handler = lambda spc, vaddr, kind: False
        with pytest.raises(ProtectionError):
            space.write(base, b"x")

    def test_fault_charges_time(self, machine):
        space, base = self.make_space(machine, perms=PagePerm.read_only())
        space.fault_handler = lambda spc, vaddr, kind: False
        before = machine.clock.now_ns
        with pytest.raises(ProtectionError):
            space.write(base, b"x")
        assert machine.clock.now_ns - before >= machine.costs.page_fault_ns

    def test_privileged_bypasses_perms(self, machine):
        space, base = self.make_space(machine, perms=PagePerm.read_only())
        space.write(base, b"kernel", privileged=True)
        assert space.read(base, 6) == b"kernel"

    def test_cap_load_requires_load_cap_perm(self, machine):
        space, base = self.make_space(
            machine, perms=PagePerm.READ | PagePerm.WRITE
        )
        cap = Capability(base=base, length=64, cursor=base,
                         perms=Perm.data_rw())
        space.store_cap(base, cap)
        with pytest.raises(ProtectionError):
            space.load_cap(base)
        # plain data read of the same granule is fine (CoPA property)
        assert len(space.read(base, CAP_SIZE)) == CAP_SIZE

    def test_cap_store_load_roundtrip(self, machine):
        space, base = self.make_space(machine)
        cap = Capability(base=base, length=128, cursor=base + 16,
                         perms=Perm.data_ro())
        space.store_cap(base + 32, cap)
        assert space.load_cap(base + 32) == cap

    def test_byte_write_untags_in_space(self, machine):
        space, base = self.make_space(machine)
        cap = Capability(base=base, length=64, cursor=base,
                         perms=Perm.data_rw())
        space.store_cap(base, cap)
        space.write(base + 4, b"\x00")
        assert not space.load_cap(base).valid

    def test_privatize_page_repoints_and_clears_cow_and_note(self, machine):
        space = AddressSpace(machine, "test")
        old = machine.phys.alloc()
        space.map_page(7, old, PagePerm.read_only(), cow=True, note="n")
        space.write(7 * self.PAGE, b"old", privileged=True)
        new = machine.phys.alloc()
        space.privatize_page(7, PagePerm.rwc(), new)
        assert space.mapped_items(7, 8) == [
            (7, new, int(PagePerm.rwc()), False, None)]
        assert not machine.phys.contains(old)
        assert space.read(7 * self.PAGE, 3) == b"\x00\x00\x00"

    def test_protect_run_sets_perms_and_cow_marks(self, machine):
        space = AddressSpace(machine, "test")
        frames = [machine.phys.alloc() for _ in range(3)]
        space.map_run(510, frames, PagePerm.rwc())
        space.protect_run(510, 3, PagePerm.read_only(), cow=True)
        assert [item[2:4] for item in space.mapped_items(510, 513)] == \
            [(int(PagePerm.read_only()), True)] * 3
        space.protect_run(511, 2, PagePerm.rwc())
        assert [item[3] for item in space.mapped_items(510, 513)] == \
            [True, False, False]
        with pytest.raises(KeyError):
            space.protect_run(512, 2, PagePerm.rwc(), cow=True)
        assert [item[3] for item in space.mapped_items(510, 513)] == \
            [True, False, False]

    def test_double_map_rejected(self, machine):
        space, base = self.make_space(machine, pages=1)
        frame = machine.phys.alloc()
        with pytest.raises(ValueError):
            space.map_page(base // self.PAGE, frame, PagePerm.rwc())

    def test_resident_bytes_proportional(self, machine):
        space_a = AddressSpace(machine, "a")
        space_b = AddressSpace(machine, "b")
        frame = machine.phys.alloc()
        space_a.map_page(1, frame, PagePerm.rwc())
        space_b.map_page(2, frame, PagePerm.read_only(), incref=True)
        assert space_a.resident_bytes(0, 10 * self.PAGE) == self.PAGE / 2
        assert space_b.resident_bytes(0, 10 * self.PAGE) == self.PAGE / 2
        assert space_a.resident_bytes(0, 10 * self.PAGE,
                                      proportional=False) == self.PAGE

    def test_mapped_pages_range(self, machine):
        space, base = self.make_space(machine, pages=3)
        assert space.mapped_pages(base, base + 3 * self.PAGE) == 3
        assert space.mapped_pages(base, base + self.PAGE) == 1
        assert space.mapped_pages(0, base) == 0

    def test_noted_mappings_are_the_raw_pte_state(self, machine):
        space, base = self.make_space(machine, pages=3)
        vpn = base // self.PAGE
        space.set_note(vpn + 2, "b")
        space.set_note(vpn, "a")
        space.protect_page(vpn, PagePerm.READ)
        expected = [(noted, frame, perms, note)
                    for noted, frame, perms, _cow, note
                    in space.mapped_items(vpn, vpn + 3) if note is not None]
        assert [item[0] for item in expected] == [vpn, vpn + 2]
        assert expected[0][2] == int(PagePerm.READ)
        assert space.noted_mappings() == expected
        # a range narrower than the note dict walks the range, a wider
        # one filters the dict: both give the in-range slice
        assert space.noted_mappings(vpn + 1, vpn + 2) == []
        assert space.noted_mappings(vpn + 1, vpn + 3) == expected[1:]
        assert space.noted_mappings(vpn, vpn + 1) == expected[:1]
        assert space.noted_mappings(0, vpn + 1_000_000) == expected

    def test_unmap_decrefs(self, machine):
        space, base = self.make_space(machine, pages=1)
        frame = space.frame_of(base // self.PAGE)
        space.unmap_page(base // self.PAGE)
        assert not machine.phys.contains(frame)


class TestUnmapRange:
    """``unmap_range`` sweeps the chunk arrays directly; it must leave
    exactly the state a per-page ``unmap_page`` loop leaves."""

    PAGE = 4096
    #: the mapped window straddles the 512-vpn chunk boundaries at
    #: 1024, 1536 and 2048
    LO = 2 * 512 - 60
    SPAN = 1100

    @classmethod
    def build(cls, plan):
        """A space mapping ``plan``'s vpns (some aliasing the previous
        vpn's frame), with notes and walk-cache entries on the chosen
        vpns.  Returns the machine and the space."""
        mapped, aliased, noted, walked = plan
        machine = Machine()
        space = AddressSpace(machine, "test")
        frame = None
        for vpn in mapped:
            if frame is not None and vpn in aliased:
                space.map_page(vpn, frame, PagePerm.rwc(), incref=True)
            else:
                frame = machine.phys.alloc()
                space.map_page(vpn, frame, PagePerm.rwc(),
                               cow=vpn % 3 == 0)
        for vpn in noted:
            space.set_note(vpn, ("note", vpn))
        for vpn in walked:
            space.read(vpn * cls.PAGE, 1)
        return machine, space

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_prop_matches_per_page_unmap(self, data):
        window = st.integers(self.LO, self.LO + self.SPAN - 1)
        mapped = sorted(data.draw(st.sets(window, max_size=160)))
        pick = st.sets(st.sampled_from(mapped)) if mapped else st.just(set())
        plan = (mapped, data.draw(pick), data.draw(pick), data.draw(pick))
        lo, hi = sorted(data.draw(st.lists(
            st.integers(self.LO - 20, self.LO + self.SPAN + 20),
            min_size=2, max_size=2)))
        bulk, space = self.build(plan)
        ref, ref_space = self.build(plan)
        gone = [vpn for vpn in mapped if lo <= vpn < hi]

        assert space.unmap_range(lo, hi) == len(gone)
        for vpn in gone:
            ref_space.unmap_page(vpn)

        everything = (0, 1 << 20)
        assert space.mapped_items(*everything) == \
            ref_space.mapped_items(*everything)
        assert space.noted_mappings() == ref_space.noted_mappings()
        assert bulk.counters.snapshot() == ref.counters.snapshot()
        assert bulk.phys.allocated_frames == ref.phys.allocated_frames
        # the free list (release order, LIFO) then the fresh numbers
        fresh = [bulk.phys.alloc() for _ in range(len(gone) + 2)]
        assert fresh == [ref.phys.alloc() for _ in range(len(gone) + 2)]

        # no stale walk-cache hit: an unmapped page faults, and a
        # remapped one resolves to its new frame
        for vpn, frame in zip(gone, fresh):
            with pytest.raises(UnmappedAddressError):
                space.read(vpn * self.PAGE, 1)
            space.map_page(vpn, frame, PagePerm.rwc())
            assert space.resolve(vpn * self.PAGE, AccessKind.READ)[0] is \
                bulk.phys.frame(frame)


class TestEditJournal:
    """Every PTE or note write lands in the space's edit journal: outside
    the ranges :meth:`AddressSpace.edits_since` names, a sweep reads what
    it read at the mark.  The audit caches of the explorer's invariants
    rest on this."""

    #: the vpn window straddles the 512-vpn chunk boundary at 512, and
    #: is narrow enough that calls often land on mapped vpns
    LO = 512 - 24
    SPAN = 48

    _vpn = st.integers(LO, LO + SPAN - 1)
    _perms = st.sampled_from([PagePerm.rwc(), PagePerm.read_only(),
                              PagePerm.NONE])
    _note = st.sampled_from([None, "a", "b"])
    #: one mutator call; ones an unmapped or already-mapped vpn makes
    #: fail still run (a failing ``map_run`` keeps its earlier chunks)
    _op = st.one_of(
        st.tuples(st.just("map_page"), _vpn, _perms, st.booleans(), _note),
        st.tuples(st.just("map_run"), _vpn, st.integers(1, 20), _perms,
                  st.booleans(), _note),
        st.tuples(st.just("unmap_page"), _vpn),
        st.tuples(st.just("unmap_range"), _vpn, st.integers(0, 20)),
        st.tuples(st.just("protect_page"), _vpn, _perms),
        st.tuples(st.just("protect_run"), _vpn, st.integers(0, 6), _perms,
                  st.booleans()),
        st.tuples(st.just("privatize_page"), _vpn, _perms, st.booleans()),
        st.tuples(st.just("set_note_many"),
                  st.lists(_vpn, max_size=2, unique=True), _note),
    )

    @staticmethod
    def apply(machine, space, op):
        name, *args = op
        phys = machine.phys
        try:
            if name == "map_page":
                vpn, perms, cow, note = args
                frame = phys.alloc()
                try:
                    space.map_page(vpn, frame, perms, cow=cow, note=note)
                except ValueError:
                    phys.decref(frame)
                    raise
            elif name == "map_run":
                start, count, perms, cow, note = args
                space.map_run(start, phys.alloc_run(count), perms, cow=cow,
                              note=note)
            elif name == "unmap_page":
                space.unmap_page(args[0])
            elif name == "unmap_range":
                space.unmap_range(args[0], args[0] + args[1])
            elif name == "protect_page":
                space.protect_page(*args)
            elif name == "protect_run":
                space.protect_run(*args)
            elif name == "privatize_page":
                vpn, perms, fresh = args
                if space.frame_of(vpn) is None:
                    raise KeyError(vpn)
                space.privatize_page(vpn, perms,
                                     phys.alloc() if fresh else None)
            else:
                space.set_note_many(*args)
        except (KeyError, ValueError):
            pass

    @settings(max_examples=200, deadline=None)
    @given(before=st.lists(_op, max_size=20),
           after=st.lists(_op, max_size=20),
           windows=st.lists(st.tuples(_vpn, st.integers(0, SPAN)),
                            max_size=3),
           limit=st.sampled_from([4, 1024]))
    def test_prop_unjournaled_vpns_read_the_same(self, before, after,
                                                 windows, limit):
        machine = Machine()
        space = AddressSpace(machine, "test")
        # start from every other block of 4 vpns mapped, so calls that
        # need a mapped vpn and calls that need a free one both land
        for start in range(self.LO, self.LO + self.SPAN, 8):
            space.map_run(start, machine.phys.alloc_run(4), PagePerm.rwc())
        with mock.patch.object(paging, "JOURNAL_LIMIT", limit):
            for op in before:
                self.apply(machine, space, op)
            mark = space.journal_mark()
            whole = (0, 1 << 20)
            items = space.mapped_items(*whole)
            noted = space.noted_mappings(*whole)
            for op in after:
                self.apply(machine, space, op)
        reset = len(after) and \
            self.SPAN // 8 + len(before) + len(after) > limit
        for lo, width in windows + [(self.LO, self.SPAN)]:
            hi = lo + width
            edits = space.edits_since(mark, lo, hi)
            if edits is None:
                assert reset, "a mark of this epoch read as stale"
                continue
            bounds = [bound for edit in edits for bound in edit]
            assert bounds == sorted(bounds) and len(set(bounds)) == \
                len(bounds), edits
            assert all(lo <= a < b <= hi for a, b in edits)

            def untouched(row):
                return lo <= row[0] < hi and not any(
                    a <= row[0] < b for a, b in edits)

            assert [row for row in space.mapped_items(lo, hi)
                    if untouched(row)] == \
                [row for row in items if untouched(row)]
            assert [row for row in space.noted_mappings(lo, hi)
                    if untouched(row)] == \
                [row for row in noted if untouched(row)]
            if not edits:
                assert space.mapped_items(lo, hi) == \
                    [row for row in items if lo <= row[0] < hi]

    def test_each_call_logs_one_range(self):
        machine = Machine()
        space = AddressSpace(machine, "test")
        mark = space.journal_mark()
        space.map_run(100, machine.phys.alloc_run(40), PagePerm.rwc())
        space.protect_run(100, 40, PagePerm.read_only())
        space.set_note_many([101, 120, 139], "note")
        space.unmap_range(90, 150)
        assert space.journal_mark() == (mark[0], mark[1] + 4)
        assert space.edits_since(mark, 0, 1 << 20) == [(90, 150)]
        assert space.edits_since(mark, 0, 90) == []
        assert space.edits_since(mark, 95, 120) == [(95, 120)]

    def test_past_the_limit_every_mark_is_stale(self):
        machine = Machine()
        space = AddressSpace(machine, "test")
        space.map_page(7, machine.phys.alloc(), PagePerm.rwc())
        mark = space.journal_mark()
        other = AddressSpace(machine, "other").journal_mark()
        assert other[0] != mark[0]
        assert space.edits_since(other, 0, 10) is None
        for _ in range(paging.JOURNAL_LIMIT):
            space.protect_page(7, PagePerm.read_only())
        assert space.journal_mark()[0] != mark[0]
        assert space.edits_since(mark, 100, 200) is None
