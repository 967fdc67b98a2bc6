"""Unit + property tests for capability relocation (paper §4.2) — the
mechanism that makes μFork's single-address-space fork sound."""

import pytest
from hypothesis import given, strategies as st

from repro.cheri.capability import Capability, OTYPE_SENTRY, Perm
from repro.cheri.codec import CAP_SIZE, GRANULE
from repro.cheri.regfile import RegisterFile
from repro.core.relocate import (
    RegionPair,
    find_unrelocated,
    relocate_cap,
    relocate_frame,
    relocate_registers,
)
from repro.machine import Machine

PARENT = RegionPair(
    parent_base=0x10_0000, parent_top=0x20_0000,
    child_base=0x50_0000, child_top=0x60_0000,
)


def cap_at(base, length=0x100, cursor=None, perms=None, otype=None):
    cap = Capability(
        base=base, length=length,
        cursor=base if cursor is None else cursor,
        perms=Perm.data_rw() if perms is None else perms,
    )
    if otype is not None:
        cap = cap.sealed(otype)
    return cap


class TestRelocateCap:
    def test_parent_cap_rebased_by_delta(self):
        cap = cap_at(0x10_1000, cursor=0x10_1040)
        moved = relocate_cap(cap, PARENT)
        assert moved.base == 0x50_1000
        assert moved.cursor == 0x50_1040
        assert moved.length == cap.length
        assert moved.perms == cap.perms

    def test_child_cap_untouched(self):
        cap = cap_at(0x50_1000)
        assert relocate_cap(cap, PARENT) is cap

    def test_invalid_cap_untouched(self):
        cap = cap_at(0x10_1000).invalidated()
        assert relocate_cap(cap, PARENT) is cap

    def test_sentry_preserved(self):
        gate = cap_at(0x9_0000, perms=Perm.code(), otype=OTYPE_SENTRY)
        assert relocate_cap(gate, PARENT) is gate

    def test_foreign_cap_invalidated(self):
        """A capability pointing outside both regions (e.g. another
        μprocess) must not survive into the child (§4.3)."""
        foreign = cap_at(0x90_0000)
        moved = relocate_cap(foreign, PARENT)
        assert not moved.valid

    def test_bounds_clamped_to_child_region(self):
        # bounds straddling the end of the parent region get clamped
        cap = cap_at(0x1F_FF00, length=0x1000)
        moved = relocate_cap(cap, PARENT)
        assert moved.base >= PARENT.child_base
        assert moved.top <= PARENT.child_top

    def test_relocated_never_grants_parent_access(self):
        cap = cap_at(0x10_8000, length=0x4000)
        moved = relocate_cap(cap, PARENT)
        assert not PARENT.in_parent(moved.base)
        assert not PARENT.in_parent(moved.top - 1)

    @given(
        offset=st.integers(0, 0xF_0000),
        length=st.integers(0, 0x1_0000),
        cursor_off=st.integers(0, 0x1_0000),
    )
    def test_prop_relocation_preserves_region_offset(self, offset, length,
                                                     cursor_off):
        """The child's view is the parent's, shifted by exactly delta."""
        base = PARENT.parent_base + offset
        cap = Capability(base=base, length=length,
                         cursor=base + cursor_off, perms=Perm.data_rw())
        moved = relocate_cap(cap, PARENT)
        if moved.valid and not moved.is_sentry:
            # offset within the child region mirrors the parent offset,
            # modulo clamping at the region edge
            if cap.top <= PARENT.parent_top:
                assert moved.base - PARENT.child_base == \
                    cap.base - PARENT.parent_base
                assert moved.cursor - moved.base == cap.cursor - cap.base

    @given(
        base=st.integers(0, 2**30),
        length=st.integers(0, 2**16),
    )
    def test_prop_no_result_ever_reaches_into_parent(self, base, length):
        cap = Capability(base=base, length=length, cursor=base,
                         perms=Perm.data_rw())
        moved = relocate_cap(cap, PARENT)
        if moved.valid and not moved.is_sentry and moved.length > 0:
            overlap_lo = max(moved.base, PARENT.parent_base)
            overlap_hi = min(moved.top, PARENT.parent_top)
            assert overlap_lo >= overlap_hi, (
                f"relocated cap {moved} still overlaps the parent region"
            )


class TestRelocateFrame:
    def make_frame(self, machine):
        fn = machine.phys.alloc()
        return machine.phys.frame(fn)

    def test_all_tagged_granules_relocated(self, machine):
        frame = self.make_frame(machine)
        for index in range(5):
            frame.store_cap(index * 16, cap_at(0x10_1000 + index * 0x100),
                            machine.codec)
        count = relocate_frame(machine, frame, PARENT)
        assert count == 5
        assert find_unrelocated(machine, frame, PARENT) == []

    def test_untagged_data_untouched(self, machine):
        frame = self.make_frame(machine)
        # raw bytes that *look* like a parent pointer but carry no tag
        import struct
        frame.write(0, struct.pack("<QQ", 0x10_1000, 7))
        count = relocate_frame(machine, frame, PARENT)
        assert count == 0
        assert bytes(frame.data[:8]) == struct.pack("<Q", 0x10_1000)

    def test_scan_charges_time(self, machine):
        frame = self.make_frame(machine)
        before = machine.clock.now_ns
        relocate_frame(machine, frame, PARENT)
        expected = machine.costs.page_scan_ns(
            machine.config.page_size, machine.config.granule
        )
        assert machine.clock.now_ns - before >= int(expected)

    def test_relocation_charges_per_cap(self, machine):
        frame = self.make_frame(machine)
        frame.store_cap(0, cap_at(0x10_1000), machine.codec)
        scan_only = machine.costs.page_scan_ns(
            machine.config.page_size, machine.config.granule
        )
        before = machine.clock.now_ns
        relocate_frame(machine, frame, PARENT)
        assert machine.clock.now_ns - before >= \
            int(scan_only + machine.costs.cap_relocate_ns)

    def test_counter_updated(self, machine):
        frame = self.make_frame(machine)
        frame.store_cap(16, cap_at(0x10_2000), machine.codec)
        relocate_frame(machine, frame, PARENT)
        assert machine.counters.get("caps_relocated") == 1

    def test_later_granule_sees_the_id_an_earlier_rebase_interns(self):
        """Granules are judged in offset order, each after the rebases
        before it have interned their metadata: a later granule naming
        the id an earlier rebase interns is judged by that metadata,
        not skipped as forged.  With an empty child region no rebased
        metadata is ever kept, so the second granule rebases too."""
        empty_child = RegionPair(parent_base=0x10_0000, parent_top=0x20_0000,
                                 child_base=0x50_0000, child_top=0x50_0000)
        first = cap_at(0x10_1000)
        # the id the first granule's rebase interns, learned on a twin
        twin = Machine()
        frame = self.make_frame(twin)
        frame.store_cap(0, first, twin.codec)
        relocate_frame(twin, frame, empty_child)
        rebased_id = GRANULE.unpack(bytes(frame.data[:CAP_SIZE]))[1]

        machine = Machine()
        frame = self.make_frame(machine)
        frame.store_cap(0, first, machine.codec)
        assert machine.codec.meta(rebased_id) is None
        cursor = 0x10_1800
        frame.write_granule(CAP_SIZE, GRANULE.pack(cursor, rebased_id), 1)
        version = frame.version
        assert relocate_frame(machine, frame, empty_child) == 2
        assert frame.version == version + 2
        assert bytes(frame.tags[:2]) == b"\x01\x01"
        assert bytes(frame.data[CAP_SIZE:2 * CAP_SIZE]) == GRANULE.pack(
            cursor + empty_child.delta, rebased_id)
        assert machine.codec.meta(rebased_id) == (
            0x50_0000, 0, int(first.perms), first.otype)


class TestRelocateRegisters:
    def test_cap_registers_relocated_ints_untouched(self, machine):
        regs = RegisterFile()
        regs.set("c1", cap_at(0x10_4000))
        regs.set("x1", 0x10_4000)  # an integer that looks like a pointer
        moved = relocate_registers(machine, regs, PARENT)
        assert moved == 1
        assert regs.get_cap("c1").base == 0x50_4000
        assert regs.get("x1") == 0x10_4000  # integers are not pointers

    def test_invalid_register_cap_untouched(self, machine):
        regs = RegisterFile()
        regs.set("c1", cap_at(0x10_4000).invalidated())
        assert relocate_registers(machine, regs, PARENT) == 0


class TestForkPageMemo:
    """Fork's per-run relocation memo
    (:func:`repro.core.relocate.relocate_copied_frames`): every batch it
    handles must leave the destinations holding what per-frame
    relocation (:func:`repro.core.relocate.relocate_frames`) of fresh
    copies of the sources gives."""

    @staticmethod
    def _fork_server(nbuckets=16):
        from repro.api import Session
        from repro.apps.redis import MiniRedis, populate, redis_image

        session = Session(strategy="full", cpus=1, seed=7).boot()
        parent = session.spawn(redis_image(64 * 1024), "redis")
        populate(MiniRedis(parent, nbuckets=nbuckets), 64 * 1024,
                 value_size=4096)
        return session, parent

    @staticmethod
    def _fork_exit(parent):
        child = parent.fork()
        child.exit(0)
        assert parent.wait(child.pid) == (child.pid, 0)

    @staticmethod
    def _record(monkeypatch):
        """Record each fork batch, ``(srcs, dsts, regions, caps)``, and
        the destination frame numbers the memo rescans."""
        import repro.core.relocate as relocate
        import repro.core.ufork as ufork

        batches, rescans = [], []
        relocate_copied = ufork.relocate_copied_frames
        scan = relocate._relocate_granules

        def recording(machine, phys, srcs, dsts, regions, **plan):
            caps = relocate_copied(machine, phys, srcs, dsts, regions,
                                   **plan)
            batches.append((srcs, list(dsts), regions, caps))
            return caps

        def counting(machine, frame, regions):
            rescans.append(frame.number)
            return scan(machine, frame, regions)

        monkeypatch.setattr(ufork, "relocate_copied_frames", recording)
        monkeypatch.setattr(relocate, "_relocate_granules", counting)
        return batches, rescans

    @staticmethod
    def _reference(machine, srcs, regions):
        """Per-frame relocation of fresh copies of ``srcs``: the copies'
        contents and each one's relocated-capability count."""
        import repro.core.relocate as relocate

        phys = machine.phys
        copies = phys.copy_frames(list(srcs))
        counts = []
        scan = relocate._relocate_granules

        def counting(machine, frame, regions):
            counts.append(scan(machine, frame, regions))
            return counts[-1]

        relocate._relocate_granules = counting
        try:
            relocate.relocate_frames(
                machine, [phys.frame(number) for number in copies], regions)
        finally:
            relocate._relocate_granules = scan
        contents = [phys.frame(number).snapshot_content()
                    for number in copies]
        phys.decref_many(copies)
        return contents, counts

    def _assert_matches_reference(self, machine, batch):
        srcs, dsts, regions, caps = batch
        contents, counts = self._reference(machine, srcs, regions)
        assert caps == counts
        assert [machine.phys.frame(number).snapshot_content()
                for number in dsts] == contents

    @staticmethod
    def _memo_runs(machine, srcs):
        """The batch positions ``(lo, hi)`` of every memoised sub-run of
        ``srcs``."""
        from repro.hw.phys import consecutive_runs

        memo = machine._run_memo
        positions = []
        for start, end in consecutive_runs(srcs):
            for key, (_versions, runs) in memo.items():
                if key[1:] == (srcs[start], end - start):
                    positions += [(start + run[0], start + run[1])
                                  for run in runs]
        return sorted(positions)

    def test_batch_larger_than_cap_hits_on_the_next_fork(self, monkeypatch):
        """A fork copying more tagged pages than the memo's cap must
        not thrash: the memo is cleared before a batch, never in the
        middle of one, so the next fork of the same image rescans
        nothing."""
        import repro.core.relocate as relocate

        monkeypatch.setattr(relocate, "_PAGE_MEMO_CAP", 4)
        rescans = []
        scan = relocate._relocate_granules

        def counting(machine, frame, regions):
            rescans.append(frame)
            return scan(machine, frame, regions)

        monkeypatch.setattr(relocate, "_relocate_granules", counting)
        session, parent = self._fork_server()
        self._fork_exit(parent)
        assert len(rescans) > 4, "the image must outgrow the memo's cap"
        del rescans[:]
        self._fork_exit(parent)
        assert rescans == []

    def test_untagged_pages_take_no_memo_entry(self):
        """Every page the memo holds content for had a tag in its
        source: untagged pages are found by one run scan and memoised
        only as source versions."""
        session, parent = self._fork_server()
        phys = session.machine.phys
        self._fork_exit(parent)
        memo = session.machine._run_memo
        assert memo
        for (_regions, first, _count), (_versions, runs) in memo.items():
            for lo, hi, *_content in runs:
                assert phys.tagged_frames(range(first + lo, first + hi)) \
                    == list(range(hi - lo))

    def test_steady_fork_replays_and_matches_reference(self, monkeypatch):
        session, parent = self._fork_server()
        batches, rescans = self._record(monkeypatch)
        self._fork_exit(parent)
        assert rescans
        del rescans[:]
        child = parent.fork()
        assert rescans == []
        self._assert_matches_reference(session.machine, batches[-1])
        assert batches[-1][3] == batches[0][3]
        child.exit(0)

    def test_one_written_page_rescans_exactly_its_run(self, monkeypatch):
        session, parent = self._fork_server()
        machine = session.machine
        phys = machine.phys
        batches, rescans = self._record(monkeypatch)
        self._fork_exit(parent)
        srcs = batches[-1][0]
        lo, hi = max(self._memo_runs(machine, srcs),
                     key=lambda run: run[1] - run[0])
        assert hi - lo >= 3
        frame = phys.frame(srcs[(lo + hi) // 2])
        untagged = (set(range(0, 4096, 16)) - set(frame.tagged_granules()))
        frame.write(min(untagged), b"\xaa")
        del rescans[:]
        child = parent.fork()
        srcs, dsts, _regions, caps = batches[-1]
        assert rescans == list(dsts[lo:hi])
        assert caps == batches[0][3]
        self._assert_matches_reference(machine, batches[-1])
        child.exit(0)
        del rescans[:]
        self._fork_exit(parent)
        assert rescans == []

    def test_cap_stored_into_untagged_page_is_relocated(self, monkeypatch):
        """A capability stored into a page that held no tag when the
        batch was memoised: the page's version changed, so it is scanned
        again, and the memo's tagged split is recomputed."""
        session, parent = self._fork_server()
        machine = session.machine
        phys = machine.phys
        batches, rescans = self._record(monkeypatch)
        self._fork_exit(parent)
        srcs, _dsts, regions, caps = batches[-1]
        position = caps.index(0)
        assert phys.tagged_frames([srcs[position]]) == []
        phys.frame(srcs[position]).store_cap(
            0x40, cap_at(regions.parent_base + 0x1000), machine.codec)
        del rescans[:]
        child = parent.fork()
        _srcs, dsts, _regions, caps = batches[-1]
        assert rescans == [dsts[position]]
        assert caps[position] == 1
        self._assert_matches_reference(machine, batches[-1])
        assert any(lo <= position < hi
                   for lo, hi in self._memo_runs(machine, srcs))
        child.exit(0)
        del rescans[:]
        self._fork_exit(parent)
        assert rescans == []

    def test_warm_in_place_relocation_matches_reference(self, monkeypatch):
        """Migration's call: the sources relocated in place
        (``dsts == srcs``) over a region pair the memo already holds."""
        from repro.core.relocate import relocate_copied_frames

        session, parent = self._fork_server()
        machine = session.machine
        batches, rescans = self._record(monkeypatch)
        self._fork_exit(parent)
        srcs, _dsts, regions, _caps = batches[-1]
        contents, counts = self._reference(machine, srcs, regions)
        del rescans[:]
        caps = relocate_copied_frames(machine, machine.phys, srcs, srcs,
                                      regions)
        assert rescans == []
        assert caps == counts
        assert [machine.phys.frame(number).snapshot_content()
                for number in srcs] == contents

    def test_tag_clear_chaos_on_a_memo_hit(self, monkeypatch):
        """``hw.phys.tag_clear`` drops the copies' tags inside
        ``copy_frames``; its recovery redoes those copies before the
        memo replays, so the hit still matches the reference."""
        from repro.chaos import ChaosEngine, FaultMix

        session, parent = self._fork_server()
        machine = session.machine
        batches, rescans = self._record(monkeypatch)
        self._fork_exit(parent)
        engine = ChaosEngine(seed=3, mix=FaultMix.parse(
            "hw.phys.tag_clear=0.5"))
        engine.attach(machine)
        del rescans[:]
        child = parent.fork()
        assert rescans == []
        assert engine.recovered.get("hw.phys.tag_clear", 0) > 0
        self._assert_matches_reference(machine, batches[-1])
        assert batches[-1][3] == batches[0][3]
        child.exit(0)
