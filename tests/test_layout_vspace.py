"""Tests for program layout and virtual-area reservation."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import OutOfVirtualSpace
from repro.mem.layout import ProgramImage, SegmentMap
from repro.mem.vspace import VirtualAreaAllocator

PAGE = 4096
MiB = 1024 * 1024


class TestProgramImage:
    def test_segment_order_matches_figure1(self):
        names = [seg.name for seg in ProgramImage("p").segments()]
        assert names == ["code", "rodata", "data", "got", "tls", "heap",
                         "mmap", "stack"]

    def test_got_size_minimum_one_page(self):
        image = ProgramImage("p", got_entries=4)
        assert image.got_size == PAGE

    def test_got_size_scales_with_entries(self):
        image = ProgramImage("p", got_entries=1024)
        assert image.got_size == 1024 * 16

    def test_region_size_page_aligned(self):
        image = ProgramImage("p", code_size=100, rodata_size=1)
        assert image.region_size(PAGE) % PAGE == 0

    def test_cap_bearing_segments(self):
        holds = {seg.name for seg in ProgramImage("p").segments()
                 if seg.holds_caps}
        assert holds == {"data", "got", "heap", "mmap", "stack"}


class TestSegmentMap:
    def test_segments_contiguous_and_aligned(self):
        image = ProgramImage("p", code_size=5000, heap_size=3 * PAGE)
        layout = SegmentMap(image, region_base=0x100000, page_size=PAGE)
        previous_top = 0x100000
        for spec, base, size in layout.iter_segments():
            assert base == previous_top
            assert base % PAGE == 0
            assert size % PAGE == 0
            previous_top = base + size
        assert layout.region_top == previous_top

    def test_region_size_matches_image(self):
        image = ProgramImage("p")
        layout = SegmentMap(image, 0x200000, PAGE)
        assert layout.region_size == image.region_size(PAGE)

    def test_segment_of(self):
        layout = SegmentMap(ProgramImage("p"), 0x100000, PAGE)
        assert layout.segment_of(layout.base("heap")) == "heap"
        assert layout.segment_of(layout.top("heap") - 1) == "heap"
        with pytest.raises(KeyError):
            layout.segment_of(layout.region_top)

    def test_contains(self):
        layout = SegmentMap(ProgramImage("p"), 0x100000, PAGE)
        assert layout.contains(0x100000)
        assert not layout.contains(0x100000 - 1)
        assert not layout.contains(layout.region_top)

    def test_rebased_preserves_offsets(self):
        layout = SegmentMap(ProgramImage("p"), 0x100000, PAGE)
        moved = layout.rebased(0x900000)
        delta = 0x900000 - 0x100000
        for name in ("code", "got", "heap", "stack"):
            assert moved.base(name) == layout.base(name) + delta

    def test_span(self):
        layout = SegmentMap(ProgramImage("p"), 0x100000, PAGE)
        base, top = layout.span("got")
        assert top - base == layout.size("got")


class TestVirtualAreaAllocator:
    def make(self, size=64 * MiB, aslr=None):
        return VirtualAreaAllocator(0x1000000, size, PAGE, aslr_rng=aslr)

    def test_reserve_returns_aligned_area(self):
        vsa = self.make()
        base = vsa.reserve(100)
        assert base % PAGE == 0
        assert base >= vsa.window_base

    def test_reservations_do_not_overlap(self):
        vsa = self.make()
        areas = [(vsa.reserve(3 * PAGE), 3 * PAGE) for _ in range(10)]
        areas.sort()
        for (base_a, size_a), (base_b, _) in zip(areas, areas[1:]):
            assert base_a + size_a <= base_b

    def test_release_and_reuse(self):
        vsa = self.make(size=4 * PAGE)
        base = vsa.reserve(4 * PAGE)
        with pytest.raises(OutOfVirtualSpace):
            vsa.reserve(PAGE)
        vsa.release(base)
        assert vsa.reserve(4 * PAGE) == base

    def test_release_unknown_raises(self):
        with pytest.raises(KeyError):
            self.make().release(0x1000000)

    def test_exhaustion_raises(self):
        vsa = self.make(size=8 * PAGE)
        vsa.reserve(6 * PAGE)
        with pytest.raises(OutOfVirtualSpace):
            vsa.reserve(3 * PAGE)

    def test_coalescing_after_release(self):
        vsa = self.make(size=8 * PAGE)
        a = vsa.reserve(2 * PAGE)
        b = vsa.reserve(2 * PAGE)
        c = vsa.reserve(2 * PAGE)
        vsa.release(a)
        vsa.release(c)
        vsa.release(b)
        # the three freed areas merged back into one window-sized extent
        assert vsa.total_free() == 8 * PAGE
        assert vsa.reserve(8 * PAGE) == vsa.window_base

    def test_aslr_randomizes_base(self):
        bases = set()
        for seed in range(8):
            vsa = self.make(aslr=random.Random(seed))
            bases.add(vsa.reserve(4 * PAGE))
        assert len(bases) > 1

    def test_aslr_reservations_still_disjoint(self):
        vsa = self.make(size=1024 * PAGE, aslr=random.Random(7))
        areas = sorted((vsa.reserve(8 * PAGE), 8 * PAGE) for _ in range(20))
        for (base_a, size_a), (base_b, _) in zip(areas, areas[1:]):
            assert base_a + size_a <= base_b

    @given(sizes=st.lists(st.integers(1, 16), min_size=1, max_size=30))
    def test_prop_reserve_release_restores_window(self, sizes):
        vsa = VirtualAreaAllocator(0, 4096 * 4096, 4096)
        bases = []
        for pages in sizes:
            bases.append(vsa.reserve(pages * 4096))
        for base in bases:
            vsa.release(base)
        assert vsa.total_free() == 4096 * 4096
        assert vsa.reserve(4096 * 4096) == 0
