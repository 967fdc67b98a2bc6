"""Tests for shared-library support (paper §3.7)."""

import pytest

from repro.apps.guest import GuestContext
from repro.cheri.capability import Perm
from repro.core import CopyStrategy, UForkOS
from repro.errors import PermissionFault
from repro.machine import Machine
from repro.mem.layout import KiB, ProgramImage


def lib_image(*libs):
    return ProgramImage("app", heap_size=128 * KiB, mmap_size=512 * KiB,
                        shared_libs=tuple(libs))


def boot(**kwargs):
    return UForkOS(machine=Machine(), **kwargs)


class TestMapping:
    def test_library_mapped_at_load(self):
        os_ = boot()
        ctx = GuestContext(os_, os_.spawn(lib_image("libc"), "app"))
        cap = ctx.proc.lib_caps["libc"]
        assert ctx.proc.region_base <= cap.base < ctx.proc.region_top
        assert cap.has_perm(Perm.LOAD | Perm.EXECUTE)

    def test_library_readable_not_writable(self):
        os_ = boot()
        ctx = GuestContext(os_, os_.spawn(lib_image("libc"), "app"))
        cap = ctx.proc.lib_caps["libc"]
        content = ctx.load(cap, 20, 16)
        assert content.startswith(b"libc")
        with pytest.raises(PermissionFault):
            ctx.store(cap, b"patch!")

    def test_frames_shared_across_processes(self):
        os_ = boot()
        a = GuestContext(os_, os_.spawn(lib_image("libc"), "a"))
        frames_after_a = os_.machine.phys.allocated_frames
        b = GuestContext(os_, os_.spawn(lib_image("libc"), "b"))
        lib = os_.libraries.get_or_create("libc")
        # no new frames for the library itself on the second load
        for frame in lib.frames:
            assert os_.machine.phys.refcount(frame) >= 3  # lib + a + b

    def test_two_libraries_disjoint_windows(self):
        os_ = boot()
        ctx = GuestContext(os_, os_.spawn(lib_image("libc", "libssl"), "a"))
        libc = ctx.proc.lib_caps["libc"]
        libssl = ctx.proc.lib_caps["libssl"]
        assert libc.top <= libssl.base or libssl.top <= libc.base

    def test_same_content_visible_to_all(self):
        os_ = boot()
        a = GuestContext(os_, os_.spawn(lib_image("libm"), "a"))
        b = GuestContext(os_, os_.spawn(lib_image("libm"), "b"))
        assert a.load(a.proc.lib_caps["libm"], 32) == \
            b.load(b.proc.lib_caps["libm"], 32)


class TestForkAndMigrate:
    def test_fork_shares_library_frames(self):
        os_ = boot(copy_strategy=CopyStrategy.COPA)
        parent = GuestContext(os_, os_.spawn(lib_image("libc"), "app"))
        lib = os_.libraries.get_or_create("libc")
        refs_before = os_.machine.phys.refcount(lib.frames[0])
        child = parent.fork()
        assert os_.machine.phys.refcount(lib.frames[0]) == refs_before + 1

    def test_child_lib_cap_rebased(self):
        os_ = boot()
        parent = GuestContext(os_, os_.spawn(lib_image("libc"), "app"))
        child = parent.fork()
        child_cap = child.proc.lib_caps["libc"]
        assert child.proc.region_base <= child_cap.base \
            < child.proc.region_top
        assert child.load(child_cap, 4, 16) == b"libc"

    def test_child_reads_do_not_copy_lib_pages(self):
        os_ = boot(copy_strategy=CopyStrategy.COPA)
        parent = GuestContext(os_, os_.spawn(lib_image("libc"), "app"))
        child = parent.fork()
        before = os_.machine.counters.get("fork_page_copies")
        child.load(child.proc.lib_caps["libc"], 16)
        assert os_.machine.counters.get("fork_page_copies") == before

    def test_memory_accounting_benefits(self):
        """Library pages amortize across sharers in the PRS metric."""
        os_ = boot()
        a = GuestContext(os_, os_.spawn(lib_image("libbig"), "a"))
        solo = os_.memory_of(a.proc)
        b = GuestContext(os_, os_.spawn(lib_image("libbig"), "b"))
        shared = os_.memory_of(a.proc)
        assert shared < solo  # the library halved between a and b
