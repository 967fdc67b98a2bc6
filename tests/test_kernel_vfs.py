"""Tests for the ramdisk VFS."""

import pytest

from repro.errors import (
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
)
from repro.kernel.vfs import (
    O_APPEND,
    O_CREAT,
    O_TRUNC,
    O_WRONLY,
    RamDisk,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
)


class FakeDesc:
    def __init__(self):
        self.offset = 0


@pytest.fixture
def ramdisk(machine):
    return RamDisk(machine)


class TestOpenCreate:
    def test_create_and_read_back(self, ramdisk):
        handle = ramdisk.open("/f", O_CREAT | O_WRONLY)
        desc = FakeDesc()
        handle.write(desc, b"hello")
        desc2 = FakeDesc()
        handle2 = ramdisk.open("/f")
        assert handle2.read(desc2, 100) == b"hello"

    def test_open_missing_without_creat(self, ramdisk):
        with pytest.raises(FileNotFound):
            ramdisk.open("/missing")

    def test_trunc_clears_content(self, ramdisk):
        handle = ramdisk.open("/f", O_CREAT)
        handle.write(FakeDesc(), b"data")
        ramdisk.open("/f", O_TRUNC)
        assert ramdisk.stat_size("/f") == 0

    def test_append_mode(self, ramdisk):
        handle = ramdisk.open("/f", O_CREAT | O_APPEND)
        handle.write(FakeDesc(), b"one")
        handle.write(FakeDesc(), b"two")
        assert ramdisk.open("/f").read(FakeDesc(), 10) == b"onetwo"

    def test_open_directory_fails(self, ramdisk):
        ramdisk.mkdir("/d")
        with pytest.raises(IsADirectory):
            ramdisk.open("/d")

    def test_bad_path(self, ramdisk):
        with pytest.raises(InvalidArgument):
            ramdisk.open("///", O_CREAT)


class TestReadWriteSeek:
    def test_partial_reads_advance_offset(self, ramdisk):
        handle = ramdisk.open("/f", O_CREAT)
        handle.write(FakeDesc(), b"abcdefgh")
        desc = FakeDesc()
        assert handle.read(desc, 3) == b"abc"
        assert handle.read(desc, 3) == b"def"
        assert handle.read(desc, 3) == b"gh"
        assert handle.read(desc, 3) == b""

    def test_write_beyond_end_zero_fills(self, ramdisk):
        handle = ramdisk.open("/f", O_CREAT)
        desc = FakeDesc()
        handle.seek(desc, 4, SEEK_SET)
        handle.write(desc, b"xx")
        assert ramdisk.open("/f").read(FakeDesc(), 10) == b"\x00" * 4 + b"xx"

    def test_appends_at_end_concatenate(self, ramdisk, machine):
        handle = ramdisk.open("/f", O_CREAT)
        desc = FakeDesc()
        pieces = (b"ab", b"", b"cde", b"f" * 5000)
        before = machine.clock.now_ns
        offsets = []
        for piece in pieces:
            assert handle.write(desc, piece) == len(piece)
            offsets.append(desc.offset)
        # each write charges one op plus its bytes
        costs = machine.costs
        assert machine.clock.now_ns - before == sum(
            round(costs.ramdisk_op_ns)
            + round(costs.io_copy_ns_per_byte * len(piece))
            for piece in pieces)
        assert offsets == [2, 2, 5, 5005]
        assert ramdisk.open("/f").read(FakeDesc(), 10_000) == \
            b"abcde" + b"f" * 5000

    def test_overwrite_running_past_end(self, ramdisk):
        handle = ramdisk.open("/f", O_CREAT)
        handle.write(FakeDesc(), b"0123456789")
        desc = FakeDesc()
        handle.seek(desc, 7, SEEK_SET)
        handle.write(desc, b"abcdef")
        assert desc.offset == 13
        assert ramdisk.open("/f").read(FakeDesc(), 100) == b"0123456abcdef"
        handle.seek(desc, 2, SEEK_SET)
        handle.write(desc, b"XY")
        assert ramdisk.open("/f").read(FakeDesc(), 100) == b"01XY456abcdef"

    def test_write_past_seek_end_leaves_a_zero_hole(self, ramdisk):
        handle = ramdisk.open("/f", O_CREAT)
        handle.write(FakeDesc(), b"abc")
        desc = FakeDesc()
        assert handle.seek(desc, 3, SEEK_END) == 6
        handle.write(desc, b"xy")
        assert desc.offset == 8
        assert ramdisk.open("/f").read(FakeDesc(), 100) == \
            b"abc" + b"\x00" * 3 + b"xy"

    def test_seek_modes(self, ramdisk):
        handle = ramdisk.open("/f", O_CREAT)
        handle.write(FakeDesc(), b"0123456789")
        desc = FakeDesc()
        assert handle.seek(desc, 4, SEEK_SET) == 4
        assert handle.seek(desc, 2, SEEK_CUR) == 6
        assert handle.seek(desc, -1, SEEK_END) == 9
        with pytest.raises(InvalidArgument):
            handle.seek(desc, 0, 99)
        with pytest.raises(InvalidArgument):
            handle.seek(desc, -100, SEEK_SET)

    def test_io_charges_time(self, ramdisk, machine):
        handle = ramdisk.open("/f", O_CREAT)
        before = machine.clock.now_ns
        handle.write(FakeDesc(), b"x" * 10_000)
        elapsed = machine.clock.now_ns - before
        assert elapsed >= 10_000 * machine.costs.io_copy_ns_per_byte


class TestDirectoryOps:
    def test_mkdir_and_nested_files(self, ramdisk):
        ramdisk.mkdir("/a")
        ramdisk.mkdir("/a/b")
        ramdisk.open("/a/b/f", O_CREAT)
        assert ramdisk.listdir("/a/b") == ["f"]
        assert ramdisk.exists("/a/b/f")

    def test_mkdir_existing_fails(self, ramdisk):
        ramdisk.mkdir("/a")
        with pytest.raises(FileExists):
            ramdisk.mkdir("/a")

    def test_unlink(self, ramdisk):
        ramdisk.open("/f", O_CREAT)
        ramdisk.unlink("/f")
        assert not ramdisk.exists("/f")
        with pytest.raises(FileNotFound):
            ramdisk.unlink("/f")

    def test_unlink_directory_fails(self, ramdisk):
        ramdisk.mkdir("/d")
        with pytest.raises(IsADirectory):
            ramdisk.unlink("/d")

    def test_rename_atomic_replace(self, ramdisk):
        a = ramdisk.open("/a", O_CREAT)
        a.write(FakeDesc(), b"new")
        b = ramdisk.open("/b", O_CREAT)
        b.write(FakeDesc(), b"old")
        ramdisk.rename("/a", "/b")
        assert not ramdisk.exists("/a")
        assert ramdisk.open("/b").read(FakeDesc(), 10) == b"new"

    def test_rename_missing_fails(self, ramdisk):
        with pytest.raises(FileNotFound):
            ramdisk.rename("/nope", "/x")

    def test_listdir_root(self, ramdisk):
        ramdisk.open("/z", O_CREAT)
        ramdisk.open("/a", O_CREAT)
        assert ramdisk.listdir("/") == ["a", "z"]

    def test_listdir_file_fails(self, ramdisk):
        ramdisk.open("/f", O_CREAT)
        with pytest.raises(NotADirectory):
            ramdisk.listdir("/f")

    def test_walk_through_file_fails(self, ramdisk):
        ramdisk.open("/f", O_CREAT)
        with pytest.raises(NotADirectory):
            ramdisk.open("/f/sub", O_CREAT)

    def test_stat_size(self, ramdisk):
        handle = ramdisk.open("/f", O_CREAT)
        handle.write(FakeDesc(), b"12345")
        assert ramdisk.stat_size("/f") == 5
