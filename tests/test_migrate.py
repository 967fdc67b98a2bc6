"""Tests for μprocess migration and VA compaction (paper §6 extension)."""

import pytest

from repro.apps.guest import GuestContext
from repro.apps.hello import hello_world_image
from repro.apps.redis import MiniRedis
from repro.cheri.regfile import DDC
from repro.core import CopyStrategy, UForkOS
from repro.errors import OutOfMemory
from repro.machine import Machine
from repro.params import MachineConfig

PAGE = 4096


def boot(**kwargs):
    return UForkOS(machine=Machine(), **kwargs)


def spawn(os_, name="app"):
    return GuestContext(os_, os_.spawn(hello_world_image(), name))


class TestMigrate:
    def test_migrate_moves_region(self):
        os_ = boot()
        ctx = spawn(os_)
        filler = spawn(os_)  # occupies the space below after ctx moves
        old_base = ctx.proc.region_base
        new_base = os_.migrate(ctx.proc)
        assert new_base != old_base
        assert ctx.proc.region_base == new_base

    def test_state_survives_migration(self):
        os_ = boot()
        ctx = spawn(os_)
        head = ctx.malloc(32)
        inner = ctx.malloc(32)
        ctx.store_cap(head, inner)
        ctx.store(inner, b"\x00" * 16)
        ctx.store(inner, b"migrated-data", 16)
        ctx.set_reg("c9", head)

        os_.migrate(ctx.proc)

        # re-derive from the relocated register (like after a fork)
        new_head = ctx.reg("c9")
        assert ctx.proc.region_base <= new_head.base < ctx.proc.region_top
        new_inner = ctx.load_cap(new_head)
        assert ctx.load(new_inner, 13, 16) == b"migrated-data"

    def test_registers_relocated(self):
        os_ = boot()
        ctx = spawn(os_)
        old_ddc = ctx.reg(DDC)
        os_.migrate(ctx.proc)
        new_ddc = ctx.reg(DDC)
        assert new_ddc.base == ctx.proc.region_base
        assert new_ddc.length == old_ddc.length

    def test_allocator_usable_after_migration(self):
        os_ = boot()
        ctx = spawn(os_)
        ctx.malloc(64)
        os_.migrate(ctx.proc)
        fresh = ctx.malloc(32)
        ctx.store(fresh, b"post-migrate")
        assert ctx.load(fresh, 12) == b"post-migrate"
        assert ctx.proc.allocator.block_count() >= 2

    def test_old_va_released(self):
        os_ = boot()
        ctx = spawn(os_)
        free_before = os_.vspace.total_free()
        os_.migrate(ctx.proc)
        assert os_.vspace.total_free() == free_before

    def test_migrating_parent_preserves_child_snapshot(self):
        """Shared pages are copied for the mover; the forked child's
        lazy relocation still sees the original frames."""
        os_ = boot(copy_strategy=CopyStrategy.COPA)
        parent = spawn(os_)
        buf = parent.malloc(32)
        parent.store(buf, b"snapshot")
        parent.set_reg("c9", buf)
        child = parent.fork()

        os_.migrate(parent.proc)

        # parent still works through relocated register
        parent_buf = parent.reg("c9")
        assert parent.load(parent_buf, 8) == b"snapshot"
        parent.store(parent_buf, b"mutated!")

        # child's view is the pre-fork snapshot, untouched by the move
        child_buf = child.reg("c9")
        assert child.load(child_buf, 8) == b"snapshot"

    def test_no_parent_region_caps_survive_migration(self):
        os_ = boot()
        ctx = spawn(os_)
        chain = ctx.malloc(32)
        ctx.store_cap(chain, ctx.malloc(16))
        ctx.set_reg("c9", chain)
        old_base, old_top = ctx.proc.region_base, ctx.proc.region_top
        os_.migrate(ctx.proc)
        page = os_.machine.config.page_size
        for _vpn, number, _perms, _cow, _note in os_.space.mapped_items(
                ctx.proc.region_base // page, ctx.proc.region_top // page):
            frame = os_.machine.phys.frame(number)
            for offset in frame.tagged_granules():
                cap = frame.load_cap(offset, os_.machine.codec)
                if cap.valid and not cap.is_sentry:
                    assert not (old_base <= cap.base < old_top)


def _forked_parent(dram_frames=None):
    """A CoPA machine at seed 3 (``dram_frames`` of DRAM, when given)
    whose parent holds a capability to its own heap and has forked
    once."""
    kwargs = {} if dram_frames is None else {
        "config": MachineConfig(dram_bytes=dram_frames * PAGE)}
    os_ = UForkOS(machine=Machine(seed=3, **kwargs),
                  copy_strategy=CopyStrategy.COPA)
    parent = spawn(os_, "parent")
    buf = parent.malloc(64)
    parent.store_cap(buf, buf)
    parent.store(buf, b"before the move", 16)
    parent.set_reg("c9", buf)
    return os_, parent, parent.fork()


def _observable(os_, *contexts):
    machine = os_.machine
    pages = []
    for vpn, frame, perms, cow, _note in os_.space.mapped_items(0, 1 << 40):
        data, tags = machine.phys.frame(frame).snapshot_content()
        pages.append((vpn, frame, perms, cow, machine.phys.refcount(frame),
                      data, tags))
    return {
        "reserved": sorted(os_.vspace.reserved_areas()),
        "frames": machine.phys.allocated_frames,
        "pages": pages,
        "regions": [(ctx.proc.region_base, ctx.proc.region_top)
                    for ctx in contexts],
        "registers": [dict(ctx.proc.main_task().registers.items())
                      for ctx in contexts],
        "migrations": machine.counters.snapshot().get("migrations", 0),
    }


class TestMigrateOutOfFrames:
    """The mover's 28 pages still shared with its child need private
    copies: with fewer free frames, migration fails before it touches
    anything."""

    @pytest.mark.parametrize("spare", range(28))
    def test_failed_migrate_leaves_the_process_as_it_was(self, spare):
        os_, _parent, _child = _forked_parent()
        frames = os_.machine.phys.allocated_frames
        os_, parent, child = _forked_parent(frames + spare)
        before = _observable(os_, parent, child)

        with pytest.raises(OutOfMemory):
            os_.migrate(parent.proc)

        assert _observable(os_, parent, child) == before
        # both sides still work: the parent's stored capability points
        # into its own region, and once the child is gone the parent
        # writes, and moves, with no frame to spare
        buf = parent.reg("c9")
        assert parent.load_cap(buf).base == buf.base
        assert parent.load(buf, 15, 16) == b"before the move"
        assert child.load(child.reg("c9"), 15, 16) == b"before the move"
        child.exit(0)
        parent.wait(child.pid)
        parent.store(buf, b"after the fault", 16)
        os_.migrate(parent.proc)
        assert parent.load(parent.reg("c9"), 15, 16) == b"after the fault"

    def test_enough_frames_moves(self):
        os_, _parent, _child = _forked_parent()
        frames = os_.machine.phys.allocated_frames
        os_, parent, child = _forked_parent(frames + 28)
        old_base = parent.proc.region_base
        assert os_.migrate(parent.proc) != old_base
        assert parent.load(parent.reg("c9"), 15, 16) == b"before the move"
        assert child.load(child.reg("c9"), 15, 16) == b"before the move"


class TestCompact:
    def test_compaction_reduces_fragmentation(self):
        os_ = boot()
        contexts = [spawn(os_, f"p{i}") for i in range(6)]
        # exit every other process: holes appear
        for ctx in contexts[::2]:
            ctx.exit(0)
        survivors = contexts[1::2]
        assert os_.vspace.fragmentation() > 0
        moves = os_.compact()
        assert moves  # something moved
        assert os_.vspace.fragmentation() == 0.0

    def test_survivors_functional_after_compaction(self):
        os_ = boot()
        contexts = [spawn(os_, f"p{i}") for i in range(4)]
        for ctx in contexts:
            buf = ctx.malloc(32)
            ctx.store(buf, b"pid-%02d" % ctx.pid)
            ctx.set_reg("c9", buf)
        contexts[0].exit(0)
        contexts[2].exit(0)
        os_.compact()
        for ctx in (contexts[1], contexts[3]):
            buf = ctx.reg("c9")
            assert ctx.load(buf, 6) == b"pid-%02d" % ctx.pid

    def test_dynamic_heap_pages_in_after_compaction(self):
        """The demand-zero range moves with the heap: the tail of a
        dynamic heap still pages in after its μprocess moved."""
        import dataclasses

        from repro.mem.layout import KiB
        image = dataclasses.replace(hello_world_image(), heap_size=256 * KiB,
                                    heap_initial=16 * KiB)
        os_ = boot()
        hole = GuestContext(os_, os_.spawn(image, "hole"))
        ctx = GuestContext(os_, os_.spawn(image, "dyn"))
        hole.exit(0)
        assert [pid for pid, _old, _new in os_.compact()] == [ctx.pid]
        big = ctx.malloc(128 * KiB)
        ctx.store(big, b"tail", 120 * KiB)
        assert ctx.load(big, 4, 120 * KiB) == b"tail"

    def test_compact_noop_when_packed(self):
        os_ = boot()
        spawn(os_)
        spawn(os_)
        assert os_.compact() == []

    def test_redis_survives_compaction(self):
        """A capability-dense application keeps working after a move."""
        from repro.apps.redis import redis_image
        from repro.mem.layout import MiB
        os_ = boot()
        # the hole must be at least as large as the Redis region for
        # first-fit compaction to move Redis down into it
        hole = GuestContext(os_, os_.spawn(redis_image(1 * MiB), "hole"))
        proc = os_.spawn(redis_image(1 * MiB), "redis")
        store = MiniRedis(GuestContext(os_, proc), nbuckets=64)
        for index in range(30):
            store.set(b"k%02d" % index, b"value-%02d" % index)
        hole.exit(0)
        moves = os_.compact()
        assert any(pid == proc.pid for pid, _old, _new in moves)
        # the store must be re-attached (its cached caps are stale)
        store = MiniRedis.attach(GuestContext(os_, proc))
        for index in range(30):
            assert store.get(b"k%02d" % index) == b"value-%02d" % index
