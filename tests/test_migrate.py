"""Tests for μprocess migration and VA compaction (paper §6 extension)."""

import pytest

from repro.apps.guest import GuestContext
from repro.apps.hello import hello_world_image
from repro.apps.redis import MiniRedis
from repro.cheri.regfile import DDC
from repro.core import CopyStrategy, UForkOS
from repro.machine import Machine


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
