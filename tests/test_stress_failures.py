"""Stress and failure-injection tests: deep fork chains, wide fan-out,
resource exhaustion, and recovery behaviour."""

import pytest

from repro.apps.guest import GuestContext
from repro.apps.hello import hello_world_image
from repro.baselines import IsoUnikOS, MonolithicOS, VMCloneOS
from repro.core import CopyStrategy, UForkOS
from repro.errors import (
    NoChildProcess,
    OutOfMemory,
    OutOfVirtualSpace,
)
from repro.machine import Machine
from repro.mem.layout import KiB, ProgramImage
from repro.params import MachineConfig


def boot(**kwargs):
    return UForkOS(machine=Machine(), **kwargs)


def spawn(os_, name="app"):
    return GuestContext(os_, os_.spawn(hello_world_image(), name))


class TestDeepAndWide:
    @pytest.mark.parametrize("strategy", list(CopyStrategy))
    def test_fork_chain_ten_generations(self, strategy):
        """Each generation forks the next; the original heap block must
        survive ten relocations intact."""
        os_ = boot(copy_strategy=strategy)
        ctx = spawn(os_)
        buf = ctx.malloc(32)
        ctx.store(buf, b"generation-zero")
        ctx.set_reg("c9", buf)
        chain = [ctx]
        for _ in range(10):
            chain.append(chain[-1].fork())
        leaf = chain[-1]
        assert leaf.load(leaf.reg("c9"), 15) == b"generation-zero"
        # every generation has a distinct region
        bases = {c.proc.region_base for c in chain}
        assert len(bases) == len(chain)
        for child, parent in zip(reversed(chain[1:]), reversed(chain[:-1])):
            child.exit(0)
            parent.wait(child.pid)

    def test_wide_fanout_thirty_children(self):
        os_ = boot()
        zygote = spawn(os_)
        buf = zygote.malloc(16)
        zygote.store(buf, b"shared-zygote")
        zygote.set_reg("c9", buf)
        children = [zygote.fork() for _ in range(30)]
        for child in children:
            assert child.load(child.reg("c9"), 13) == b"shared-zygote"
        for child in children:
            child.exit(0)
            zygote.wait(child.pid)
        assert os_.process_count() == 1

    def test_interleaved_fork_exit_no_leaks(self):
        os_ = boot()
        ctx = spawn(os_)
        ctx.fork().exit(0)
        ctx.wait()
        frames_baseline = os_.machine.phys.allocated_frames
        va_baseline = os_.vspace.total_free()
        for _ in range(25):
            child = ctx.fork()
            grandchild = child.fork()
            grandchild.exit(0)
            child.wait(grandchild.pid)
            child.exit(0)
            ctx.wait(child.pid)
        assert os_.machine.phys.allocated_frames == frames_baseline
        assert os_.vspace.total_free() == va_baseline


class TestResourceExhaustion:
    def test_fork_bomb_hits_va_limit(self):
        """A fork bomb runs out of contiguous VA, not into corruption."""
        from repro.core import ufork as ufork_mod
        os_ = boot()
        # shrink the μprocess window to make exhaustion reachable
        from repro.mem.vspace import VirtualAreaAllocator
        image = hello_world_image()
        page = os_.machine.config.page_size
        region = image.region_size(page)
        os_.vspace = VirtualAreaAllocator(
            ufork_mod.UPROC_WINDOW_BASE, 4 * region, page
        )
        ctx = GuestContext(os_, os_.spawn(image, "bomb"))
        survivors = [ctx]
        with pytest.raises(OutOfVirtualSpace):
            while True:
                survivors.append(survivors[-1].fork())
        # the system is still functional: reap everything
        assert len(survivors) >= 3
        for proc_ctx in reversed(survivors[1:]):
            proc_ctx.exit(0)
        assert survivors[0].syscall("getpid") == survivors[0].pid

    def test_dram_exhaustion_under_full_copy(self):
        config = MachineConfig(dram_bytes=24 * 1024 * 1024)
        os_ = UForkOS(machine=Machine(config=config),
                      copy_strategy=CopyStrategy.FULL_COPY)
        image = ProgramImage("big", heap_size=8 * 1024 * KiB)
        ctx = GuestContext(os_, os_.spawn(image, "big"))
        with pytest.raises(OutOfMemory):
            for _ in range(10):
                ctx.fork()

    def test_guest_heap_exhaustion_recoverable(self):
        os_ = boot()
        ctx = spawn(os_)
        blocks = []
        with pytest.raises(OutOfMemory):
            while True:
                blocks.append(ctx.malloc(4096))
        # free one block and allocation works again
        ctx.free(blocks.pop())
        again = ctx.malloc(4096)
        ctx.store(again, b"recovered")
        assert ctx.load(again, 9) == b"recovered"

    def test_wait_without_children(self):
        os_ = boot()
        ctx = spawn(os_)
        with pytest.raises(NoChildProcess):
            ctx.wait()

    def test_wait_for_wrong_pid(self):
        os_ = boot()
        ctx = spawn(os_)
        child = ctx.fork()
        child.exit(0)
        with pytest.raises(NoChildProcess):
            ctx.wait(child.pid + 999)
        assert ctx.wait(child.pid) == (child.pid, 0)

    @pytest.mark.parametrize("kernel", [UForkOS, MonolithicOS, IsoUnikOS,
                                        VMCloneOS])
    def test_reaped_children_leave_the_parent(self, kernel):
        """A long-lived parent keeps no child it has waited for."""
        os_ = kernel(machine=Machine())
        ctx = spawn(os_)
        for cycle in range(50):
            child = ctx.fork()
            assert ctx.proc.children == [child.proc]
            child.exit(cycle % 3)
            assert ctx.wait() == (child.pid, cycle % 3)
            assert ctx.proc.children == []
        with pytest.raises(NoChildProcess):
            ctx.wait()
        assert os_.process_count() == 1


class TestSnapshotUnderChurn:
    @pytest.mark.parametrize("strategy",
                             [CopyStrategy.COA, CopyStrategy.COPA])
    def test_allocator_churn_after_fork(self, strategy):
        """Parent mallocs/frees aggressively post-fork; the child's
        allocator view (shared metadata pages) stays the snapshot."""
        os_ = boot(copy_strategy=strategy)
        parent = spawn(os_)
        kept = parent.malloc(64)
        parent.store(kept, b"kept-block")
        parent.set_reg("c9", kept)
        child = parent.fork()
        blocks_at_fork = child.proc.allocator.block_count()

        # parent churns its heap
        churn = [parent.malloc(48) for _ in range(20)]
        for block in churn[::2]:
            parent.free(block)

        # the child's allocator still sees the fork-time state
        assert child.proc.allocator.block_count() == blocks_at_fork
        assert child.load(child.reg("c9"), 10) == b"kept-block"
        # and can allocate independently
        mine = child.malloc(32)
        child.store(mine, b"child-new")
        assert child.load(mine, 9) == b"child-new"

    def test_double_exit_is_idempotent(self):
        os_ = boot()
        ctx = spawn(os_)
        child = ctx.fork()
        child.exit(3)
        os_._exit_process(child.proc, 99)  # second exit: no effect
        assert child.proc.exit_status == 3
