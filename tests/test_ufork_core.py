"""End-to-end tests of μFork: spawn, fork, relocation, strategies,
isolation — the core claims of the paper as executable checks."""

import pytest

from repro.cheri.capability import Capability, Perm
from repro.cheri.codec import CAP_SIZE
from repro.cheri.regfile import CGP, CSP, DDC, PCC
from repro.core import CopyStrategy, IsolationConfig, UForkOS
from repro.core.got import got_confined, read_got
from repro.apps.guest import GuestContext
from repro.apps.hello import GREETING, hello_world_image, run_hello
from repro.errors import (
    IsolationViolation,
    OutOfMemory,
    ProtectionError,
)
from repro.machine import Machine


def boot(strategy=CopyStrategy.COPA, isolation=None, **kwargs):
    return UForkOS(machine=Machine(), copy_strategy=strategy,
                   isolation=isolation, **kwargs)


def spawn_hello(os_):
    proc = os_.spawn(hello_world_image(), "hello")
    return GuestContext(os_, proc)


class TestSpawn:
    def test_spawn_creates_runnable_uprocess(self):
        os_ = boot()
        ctx = spawn_hello(os_)
        assert ctx.proc.alive
        assert ctx.proc.pid == 1
        assert os_.process_count() == 1

    def test_program_runs(self):
        ctx = spawn_hello(boot())
        assert run_hello(ctx) == GREETING

    def test_registers_bounded_to_region(self):
        ctx = spawn_hello(boot())
        proc = ctx.proc
        for name in (DDC, PCC, CSP, CGP):
            cap = ctx.reg(name)
            assert cap.base >= proc.region_base
            assert cap.top <= proc.region_top

    def test_no_system_permission_for_uprocess(self):
        ctx = spawn_hello(boot())
        for _name, cap in ctx.registers.cap_registers():
            assert not cap.has_perm(Perm.SYSTEM)

    def test_got_populated_and_confined(self):
        os_ = boot()
        ctx = spawn_hello(os_)
        layout = ctx.proc.layout
        entries = layout.image.got_entries
        assert got_confined(os_.space, layout.base("got"), entries,
                            ctx.proc.region_base, ctx.proc.region_top)
        caps = read_got(os_.space, layout.base("got"), entries,
                        privileged=True)
        assert all(cap.valid for cap in caps)

    def test_two_uprocesses_disjoint_regions(self):
        os_ = boot()
        a = spawn_hello(os_)
        b = spawn_hello(os_)
        assert (a.proc.region_top <= b.proc.region_base
                or b.proc.region_top <= a.proc.region_base)


class TestForkBasics:
    @pytest.mark.parametrize("strategy", list(CopyStrategy))
    def test_child_sees_parent_heap_snapshot(self, strategy):
        os_ = boot(strategy)
        parent = spawn_hello(os_)
        buf = parent.malloc(64)
        parent.store(buf, b"state before fork")
        parent.set_reg("c9", buf)

        child = parent.fork()
        child_buf = child.reg("c9")
        assert child.load(child_buf, 17) == b"state before fork"

    @pytest.mark.parametrize("strategy", list(CopyStrategy))
    def test_child_register_caps_relocated(self, strategy):
        os_ = boot(strategy)
        parent = spawn_hello(os_)
        child = parent.fork()
        delta = child.proc.region_base - parent.proc.region_base
        for name in (DDC, PCC, CSP, CGP):
            parent_cap = parent.reg(name)
            child_cap = child.reg(name)
            assert child_cap.base == parent_cap.base + delta
            assert child_cap.cursor == parent_cap.cursor + delta
            assert child.proc.region_base <= child_cap.base
            assert child_cap.top <= child.proc.region_top

    @pytest.mark.parametrize("strategy", list(CopyStrategy))
    def test_write_isolation_after_fork(self, strategy):
        """Divergence: parent and child writes are invisible to each
        other (the fundamental fork semantic, R2)."""
        os_ = boot(strategy)
        parent = spawn_hello(os_)
        buf = parent.malloc(32)
        parent.store(buf, b"original")
        parent.set_reg("c9", buf)

        child = parent.fork()
        child_buf = child.reg("c9")
        child.store(child_buf, b"childdat")
        parent.store(buf, b"parentda")

        assert parent.load(buf, 8) == b"parentda"
        assert child.load(child_buf, 8) == b"childdat"

    @pytest.mark.parametrize("strategy", list(CopyStrategy))
    def test_child_heap_pointer_chain_relocated(self, strategy):
        """A linked structure built pre-fork is walkable in the child and
        every link points into the child's region."""
        os_ = boot(strategy)
        parent = spawn_hello(os_)
        head = parent.malloc(32)
        mid = parent.malloc(32)
        tail = parent.malloc(32)
        parent.store_cap(head, mid)
        parent.store_cap(mid, tail)
        parent.store(tail, b"\x00" * 16)
        parent.store(tail, b"tail-data", 16)
        parent.set_reg("c9", head)

        child = parent.fork()
        node = child.reg("c9")
        hops = 0
        while True:
            assert child.proc.region_base <= node.base < child.proc.region_top
            next_cap = child.load_cap(node)
            if not next_cap.valid:
                break
            node = next_cap
            hops += 1
        assert hops == 2
        assert child.load(node, 9, 16) == b"tail-data"

    def test_child_got_relocated_eagerly(self):
        os_ = boot(CopyStrategy.COPA)
        parent = spawn_hello(os_)
        child = parent.fork()
        layout = child.proc.layout
        copies_before = os_.machine.counters.get("fork_page_copies")
        assert got_confined(os_.space, layout.base("got"),
                            layout.image.got_entries,
                            child.proc.region_base, child.proc.region_top)
        # reading the GOT caused no lazy copies: it was copied at fork
        assert os_.machine.counters.get("fork_page_copies") == copies_before

    def test_child_allocator_works_after_fork(self):
        os_ = boot(CopyStrategy.COPA)
        parent = spawn_hello(os_)
        parent.malloc(128)
        child = parent.fork()
        fresh = child.malloc(64)
        assert child.proc.region_base <= fresh.base < child.proc.region_top
        child.store(fresh, b"child alloc")
        assert child.load(fresh, 11) == b"child alloc"

    def test_child_allocator_sees_parent_blocks(self):
        os_ = boot(CopyStrategy.COPA)
        parent = spawn_hello(os_)
        parent.malloc(128)
        parent.malloc(256)
        child = parent.fork()
        assert child.proc.allocator.block_count() == \
            parent.proc.allocator.block_count()

    def test_fd_table_duplicated(self):
        from repro.kernel.vfs import O_CREAT, O_WRONLY
        os_ = boot()
        parent = spawn_hello(os_)
        fd = parent.syscall("open", "/log", O_CREAT | O_WRONLY)
        child = parent.fork()
        child.write_bytes(fd, b"from child")
        parent.write_bytes(fd, b" and parent")  # shared offset
        data = os_.ramdisk.open("/log").node.data
        assert bytes(data) == b"from child and parent"

    def test_getpid_differs(self):
        os_ = boot()
        parent = spawn_hello(os_)
        child = parent.fork()
        assert parent.syscall("getpid") == parent.proc.pid
        assert child.syscall("getpid") == child.proc.pid
        assert child.proc.pid != parent.proc.pid

    def test_wait_reaps_child(self):
        os_ = boot()
        parent = spawn_hello(os_)
        child = parent.fork()
        child.exit(7)
        pid, status = parent.wait(child.pid)
        assert (pid, status) == (child.pid, 7)
        assert os_.process_count() == 1

    def test_fork_charges_time(self):
        os_ = boot()
        parent = spawn_hello(os_)
        before = os_.machine.clock.now_ns
        parent.fork()
        elapsed = os_.machine.clock.now_ns - before
        assert elapsed >= os_.machine.costs.ufork_fixed_ns

    def test_grandchild_fork(self):
        os_ = boot(CopyStrategy.COPA)
        parent = spawn_hello(os_)
        buf = parent.malloc(32)
        parent.store(buf, b"generation0")
        parent.set_reg("c9", buf)
        child = parent.fork()
        grandchild = child.fork()
        gbuf = grandchild.reg("c9")
        assert grandchild.load(gbuf, 11) == b"generation0"
        assert grandchild.proc.region_base not in (
            parent.proc.region_base, child.proc.region_base
        )


class TestCopyStrategies:
    def _forked_redis_like(self, strategy):
        """Parent with a page of pointers and many pages of plain data."""
        os_ = boot(strategy)
        parent = spawn_hello(os_)
        data = parent.malloc(4096 * 4)  # pure data, no caps
        parent.store(data, b"D" * (4096 * 4))
        ptr_block = parent.malloc(64)
        parent.store_cap(ptr_block, data)
        parent.set_reg("c9", ptr_block)
        child = parent.fork()
        return os_, parent, child

    def test_copa_plain_reads_do_not_copy(self):
        os_, parent, child = self._forked_redis_like(CopyStrategy.COPA)
        before = os_.machine.counters.get("fork_page_copies")
        # read plain data through the child's DDC (no capability loads)
        ddc = child.reg(DDC)
        heap_base = child.proc.layout.base("heap")
        probe = ddc.set_bounds(heap_base, 4096).with_cursor(heap_base)
        child.load(probe, 64)
        assert os_.machine.counters.get("fork_page_copies") == before

    def test_copa_cap_load_triggers_copy(self):
        os_, parent, child = self._forked_redis_like(CopyStrategy.COPA)
        before = os_.machine.counters.get("fork_page_copies")
        ptr = child.reg("c9")
        data_cap = child.load_cap(ptr)  # capability load → copy + relocate
        assert os_.machine.counters.get("fork_page_copies") > before
        assert child.proc.region_base <= data_cap.base \
            < child.proc.region_top

    def test_coa_any_read_triggers_copy(self):
        os_, parent, child = self._forked_redis_like(CopyStrategy.COA)
        before = os_.machine.counters.get("fork_page_copies")
        ddc = child.reg(DDC)
        # probe the heap *data* area (metadata pages are eagerly copied)
        data_base = child.proc.allocator.data_base
        probe = ddc.set_bounds(data_base, 4096).with_cursor(data_base)
        child.load(probe, 8)
        assert os_.machine.counters.get("fork_page_copies") > before

    def test_full_copy_copies_everything_upfront(self):
        os_ = boot(CopyStrategy.FULL_COPY)
        parent = spawn_hello(os_)
        pages_before = os_.machine.phys.allocated_frames
        child = parent.fork()
        copied = os_.machine.phys.allocated_frames - pages_before
        page = os_.machine.config.page_size
        # every mapped parent page was duplicated
        mapped = os_.space.mapped_pages(parent.proc.region_base,
                                        parent.proc.region_top)
        assert copied == mapped
        # and nothing is shared: child memory is fully private
        assert os_.private_bytes(child.proc) == mapped * page

    def test_parent_write_preserves_child_snapshot(self):
        os_, parent, child = self._forked_redis_like(CopyStrategy.COPA)
        ptr = parent.reg("c9")
        data_cap = parent.load_cap(ptr)
        parent.store(data_cap, b"MUTATED!")
        child_data = child.load_cap(child.reg("c9"))
        assert child.load(child_data, 8) == b"D" * 8

    def test_memory_sharing_accounted(self):
        os_, parent, child = self._forked_redis_like(CopyStrategy.COPA)
        # most pages still shared: child resident < its full region
        resident = os_.memory_of(child.proc)
        assert resident < child.proc.region_size


class TestIsolation:
    def test_uprocess_cannot_touch_kernel_memory(self):
        from repro.core.ufork import KERNEL_BASE
        os_ = boot()
        ctx = spawn_hello(os_)
        with pytest.raises(ProtectionError):
            os_.space.read(KERNEL_BASE, 8)

    def test_uprocess_cannot_reach_sibling(self):
        """Capability bounds confine each μprocess to its own region."""
        os_ = boot()
        a = spawn_hello(os_)
        b = spawn_hello(os_)
        ddc_a = a.reg(DDC)
        from repro.errors import BoundsFault
        with pytest.raises(BoundsFault):
            ddc_a.check_access(Perm.LOAD, size=8, addr=b.proc.region_base)

    def test_forged_gate_rejected(self):
        os_ = boot(isolation=IsolationConfig.full())
        ctx = spawn_hello(os_)
        forged = Capability(base=0, length=16, cursor=0, perms=Perm.code())
        with pytest.raises(IsolationViolation):
            os_.syscall(ctx.proc, "getpid", gate=forged)

    def test_unsealed_gate_rejected(self):
        os_ = boot(isolation=IsolationConfig.full())
        ctx = spawn_hello(os_)
        legit = ctx.proc.syscall_gate
        unsealed_lookalike = Capability(
            base=legit.base, length=legit.length, cursor=legit.cursor,
            perms=legit.perms,
        )
        with pytest.raises(IsolationViolation):
            os_.syscall(ctx.proc, "getpid", gate=unsealed_lookalike)

    def test_gate_check_disabled_at_isolation_none(self):
        os_ = boot(isolation=IsolationConfig.none())
        ctx = spawn_hello(os_)
        assert os_.syscall(ctx.proc, "getpid", gate=None) == ctx.proc.pid

    def test_bad_user_buffer_rejected(self):
        """A capability outside the caller's region fails validation."""
        from repro.errors import BadAddress
        os_ = boot(isolation=IsolationConfig.full())
        a = spawn_hello(os_)
        b = spawn_hello(os_)
        from repro.kernel.vfs import O_CREAT, O_WRONLY
        fd = a.syscall("open", "/x", O_CREAT | O_WRONLY)
        evil = Capability(
            base=b.proc.region_base, length=64,
            cursor=b.proc.region_base, perms=Perm.data_rw(),
        )
        with pytest.raises(BadAddress):
            a.syscall("write", fd, evil, 8)

    def test_privileged_instruction_blocked(self):
        from repro.core.isolation import check_privileged
        from repro.errors import PrivilegeViolation
        os_ = boot()
        ctx = spawn_hello(os_)
        with pytest.raises(PrivilegeViolation):
            check_privileged(ctx.reg(DDC))
        check_privileged(os_.kernel_root)  # kernel may

    def test_no_parent_caps_leak_into_child_pages(self):
        """After the child touches everything, no capability anywhere in
        its region still points into the parent (§4.3 invariant)."""
        os_ = boot(CopyStrategy.COPA)
        parent = spawn_hello(os_)
        chain = parent.malloc(32)
        inner = parent.malloc(32)
        parent.store_cap(chain, inner)
        parent.set_reg("c9", chain)
        child = parent.fork()
        # force every page private
        from repro.core.strategies import resolve_all_pending
        resolve_all_pending(os_.space, child.proc.region_base,
                            child.proc.region_top)
        page = os_.machine.config.page_size
        for _vpn, number, _perms, _cow, _note in os_.space.mapped_items(
                child.proc.region_base // page,
                child.proc.region_top // page):
            frame = os_.machine.phys.frame(number)
            for offset in frame.tagged_granules():
                cap = frame.load_cap(offset, os_.machine.codec)
                if cap.valid and not cap.is_sentry:
                    assert not (parent.proc.region_base <= cap.base
                                < parent.proc.region_top), (
                        f"leaked parent cap at vpn={vpn:#x}+{offset}: {cap}"
                    )


class TestSharedMemoryAndMmap:
    def test_anonymous_mmap_confined(self):
        os_ = boot()
        ctx = spawn_hello(os_)
        cap = ctx.syscall("mmap", 8192)
        assert ctx.proc.region_base <= cap.base < ctx.proc.region_top
        ctx.store(cap, b"mapped")
        assert ctx.load(cap, 6) == b"mapped"

    def test_shm_visible_across_fork(self):
        os_ = boot()
        parent = spawn_hello(os_)
        shm = parent.syscall("shm_open", "/buf", 4096)
        parent_cap = parent.syscall("shm_map", shm)
        parent.store(parent_cap, b"shared-before")
        child = parent.fork()
        # child's binding is at the mirrored offset in its own region
        child_base = child.proc.layout.base("mmap") + (
            parent_cap.base - parent.proc.layout.base("mmap")
        )
        child_cap = child.reg(DDC).set_bounds(child_base, 4096) \
                                  .with_cursor(child_base)
        assert child.load(child_cap, 13) == b"shared-before"
        child.store(child_cap, b"shared-after!")
        assert parent.load(parent_cap, 13) == b"shared-after!"

    @pytest.mark.parametrize("seed", [4, 5, 7, 12])
    def test_shm_open_alloc_failure_leaks_no_frames(self, seed):
        """At these seeds an injected ``hw.phys.alloc_fail`` lands part-way
        through a 16-page ``shm_open``: no object is registered, and no
        frame of the partial allocation stays behind."""
        from repro.chaos import InjectedAllocFailure
        from repro.harness.matrix import boot as matrix_boot

        booted = matrix_boot("copa", seed=seed, cpus=1,
                             image=hello_world_image(), name="x",
                             chaos_mix="hw.phys.alloc_fail=0.03")
        frames = booted.machine.phys.allocated_frames
        with pytest.raises(InjectedAllocFailure):
            booted.ctx.syscall("shm_open", "/s", 16 * 4096)
        assert booted.machine.phys.allocated_frames == frames
        assert booted.os._shm == {}

    @pytest.mark.parametrize("spare", [0, 3, 7])
    def test_mmap_alloc_failure_leaks_nothing(self, spare):
        """An 8-page ``mmap`` with fewer free frames fails with nothing
        allocated and the window untouched, so a mapping that fits
        lands where the failed one would have."""
        import dataclasses

        from repro.params import MachineConfig

        image = dataclasses.replace(hello_world_image(), mmap_size=64 * 1024)

        def boot_capped(dram_frames=None):
            kwargs = {} if dram_frames is None else {
                "config": MachineConfig(dram_bytes=dram_frames * 4096)}
            os_ = UForkOS(machine=Machine(seed=3, **kwargs))
            return os_, GuestContext(os_, os_.spawn(image, "app"))

        os_, _ctx = boot_capped()
        os_, ctx = boot_capped(os_.machine.phys.allocated_frames + spare)
        frames = os_.machine.phys.allocated_frames
        offset = getattr(ctx.proc, "mmap_offset", 0)
        with pytest.raises(OutOfMemory, match="physical memory"):
            ctx.syscall("mmap", 8 * 4096)
        assert os_.machine.phys.allocated_frames == frames
        assert getattr(ctx.proc, "mmap_offset", 0) == offset
        if spare:
            cap = ctx.syscall("mmap", spare * 4096)
            assert cap.base == ctx.proc.layout.base("mmap") + offset
            ctx.store(cap, b"fits")
            assert ctx.load(cap, 4) == b"fits"


class TestExitTeardown:
    def test_exit_releases_frames(self):
        os_ = boot(CopyStrategy.FULL_COPY)
        parent = spawn_hello(os_)
        frames_before = os_.machine.phys.allocated_frames
        child = parent.fork()
        assert os_.machine.phys.allocated_frames > frames_before
        child.exit(0)
        parent.wait(child.pid)
        assert os_.machine.phys.allocated_frames == frames_before

    def test_exit_releases_va(self):
        os_ = boot()
        parent = spawn_hello(os_)
        free_before = os_.vspace.total_free()
        child = parent.fork()
        assert os_.vspace.total_free() < free_before
        child.exit(0)
        parent.wait(child.pid)
        assert os_.vspace.total_free() == free_before

    def test_parent_write_after_child_exit(self):
        os_ = boot(CopyStrategy.COPA)
        parent = spawn_hello(os_)
        buf = parent.malloc(32)
        parent.store(buf, b"before")
        child = parent.fork()
        child.exit(0)
        parent.wait(child.pid)
        parent.store(buf, b"after!")
        assert parent.load(buf, 6) == b"after!"

    def test_double_fork_from_same_parent(self):
        os_ = boot(CopyStrategy.COPA)
        parent = spawn_hello(os_)
        buf = parent.malloc(32)
        parent.store(buf, b"zygote-state")
        parent.set_reg("c9", buf)
        children = [parent.fork() for _ in range(3)]
        for child in children:
            cbuf = child.reg("c9")
            assert child.load(cbuf, 12) == b"zygote-state"
        for child in children:
            child.exit(0)
            parent.wait(child.pid)


class TestAslr:
    def test_aslr_randomizes_region_bases(self):
        bases = set()
        for seed in range(6):
            os_ = UForkOS(machine=Machine(seed=seed), aslr=True)
            ctx = GuestContext(os_, os_.spawn(hello_world_image(), "h"))
            bases.add(ctx.proc.region_base)
        assert len(bases) > 1

    def test_aslr_fork_still_correct(self):
        os_ = UForkOS(machine=Machine(seed=3), aslr=True)
        parent = GuestContext(os_, os_.spawn(hello_world_image(), "h"))
        buf = parent.malloc(32)
        parent.store(buf, b"aslr-ok")
        parent.set_reg("c9", buf)
        child = parent.fork()
        assert child.load(child.reg("c9"), 7) == b"aslr-ok"
