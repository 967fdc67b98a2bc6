"""Tests for the structured execution tracer."""

from repro.apps.guest import GuestContext
from repro.apps.hello import hello_world_image
from repro.core import CopyStrategy, UForkOS
from repro.machine import Machine
from repro.trace import TraceLog, attach_tracer, detach_tracer


def boot_traced(**kwargs):
    os_ = UForkOS(machine=Machine(), **kwargs)
    tracer = attach_tracer(os_.machine)
    ctx = GuestContext(os_, os_.spawn(hello_world_image(), "app"))
    return os_, tracer, ctx


class TestTraceLog:
    def test_records_with_sim_timestamps(self):
        machine = Machine()
        tracer = attach_tracer(machine)
        machine.clock.advance(500)
        machine.emit("custom", value=1)
        (event,) = tracer.events
        assert event.timestamp_ns == 500
        assert event.event == "custom"
        assert event.get("value") == 1
        assert event.get("missing", "dflt") == "dflt"

    def test_no_tracer_is_noop(self):
        machine = Machine()
        machine.emit("ignored", x=1)  # must not raise

    def test_detach(self):
        machine = Machine()
        tracer = attach_tracer(machine)
        detach_tracer(machine)
        machine.emit("after", x=1)
        assert tracer.events == []

    def test_capacity_bounded(self):
        machine = Machine()
        tracer = attach_tracer(machine, capacity=3)
        for index in range(5):
            machine.emit("e", i=index)
        assert len(tracer.events) == 3
        assert tracer.dropped == 2

    def test_query_filters(self):
        machine = Machine()
        tracer = attach_tracer(machine)
        machine.emit("a", k=1)
        machine.emit("a", k=2)
        machine.emit("b", k=1)
        assert tracer.count("a") == 2
        assert tracer.count("a", k=1) == 1
        assert tracer.count("b") == 1
        assert len(list(tracer.query())) == 3  # no filter: everything

    def test_between(self):
        machine = Machine()
        tracer = attach_tracer(machine)
        machine.emit("early")
        machine.clock.advance(1000)
        machine.emit("late")
        assert [e.event for e in tracer.between(0, 500)] == ["early"]

    def test_clear(self):
        machine = Machine()
        tracer = attach_tracer(machine)
        machine.emit("x")
        tracer.clear()
        assert tracer.events == []


class TestKernelTracing:
    def test_fork_traced(self):
        os_, tracer, ctx = boot_traced(copy_strategy=CopyStrategy.COPA)
        child = ctx.fork()
        (fork_event,) = tracer.query("fork")
        assert fork_event.get("parent") == ctx.pid
        assert fork_event.get("child") == child.pid
        assert fork_event.get("strategy") == "copa"

    def test_cow_breaks_traced_with_roles(self):
        os_, tracer, ctx = boot_traced(copy_strategy=CopyStrategy.COPA)
        buf = ctx.malloc(32)
        ctx.store(buf, b"x" * 32)
        ctx.set_reg("c9", buf)
        child = ctx.fork()
        child.store(child.reg("c9"), b"y")   # child write break
        ctx.store(buf, b"z")                 # parent write break
        assert tracer.count("cow_break", role="child") >= 1
        assert tracer.count("cow_break", role="parent") >= 1

    def test_syscalls_and_exit_traced(self):
        os_, tracer, ctx = boot_traced()
        child = ctx.fork()
        child.syscall("getpid")
        child.exit(4)
        assert tracer.count("syscall", name="getpid") == 1
        (exit_event,) = tracer.query("exit", pid=child.pid)
        assert exit_event.get("status") == 4

    def test_eager_copies_distinguished(self):
        os_, tracer, ctx = boot_traced(copy_strategy=CopyStrategy.COPA)
        ctx.fork()
        eager = tracer.count("fork_page_copy", eager=True)
        assert eager > 0  # GOT + allocator metadata

    def test_summarize_reads_like_a_profile(self):
        os_, tracer, ctx = boot_traced()
        child = ctx.fork()
        child.exit(0)
        ctx.wait(child.pid)
        summary = tracer.summarize()
        assert summary["fork"] == 1
        assert summary["exit"] == 1
        assert summary["syscall"] >= 3  # fork, exit, waitpid

    def test_migration_traced(self):
        os_, tracer, ctx = boot_traced()
        GuestContext(os_, os_.spawn(hello_world_image(), "filler"))
        os_.migrate(ctx.proc)
        (event,) = tracer.query("migrate", pid=ctx.pid)
        assert event.get("pages") > 0
        assert event.get("new_base") != event.get("old_base")
