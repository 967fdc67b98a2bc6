"""Tests for pipes, message queues, sockets, FD tables and scheduling."""

import pytest

from repro.errors import (
    BadFileDescriptor,
    BrokenPipe,
    InvalidArgument,
    WouldBlock,
)
from repro.kernel.fdtable import FDTable, FileDescription
from repro.kernel.ipc import MessageQueue, Pipe
from repro.kernel.net import NetworkStack
from repro.kernel.task import Process, TaskState
from repro.smp.sched import SmpScheduler


class TestPipe:
    def test_write_read_roundtrip(self, machine):
        pipe = Pipe(machine)
        assert pipe.write(b"hello") == 5
        assert pipe.read(5) == b"hello"

    def test_read_empty_would_block(self, machine):
        with pytest.raises(WouldBlock):
            Pipe(machine).read(1)

    def test_partial_read(self, machine):
        pipe = Pipe(machine)
        pipe.write(b"abcdef")
        assert pipe.read(2) == b"ab"
        assert pipe.read(100) == b"cdef"

    def test_capacity_backpressure(self, machine):
        pipe = Pipe(machine, capacity=4)
        assert pipe.write(b"123456") == 4  # short write
        with pytest.raises(WouldBlock):
            pipe.write(b"x")
        pipe.read(2)
        assert pipe.write(b"xy") == 2

    def test_eof_after_writer_close(self, machine):
        pipe = Pipe(machine)
        pipe.write(b"last")
        pipe.write_open = False
        assert pipe.read(10) == b"last"
        assert pipe.read(10) == b""  # EOF

    def test_broken_pipe_when_no_readers(self, machine):
        pipe = Pipe(machine)
        pipe.read_open = False
        with pytest.raises(BrokenPipe):
            pipe.write(b"x")

    def test_pipe_ends_as_fd_objects(self, machine):
        pipe = Pipe(machine)
        read_end, write_end = pipe.read_end(), pipe.write_end()
        desc = FileDescription(write_end)
        write_end.write(desc, b"via fd")
        assert read_end.read(FileDescription(read_end), 6) == b"via fd"
        with pytest.raises(InvalidArgument):
            read_end.write(desc, b"nope")
        with pytest.raises(InvalidArgument):
            write_end.read(desc, 1)

    def test_last_close_propagates(self, machine):
        pipe = Pipe(machine)
        end = pipe.write_end()
        desc = FileDescription(end)
        desc.decref()
        assert not pipe.write_open


class TestMessageQueue:
    def test_fifo_within_priority(self, machine):
        queue = MessageQueue(machine)
        queue.send(b"one")
        queue.send(b"two")
        assert queue.receive() == b"one"
        assert queue.receive() == b"two"

    def test_priority_ordering(self, machine):
        queue = MessageQueue(machine)
        queue.send(b"low", priority=0)
        queue.send(b"high", priority=9)
        assert queue.receive() == b"high"

    def test_empty_would_block(self, machine):
        with pytest.raises(WouldBlock):
            MessageQueue(machine).receive()

    def test_full_would_block(self, machine):
        queue = MessageQueue(machine, max_messages=1)
        queue.send(b"x")
        with pytest.raises(WouldBlock):
            queue.send(b"y")

    def test_oversized_message_rejected(self, machine):
        queue = MessageQueue(machine, max_size=4)
        with pytest.raises(InvalidArgument):
            queue.send(b"too big")


class TestNetwork:
    def test_connect_accept_exchange(self, machine):
        net = NetworkStack(machine)
        net.listen(80)
        client = net.connect(80)
        server = net.listener(80).accept()
        client.send(b"ping")
        assert server.recv(10) == b"ping"
        server.send(b"pong")
        assert client.recv(10) == b"pong"

    def test_connect_refused_without_listener(self, machine):
        with pytest.raises(BrokenPipe):
            NetworkStack(machine).connect(99)

    def test_accept_empty_would_block(self, machine):
        net = NetworkStack(machine)
        listener = net.listen(80)
        with pytest.raises(WouldBlock):
            listener.accept()

    def test_backlog_limit(self, machine):
        net = NetworkStack(machine)
        net.listen(80, backlog=2)
        net.connect(80)
        net.connect(80)
        with pytest.raises(WouldBlock):
            net.connect(80)

    def test_port_in_use(self, machine):
        net = NetworkStack(machine)
        net.listen(80)
        with pytest.raises(InvalidArgument):
            net.listen(80)

    def test_recv_after_close_is_eof(self, machine):
        net = NetworkStack(machine)
        net.listen(80)
        client = net.connect(80)
        server = net.listener(80).accept()
        client.send(b"bye")
        client.close()
        assert server.recv(10) == b"bye"
        assert server.recv(10) == b""

    def test_send_after_close_broken(self, machine):
        net = NetworkStack(machine)
        net.listen(80)
        client = net.connect(80)
        server = net.listener(80).accept()
        server.close()
        with pytest.raises(BrokenPipe):
            server.send(b"x")

    def test_network_charges_device_latency(self, machine):
        net = NetworkStack(machine)
        net.listen(80)
        client = net.connect(80)
        before = machine.clock.now_ns
        client.send(b"x" * 1000)
        assert machine.clock.now_ns - before >= machine.costs.net_packet_ns


class TestFDTable:
    def test_install_get_close(self):
        table = FDTable()
        desc = FileDescription(object())
        fd = table.install(desc)
        assert table.get(fd) is desc
        table.close(fd)
        with pytest.raises(BadFileDescriptor):
            table.get(fd)

    def test_fd_numbers_start_at_3(self):
        table = FDTable()
        assert table.install(FileDescription(object())) == 3
        assert table.install(FileDescription(object())) == 4

    def test_lowest_free_fd_reused(self):
        table = FDTable()
        fd3 = table.install(FileDescription(object()))
        table.install(FileDescription(object()))
        table.close(fd3)
        assert table.install(FileDescription(object())) == 3

    def test_dup_shares_description(self):
        table = FDTable()
        desc = FileDescription(object())
        fd = table.install(desc)
        dup_fd = table.dup(fd)
        assert table.get(dup_fd) is desc
        assert desc.refcount == 2

    def test_close_bad_fd(self):
        with pytest.raises(BadFileDescriptor):
            FDTable().close(42)

    def test_fork_copy_shares_offsets(self, machine):
        table = FDTable()
        desc = FileDescription(object())
        fd = table.install(desc)
        child = table.fork_copy(machine)
        child.get(fd).offset = 100
        assert table.get(fd).offset == 100  # same description

    def test_fork_copy_charges_per_fd(self, machine):
        table = FDTable()
        for _ in range(5):
            table.install(FileDescription(object()))
        before = machine.clock.now_ns
        table.fork_copy(machine)
        assert machine.clock.now_ns - before >= 5 * machine.costs.fd_dup_ns

    def test_last_close_callback(self):
        closed = []

        class Obj:
            def on_last_close(self, desc):
                closed.append(True)

        table = FDTable()
        desc = FileDescription(Obj())
        fd = table.install(desc)
        dup_fd = table.dup(fd)
        table.close(fd)
        assert not closed
        table.close(dup_fd)
        assert closed == [True]


class TestScheduler:
    def _task(self):
        proc = Process(1, "p")
        return proc.add_task()

    def test_switch_charges_sas_cost(self, machine):
        sched = SmpScheduler(machine, same_address_space=True)
        task = self._task()
        before = machine.clock.now_ns
        sched.switch_to(task)
        assert machine.clock.now_ns - before == \
            int(machine.costs.context_switch_sas_ns)
        assert machine.counters.get("tlb_flush") == 0

    def test_switch_across_spaces_flushes_tlb(self, machine):
        sched = SmpScheduler(machine, same_address_space=False)
        sched.switch_to(self._task())
        assert machine.counters.get("tlb_flush") == 1

    def test_switch_to_current_is_free(self, machine):
        sched = SmpScheduler(machine, same_address_space=True)
        task = self._task()
        sched.switch_to(task)
        before = machine.clock.now_ns
        sched.switch_to(task)
        assert machine.clock.now_ns == before

    def test_round_robin_yield(self, machine):
        sched = SmpScheduler(machine, same_address_space=True)
        task_a, task_b = self._task(), self._task()
        sched.add(task_a)
        sched.add(task_b)
        sched.switch_to(task_a)
        assert sched.yield_current() is task_b
        assert sched.yield_current() is task_a

    def test_block_and_wake(self, machine):
        sched = SmpScheduler(machine, same_address_space=True)
        task = self._task()
        sched.add(task)
        sched.block(task)
        assert task.state is TaskState.BLOCKED
        assert sched.pick_next() is None
        sched.wake(task)
        assert task.state is TaskState.RUNNABLE
        assert sched.pick_next() is task
