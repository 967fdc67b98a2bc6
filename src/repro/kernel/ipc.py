"""IPC objects: pipes and POSIX message queues.

Fast IPC is the SASOS benefit μFork "unlocks for the first time in
fork-based applications" (§5.2, Context1): moving bytes through a pipe
only pays a per-byte copy in the shared address space, while the
monolithic baseline additionally pays trap-based syscalls and TLB
flushes on the context switches between reader and writer (charged by
the OS layers, not here).

The kernel is synchronous in this simulation, so blocking conditions
surface as :class:`~repro.errors.WouldBlock` and drivers alternate
explicitly; EOF and broken-pipe semantics match POSIX.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from repro import events
from repro.errors import BrokenPipe, InvalidArgument, WouldBlock

PIPE_CAPACITY = 64 * 1024


class Pipe:
    """A bounded byte channel with distinct read/write ends."""

    def __init__(self, machine: Any, capacity: int = PIPE_CAPACITY) -> None:
        self.machine = machine
        self.capacity = capacity
        self._buffer = bytearray()
        self.read_open = True
        self.write_open = True
        #: bytes copied -> the rounded ``pipe_io`` charge, as planned
        #: clock charges (the cost model is frozen)
        self._io_charges: Dict[int, Tuple[Tuple[int, str]]] = {}

    # -- data plane ------------------------------------------------------

    def write(self, data: bytes) -> int:
        if not self.write_open:
            raise BrokenPipe("write end closed")
        if not self.read_open:
            raise BrokenPipe("no readers")
        room = self.capacity - len(self._buffer)
        if room <= 0:
            raise WouldBlock("pipe full")
        chunk = data[:room]
        chaos = self.machine.chaos
        if chaos.enabled and len(chunk) > 1 and \
                chaos.should_fire("kernel.ipc.short_write"):
            # short write: only half the bytes land; POSIX writers loop
            # on the return count, so correctness is the caller's loop
            chunk = chunk[:len(chunk) // 2]
        self._buffer.extend(chunk)
        size = len(chunk)
        machine = self.machine
        machine.clock.advance_planned(self._io_charges.get(size)
                                      or self._plan_io(size))
        machine.emit(events.PIPE_BYTES_WRITTEN, size)
        return size

    def read(self, size: int) -> bytes:
        if not self.read_open:
            raise BrokenPipe("read end closed")
        if not self._buffer:
            if not self.write_open:
                return b""  # EOF
            raise WouldBlock("pipe empty")
        chunk = bytes(self._buffer[:size])
        del self._buffer[:size]
        size = len(chunk)
        machine = self.machine
        machine.clock.advance_planned(self._io_charges.get(size)
                                      or self._plan_io(size))
        machine.emit(events.PIPE_BYTES_READ, size)
        return chunk

    def _plan_io(self, size: int) -> Tuple[Tuple[int, str]]:
        """Record and return the ``pipe_io`` charge for copying
        ``size`` bytes, rounded as :meth:`SimClock.advance` rounds; a
        negative cost raises from the clock as it always has."""
        machine = self.machine
        ns = machine.costs.io_copy_ns_per_byte * size
        if ns < 0:
            machine.charge(ns, "pipe_io")
        charges = self._io_charges[size] = ((int(round(ns)), "pipe_io"),)
        return charges

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    # -- ends as fd objects -----------------------------------------------

    def read_end(self) -> "PipeEnd":
        return PipeEnd(self, readable=True)

    def write_end(self) -> "PipeEnd":
        return PipeEnd(self, readable=False)


class PipeEnd:
    """One end of a pipe, installable in an FD table."""

    def __init__(self, pipe: Pipe, readable: bool) -> None:
        self.pipe = pipe
        self.readable = readable

    def read(self, desc: Any, size: int) -> bytes:
        if not self.readable:
            raise InvalidArgument("read from write end")
        return self.pipe.read(size)

    def write(self, desc: Any, data: bytes) -> int:
        if self.readable:
            raise InvalidArgument("write to read end")
        return self.pipe.write(data)

    def on_last_close(self, desc: Any) -> None:
        if self.readable:
            self.pipe.read_open = False
        else:
            self.pipe.write_open = False


class MessageQueue:
    """A POSIX-style message queue (duplicated across fork per §3.5)."""

    def __init__(self, machine: Any, max_messages: int = 64,
                 max_size: int = 8192, name: Optional[str] = None) -> None:
        self.machine = machine
        self.name = name
        self.max_messages = max_messages
        self.max_size = max_size
        self._queue: Deque[Tuple[int, bytes]] = deque()

    def send(self, data: bytes, priority: int = 0) -> None:
        if len(data) > self.max_size:
            raise InvalidArgument("message too large")
        if len(self._queue) >= self.max_messages:
            raise WouldBlock("queue full")
        self.machine.charge(
            self.machine.costs.io_copy_ns_per_byte * len(data), "mq_io"
        )
        self.machine.emit(events.MQ_BYTES_SENT, len(data))
        self._queue.append((priority, bytes(data)))
        self._queue = deque(
            sorted(self._queue, key=lambda item: -item[0])
        )

    def receive(self) -> bytes:
        if not self._queue:
            raise WouldBlock("queue empty")
        _priority, data = self._queue.popleft()
        self.machine.charge(
            self.machine.costs.io_copy_ns_per_byte * len(data), "mq_io"
        )
        self.machine.emit(events.MQ_BYTES_RECEIVED, len(data))
        return data

    def __len__(self) -> int:
        return len(self._queue)
