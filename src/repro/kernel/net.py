"""Loopback networking for the server workloads (Nginx, Redis clients).

Connections are in-memory byte streams with a per-packet device charge
and per-byte copy costs.  A :class:`Listener` models a listening socket
shared by forked workers — exactly the multi-worker accept pattern the
Nginx experiment (Fig 7) exercises.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro import events
from repro.errors import BrokenPipe, InvalidArgument, WouldBlock


class _Stream:
    """One direction of a connection."""

    def __init__(self) -> None:
        self.buffer = bytearray()
        self.open = True


class Connection:
    """A bidirectional loopback stream; each side holds one endpoint
    (an endpoint holds its streams and the machine, not the
    connection)."""

    def __init__(self, machine: Any) -> None:
        self.machine = machine
        self._client_to_server = _Stream()
        self._server_to_client = _Stream()
        self.client = Endpoint(machine, outbound=self._client_to_server,
                               inbound=self._server_to_client)
        self.server = Endpoint(machine, outbound=self._server_to_client,
                               inbound=self._client_to_server)


def _charge(machine: Any, n: int) -> None:
    """One packet of ``n`` bytes: the device and copy charges."""
    packet_ns = machine.costs.net_packet_ns
    copy_ns = machine.costs.io_copy_ns_per_byte * n
    if packet_ns >= 0 and copy_ns >= 0:
        machine.clock.advance_planned(
            ((int(round(packet_ns)), "net_packet"),
             (int(round(copy_ns)), "net_io")))
    else:  # a negative or NaN cost: the clock raises, as it always has
        machine.charge(packet_ns, "net_packet")
        machine.charge(copy_ns, "net_io")
    machine.emit(events.NET_PACKETS)
    machine.emit(events.NET_BYTES, n)


class Endpoint:
    """One side of a connection, installable in an FD table."""

    def __init__(self, machine: Any, outbound: _Stream,
                 inbound: _Stream) -> None:
        self.machine = machine
        self._outbound = outbound
        self._inbound = inbound

    def send(self, data: bytes) -> int:
        if not self._outbound.open:
            raise BrokenPipe("connection closed")
        machine = self.machine
        if machine.chaos.enabled and len(data) > 1 and \
                machine.chaos.should_fire("kernel.net.short_send"):
            # short send: callers loop on the return count (POSIX)
            data = data[:len(data) // 2]
        self._outbound.buffer.extend(data)
        _charge(machine, len(data))
        return len(data)

    def recv(self, size: int) -> bytes:
        if not self._inbound.buffer:
            if not self._inbound.open:
                return b""
            raise WouldBlock("no data")
        chunk = bytes(self._inbound.buffer[:size])
        del self._inbound.buffer[:size]
        _charge(self.machine, len(chunk))
        return chunk

    def close(self) -> None:
        self._outbound.open = False
        self._inbound.open = False

    # fd-table protocol
    def read(self, desc: Any, size: int) -> bytes:
        return self.recv(size)

    def write(self, desc: Any, data: bytes) -> int:
        return self.send(data)

    def on_last_close(self, desc: Any) -> None:
        self.close()


class Listener:
    """A listening socket with an accept queue."""

    def __init__(self, machine: Any, port: int, backlog: int = 128) -> None:
        self.machine = machine
        self.port = port
        self.backlog = backlog
        self._pending: Deque[Connection] = deque()
        self.open = True

    def connect(self) -> Endpoint:
        """Client side: establish a connection (returns client endpoint)."""
        if not self.open:
            raise BrokenPipe(f"listener on port {self.port} closed")
        if len(self._pending) >= self.backlog:
            raise WouldBlock("accept backlog full")
        conn = Connection(self.machine)
        self._pending.append(conn)
        self.machine.charge(self.machine.costs.net_packet_ns, "net_syn")
        self.machine.emit(events.NET_CONNECTIONS)
        return conn.client

    def accept(self) -> Endpoint:
        """Server side: accept one pending connection."""
        if not self._pending:
            raise WouldBlock("no pending connections")
        conn = self._pending.popleft()
        return conn.server

    # fd-table protocol (a listener fd is not readable/writable)
    def read(self, desc: Any, size: int) -> bytes:
        raise InvalidArgument("read on listening socket")

    def write(self, desc: Any, data: bytes) -> int:
        raise InvalidArgument("write on listening socket")

    def on_last_close(self, desc: Any) -> None:
        self.open = False


class NetworkStack:
    """Port → listener registry (one per machine/OS)."""

    def __init__(self, machine: Any) -> None:
        self.machine = machine
        self._listeners: dict = {}

    def listen(self, port: int, backlog: int = 128) -> Listener:
        if port in self._listeners and self._listeners[port].open:
            raise InvalidArgument(f"port {port} in use")
        listener = Listener(self.machine, port, backlog)
        self._listeners[port] = listener
        return listener

    def connect(self, port: int) -> Endpoint:
        listener = self._listeners.get(port)
        if listener is None or not listener.open:
            raise BrokenPipe(f"connection refused on port {port}")
        return listener.connect()

    def listener(self, port: int) -> Optional[Listener]:
        return self._listeners.get(port)
