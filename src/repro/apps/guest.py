"""GuestContext: the user-space programming API.

A :class:`GuestContext` is what a process's code holds: its capability
registers, its heap allocator, and the syscall gate.  All loads and
stores go through capabilities (checked at dereference, like compiled
pure-capability code) into the simulated address space, so page-level
copy strategies and capability bounds are exercised on every access.

The same context API works on every OS in the reproduction — that is
the transparency requirement (R2) made concrete: applications in
:mod:`repro.apps` contain no OS-specific code.
"""

from __future__ import annotations

import struct
from typing import Any, Optional, Tuple

from repro.cheri.capability import OTYPE_UNSEALED, Capability, Perm
from repro.cheri.codec import CAP_SIZE
from repro.kernel.task import Process

_U64 = struct.Struct("<Q")

#: hoisted Perm members for load/store — the per-access Enum
#: class-attribute lookups add up on hot guest loops
_PERM_LOAD = Perm.LOAD
_PERM_STORE = Perm.STORE


class GuestContext:
    """User-space view of one process on one OS."""

    #: size of the staging buffer used by the byte-level I/O helpers
    STAGING_SIZE = 64 * 1024

    def __init__(self, os: Any, proc: Process) -> None:
        self.os = os
        self.proc = proc
        self._staging: Optional[Capability] = None
        self._space_memo: Any = None

    # ------------------------------------------------------------------
    # Registers
    # ------------------------------------------------------------------

    @property
    def registers(self):
        return self.proc.main_task().registers

    def reg(self, name: str):
        return self.registers.get(name)

    def set_reg(self, name: str, value) -> None:
        self.registers.set(name, value)

    # ------------------------------------------------------------------
    # Memory (capability-checked, unprivileged)
    # ------------------------------------------------------------------

    @property
    def space(self):
        # a process's address space is assigned once (spawn/fork) and
        # never replaced, so it is resolved only once
        space = self._space_memo
        if space is None:
            space = self._space_memo = self.os.space_of(self.proc)
        return space

    def load(self, cap: Capability, size: int, offset: int = 0) -> bytes:
        # load/store read the memo inline: the property call and keyword
        # arguments add up on hot guest loops
        addr = cap.check_access(_PERM_LOAD, size, cap.cursor + offset)
        space = self._space_memo
        if space is None:
            space = self.space
        return space.read(addr, size)

    def store(self, cap: Capability, data: bytes, offset: int = 0) -> None:
        addr = cap.check_access(_PERM_STORE, len(data), cap.cursor + offset)
        space = self._space_memo
        if space is None:
            space = self.space
        space.write(addr, data)

    def store_run(self, cap: Capability, data: bytes, offsets) -> None:
        """``store(cap, data, offset)`` for every offset, in order.

        The guest-side batch primitive (a fork server dirtying its
        pages, a buffer fill): one capability span check covers the
        whole run — sound because the hull of the accessed intervals
        passing bounds implies every member passes, and the
        tag/seal/permission checks are offset-independent — and the
        space batches the store charges.  Any capability that would
        fault takes the per-store loop instead, so the faulting access
        and its fault class are exactly those of the unbatched calls.
        """
        if offsets:
            size = len(data)
            cursor = cap.cursor
            lo = min(offsets)
            hi = max(offsets)
            bits = _PERM_STORE._value_
            if cap.valid and cap.otype == OTYPE_UNSEALED and \
                    (cap.perms._value_ & bits) == bits and \
                    cap.base <= cursor + lo and \
                    cursor + hi + size <= cap.base + cap.length:
                self.space.write_run(
                    [cursor + offset for offset in offsets], data)
                return
        for offset in offsets:
            self.store(cap, data, offset)

    def load_u64(self, cap: Capability, offset: int = 0) -> int:
        return _U64.unpack(self.load(cap, 8, offset))[0]

    def store_u64(self, cap: Capability, value: int, offset: int = 0) -> None:
        self.store(cap, _U64.pack(value), offset)

    def load_cap(self, cap: Capability, offset: int = 0) -> Capability:
        addr = cap.check_access(Perm.LOAD | Perm.LOAD_CAP, size=CAP_SIZE,
                                addr=cap.cursor + offset)
        return self.space.load_cap(addr)

    def store_cap(self, cap: Capability, value: Capability,
                  offset: int = 0) -> None:
        addr = cap.check_access(Perm.STORE | Perm.STORE_CAP, size=CAP_SIZE,
                                addr=cap.cursor + offset)
        self.space.store_cap(addr, value)

    # ------------------------------------------------------------------
    # Heap
    # ------------------------------------------------------------------

    def malloc(self, size: int) -> Capability:
        return self.proc.allocator.malloc(size)

    def free(self, cap: Capability) -> None:
        self.proc.allocator.free(cap)

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------

    def compute(self, work_units: float) -> None:
        """Charge abstract application compute time."""
        costs = self.os.machine.costs
        self.os.machine.charge(costs.compute_ns_per_unit * work_units,
                               "compute")

    # ------------------------------------------------------------------
    # Syscalls
    # ------------------------------------------------------------------

    def syscall(self, name: str, *args):
        return self.os.syscall(self.proc, name, *args,
                               gate=self.proc.syscall_gate)

    def fork(self) -> "GuestContext":
        """POSIX fork; returns the *child's* context.

        (Drivers are synchronous Python, so instead of "returns 0 in the
        child", the parent receives a handle it uses to run child code.)
        """
        child_proc = self.syscall("fork")
        return GuestContext(self.os, child_proc)

    def exit(self, status: int = 0) -> None:
        self.syscall("exit", status)

    def wait(self, pid: int = -1) -> Tuple[int, int]:
        return self.syscall("waitpid", pid)

    @property
    def pid(self) -> int:
        return self.proc.pid

    # ------------------------------------------------------------------
    # Byte-level file/socket helpers (stage through guest memory)
    # ------------------------------------------------------------------

    def _stage(self) -> Capability:
        if self._staging is None:
            # adapt to small heaps (hello-world sized images)
            size = min(self.STAGING_SIZE,
                       self.proc.allocator.data_size // 4)
            self._staging = self.malloc(max(512, size))
        return self._staging

    def write_bytes(self, fd: int, data: bytes) -> int:
        """Write host bytes to an fd via a guest staging buffer, in
        staging-buffer-sized syscalls (like stdio with a 64K buffer)."""
        staging = self._stage()
        written = 0
        view = memoryview(data)
        while written < len(data):
            chunk = view[written:written + staging.length]
            self.store(staging, bytes(chunk))
            written += self.syscall("write", fd, staging, len(chunk))
        return written

    def read_bytes(self, fd: int, size: int) -> bytes:
        """Read up to ``size`` bytes from an fd via the staging buffer."""
        staging = self._stage()
        out = bytearray()
        while len(out) < size:
            chunk = min(staging.length, size - len(out))
            got = self.syscall("read", fd, staging, chunk)
            if got == 0:
                break
            out += self.load(staging, got)
        return bytes(out)

    def send_bytes(self, fd: int, data: bytes) -> int:
        staging = self._stage()
        sent = 0
        view = memoryview(data)
        while sent < len(data):
            chunk = view[sent:sent + staging.length]
            self.store(staging, bytes(chunk))
            sent += self.syscall("send", fd, staging, len(chunk))
        return sent

    def recv_bytes(self, fd: int, size: int) -> bytes:
        staging = self._stage()
        got = self.syscall("recv", fd, staging, min(size, staging.length))
        if got == 0:
            return b""
        return self.load(staging, got)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GuestContext(pid={self.proc.pid}, os={self.os.kind})"
