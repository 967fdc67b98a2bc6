"""Unixbench-style microbenchmarks (paper §5.2, Fig 9).

* **Spawn** — fork and reap processes as fast as possible (the paper
  runs 1000 fork+exit iterations);
* **Context1** — two processes increment a counter through a pair of
  pipes, context-switching on every hop (the paper runs to 100k).

Both are pure measurements of the OS mechanisms μFork targets: fork
latency, syscall entry, and context-switch/IPC cost in (or out of) a
single address space.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any

_U32 = struct.Struct("<I")


@dataclass
class SpawnResult:
    iterations: int
    total_ns: int

    @property
    def per_fork_us(self) -> float:
        return self.total_ns / self.iterations / 1_000


@dataclass
class Context1Result:
    iterations: int
    total_ns: int
    final_value: int

    @property
    def per_iteration_us(self) -> float:
        return self.total_ns / self.iterations / 1_000


def spawn(ctx: Any, iterations: int = 1000) -> SpawnResult:
    """Unixbench Spawn: fork + exit + wait, ``iterations`` times."""
    machine = ctx.os.machine
    with machine.clock.measure() as watch:
        for _ in range(iterations):
            child = ctx.fork()
            child.exit(0)
            ctx.wait(child.pid)
    return SpawnResult(iterations=iterations, total_ns=watch.elapsed_ns)


@dataclass
class SyscallRateResult:
    calls: int
    total_ns: int

    @property
    def per_syscall_ns(self) -> float:
        return self.total_ns / self.calls

    @property
    def calls_per_s(self) -> float:
        return self.calls * 1e9 / self.total_ns


def syscall_rate(ctx: Any, calls: int = 1000) -> SyscallRateResult:
    """Unixbench "Syscall Overhead"-style: the cheapest syscall, in a
    tight loop — isolates the entry mechanism (sealed gate vs trap)."""
    machine = ctx.os.machine
    with machine.clock.measure() as watch:
        for _ in range(calls):
            ctx.syscall("getpid")
    return SyscallRateResult(calls=calls, total_ns=watch.elapsed_ns)


def context1(ctx: Any, target: int = 100_000) -> Context1Result:
    """Unixbench Context1: a counter ping-pongs between parent and
    child over two pipes until it reaches ``target``.

    Every hop costs: write syscall, context switch to the peer, read
    syscall — the IPC path where the single address space wins (no page
    table switch, no TLB flush, trapless entry).
    """
    os_ = ctx.os
    machine = os_.machine

    ping_read, ping_write = ctx.syscall("pipe")
    pong_read, pong_write = ctx.syscall("pipe")
    child = ctx.fork()

    parent_task = ctx.proc.main_task()
    child_task = child.proc.main_task()
    buf_parent = ctx.malloc(16)
    buf_child = child.malloc(16)

    value = 0
    with machine.clock.measure() as watch:
        os_.sched.switch_to(parent_task)
        while value < target:
            # parent: send the counter
            ctx.store(buf_parent, _U32.pack(value))
            ctx.syscall("write", ping_write, buf_parent, 4)
            os_.sched.switch_to(child_task)
            # child: receive, increment, send back
            child.syscall("read", ping_read, buf_child, 4)
            (received,) = _U32.unpack(child.load(buf_child, 4))
            child.store(buf_child, _U32.pack(received + 1))
            child.syscall("write", pong_write, buf_child, 4)
            os_.sched.switch_to(parent_task)
            # parent: receive the incremented counter
            ctx.syscall("read", pong_read, buf_parent, 4)
            (value,) = _U32.unpack(ctx.load(buf_parent, 4))

    child.exit(0)
    ctx.wait(child.pid)
    return Context1Result(
        iterations=target, total_ns=watch.elapsed_ns, final_value=value
    )
