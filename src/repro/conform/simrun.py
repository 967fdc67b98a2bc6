"""Execute a conformance scenario on the simulated kernel.

The interpreter drives one :class:`~repro.conform.dsl.Scenario` over a
freshly booted OS — :class:`~repro.core.UForkOS` under any copy
strategy, or the :class:`~repro.baselines.MonolithicOS` baseline — at
any CPU count, producing the same logical trace shape as the host
oracle (:mod:`repro.conform.hostrun`).

Scheduling model: ops are atomic; between ops the interpreter picks
which runnable process steps next.  The default policy is
*newest-first* (a forked subtree runs to completion before its parent
resumes), which mirrors the host runner's sync-pipe serialization, so
default-schedule traces are directly host-comparable.  A ``decision``
callback can override every pick — that is the interleaving explorer's
hook — and each multi-candidate pick is counted as one decision point.
An op that would block (pipe full/empty, unexited child) keeps its
progress, parks the process, and is retried after any other process
makes progress; if every live process is parked the run reports a
deadlock.

Kernel fidelity: every op runs on the simulated kernel's own syscalls
through a :class:`~repro.apps.guest.GuestContext` (so capability
checks, copy-strategy faults, TLB shootdowns and signal delivery are
all exercised), the interpreter drives the real scheduler via
``switch_to`` with per-process home CPUs, installs a
``machine.syscall_tap`` to count the syscall boundary crossings, and
uses the scheduler's pluggable ``decision_source`` so kernel-internal
yields dispatch the process the interpreter intends to run.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps.guest import GuestContext
from repro.apps.hello import hello_world_image
from repro.conform.dsl import READ_END, WRITE_END, Scenario, status_pair
from repro.errors import (
    KernelError,
    NoChildProcess,
    NoSuchProcess,
    WouldBlock,
)
from repro.harness.matrix import boot
from repro.kernel import signals as _signals
from repro.kernel.task import TaskState

SIG_NUMS = {
    "TERM": _signals.SIGTERM,
    "USR1": _signals.SIGUSR1,
    "USR2": _signals.SIGUSR2,
    "CHLD": _signals.SIGCHLD,
    "KILL": _signals.SIGKILL,
}

#: one shared-memory page serves every scenario's shm vars
SHM_NAME = "conform-shm"
SHM_SIZE = 4096


class ConformError(Exception):
    """A scenario could not be executed (distinct from a conformance
    *difference*, which is reported as a trace diff)."""


class DeadlockError(ConformError):
    """Every live process is blocked — the schedule wedged the
    scenario."""


class _Proc:
    """Interpreter-side state of one scenario process."""

    __slots__ = ("label", "ctx", "ops", "pc", "index", "blocked", "done",
                 "fdmap", "heap", "shm_cap", "children", "fork_counts",
                 "sigcounts", "parent_pid", "io")

    def __init__(self, label: str, ctx: GuestContext,
                 ops: Tuple[Any, ...], index: int,
                 parent_pid: Optional[int]) -> None:
        self.label = label
        self.ctx = ctx
        self.ops = ops
        self.pc = 0
        self.index = index
        self.blocked = False
        self.done = False
        self.fdmap: Dict[str, int] = {}
        self.heap: Dict[str, Any] = {}
        self.shm_cap: Optional[Any] = None
        self.children: Dict[str, int] = {}
        self.fork_counts: Dict[str, int] = {}
        self.sigcounts: Dict[str, int] = {}
        self.parent_pid = parent_pid
        self.io: Optional[Dict[str, Any]] = None


class SimRun:
    """One scenario execution over one booted kernel."""

    def __init__(self, os_: Any, scenario: Scenario,
                 decision: Optional[Callable[[int, List[Tuple[str, Any]]],
                                             int]] = None,
                 on_step: Optional[Callable[[Any, "SimRun"], None]] = None
                 ) -> None:
        self.os_ = os_
        self.machine = os_.machine
        self.scenario = scenario
        self.decision = decision
        self.on_step = on_step
        self.procs: List[_Proc] = []
        self.by_pid: Dict[int, _Proc] = {}
        self.events: Dict[str, List[List[Any]]] = {}
        self.status: Dict[str, List[Any]] = {}
        self.syscalls: Dict[str, int] = {}
        #: per decision point: the candidates offered, newest first,
        #: as (label, next_op) pairs (explorer pruning material)
        self.points: List[List[Tuple[str, Any]]] = []
        self._want_task: Optional[Any] = None

    # -- setup ----------------------------------------------------------

    def _install_hooks(self) -> None:
        def tap(os, proc, name, args, result, error):
            self.syscalls[name] = self.syscalls.get(name, 0) + 1

        self.machine.syscall_tap = tap
        self.os_.sched.decision_source = self._kernel_pick

    def _kernel_pick(self, candidates: List[Any]) -> Optional[Any]:
        if self._want_task is not None and self._want_task in candidates:
            return self._want_task
        return None

    def _spawn_root(self) -> None:
        root = self.os_.spawn(hello_world_image(),
                              f"conform-{self.scenario.name}")
        ctx = GuestContext(self.os_, root)
        main = _Proc("main", ctx, self.scenario.bodies["main"], 0, None)
        self.procs.append(main)
        self.by_pid[root.pid] = main
        self.events[main.label] = []
        if self.scenario.shm_vars:
            self._run_on(main)
            shm = ctx.syscall("shm_open", SHM_NAME, SHM_SIZE)
            main.shm_cap = ctx.syscall("shm_map", shm)

    # -- the loop -------------------------------------------------------

    def run(self) -> Dict[str, Any]:
        self._install_hooks()
        try:
            self._spawn_root()
            point = 0
            while True:
                candidates = [p for p in self.procs
                              if not p.done and not p.blocked]
                if not candidates:
                    if any(not p.done for p in self.procs):
                        raise DeadlockError(
                            f"{self.scenario.name}: all live processes "
                            f"blocked")
                    break
                # newest-first: forked subtrees run to completion
                candidates.sort(key=lambda p: -p.index)
                choice = 0
                if len(candidates) > 1:
                    offered = [(p.label, self._peek(p)) for p in candidates]
                    self.points.append(offered)
                    if self.decision is not None:
                        choice = self.decision(point, offered)
                        choice = max(0, min(choice, len(candidates) - 1))
                    point += 1
                proc = candidates[choice]
                if self._step(proc):
                    for other in self.procs:
                        other.blocked = False
                if self.on_step is not None:
                    self.on_step(self.os_, self)
            self._reap_orphans()
        finally:
            self.machine.syscall_tap = None
            self.os_.sched.decision_source = None
            self._want_task = None
        return {"procs": self.events, "status": self.status}

    def _peek(self, p: _Proc) -> Any:
        if p.pc < len(p.ops):
            return list(p.ops[p.pc])
        return ["exit", 0]

    def _reap_orphans(self) -> None:
        """Play init: reap exited processes whose parent died without
        waiting (a real kernel reparents them to pid 1)."""
        for proc in list(self.os_.procs.all()):
            if proc.alive or proc.reaped:
                continue
            parent = proc.parent
            if parent is None or not parent.alive:
                proc.reaped = True
                self.os_.procs.remove(proc.pid)

    # -- one step -------------------------------------------------------

    def _step(self, p: _Proc) -> bool:
        """Execute (or resume) one op for ``p``; True if it progressed."""
        if not self._deliver_boundary(p):
            return True  # the pending signal killed it: that's progress
        if not p.ctx.proc.alive:
            # killed outside its own step (SIGKILL acts on send)
            self._finalize_dead(p)
            return True
        self._run_on(p)
        if p.pc >= len(p.ops):
            return self._op_exit(p, 0)
        op = p.ops[p.pc]
        handler = getattr(self, f"_op_{op[0]}")
        progressed = handler(p, *op[1:])
        if progressed and not p.done:
            p.pc += 1
            p.io = None
        return progressed

    def _run_on(self, p: _Proc) -> None:
        """Dispatch ``p``'s task on its home CPU via the real scheduler."""
        task = p.ctx.proc.main_task()
        if task.state is TaskState.EXITED:
            return
        machine = self.machine
        cpu = p.index % machine.num_cpus
        machine.current_cpu = cpu
        self._want_task = task
        if self.os_.sched.current is not task:
            if task.state is TaskState.BLOCKED:
                task.state = TaskState.RUNNABLE
            self.os_.sched.switch_to(task)

    def _deliver_boundary(self, p: _Proc) -> bool:
        """Cross a kernel boundary if signals are pending (the host
        delivers asynchronously; promptly-at-next-op is the closest
        schedule-stable model).  False if delivery killed ``p``."""
        if p.done:
            return False
        if not _signals.signal_state(p.ctx.proc).pending:
            return True
        self._run_on(p)
        try:
            p.ctx.syscall("getpid")
            return True
        except NoSuchProcess:
            self._finalize_dead(p)
            return False

    def _finalize_dead(self, p: _Proc) -> None:
        p.done = True
        p.io = None
        if p.label == "main":
            self.status["main"] = status_pair(p.ctx.proc.exit_status)

    def _emit(self, p: _Proc, *event: Any) -> None:
        self.events[p.label].append(list(event))

    # -- op handlers (each returns True when the op completed) ----------

    def _fd_of(self, p: _Proc, op: str, tag: str) -> Optional[int]:
        if tag not in p.fdmap:
            raise ConformError(f"{self.scenario.name}/{p.label}: op "
                               f"{op!r} on unknown fd tag {tag!r}")
        fd = p.fdmap[tag]
        if fd < 0:
            self._emit(p, "err", op, "EBADF")
            return None
        return fd

    def _op_pipe(self, p: _Proc, name: str) -> bool:
        read_fd, write_fd = p.ctx.syscall("pipe")
        p.fdmap[name + READ_END] = read_fd
        p.fdmap[name + WRITE_END] = write_fd
        return True

    def _op_write(self, p: _Proc, tag: str, text: str) -> bool:
        fd = self._fd_of(p, "write", tag)
        if fd is None:
            return True
        data = text.encode("latin-1")
        if p.io is None:
            p.io = {"sent": 0}
        staging = p.ctx._stage()
        try:
            while p.io["sent"] < len(data):
                chunk = data[p.io["sent"]:p.io["sent"] + staging.length]
                p.ctx.store(staging, chunk)
                n = p.ctx.syscall("write", fd, staging, len(chunk))
                p.io["sent"] += n
        except WouldBlock:
            p.blocked = True
            return False
        except KernelError as exc:
            self._emit(p, "err", "write", exc.errno_name)
            return True
        self._emit(p, "write", tag, len(data))
        return True

    def _op_read(self, p: _Proc, tag: str, n: int) -> bool:
        fd = self._fd_of(p, "read", tag)
        if fd is None:
            return True
        if p.io is None:
            p.io = {"buf": bytearray()}
        buf = p.io["buf"]
        staging = p.ctx._stage()
        try:
            while len(buf) < n:
                chunk = min(staging.length, n - len(buf))
                got = p.ctx.syscall("read", fd, staging, chunk)
                if got == 0:
                    break  # EOF
                buf += p.ctx.load(staging, got)
        except WouldBlock:
            p.blocked = True
            return False
        except KernelError as exc:
            self._emit(p, "err", "read", exc.errno_name)
            return True
        self._emit(p, "read", tag, bytes(buf).decode("latin-1"))
        return True

    def _op_close(self, p: _Proc, tag: str) -> bool:
        fd = self._fd_of(p, "close", tag)
        if fd is None:
            return True
        try:
            p.ctx.syscall("close", fd)
        except KernelError as exc:
            self._emit(p, "err", "close", exc.errno_name)
            return True
        p.fdmap[tag] = -1
        return True

    def _op_dup2(self, p: _Proc, src: str, dst: str) -> bool:
        src_fd = self._fd_of(p, "dup2", src)
        if src_fd is None:
            return True
        try:
            dst_fd = p.fdmap.get(dst, -1)
            if dst_fd >= 0:
                p.fdmap[dst] = p.ctx.syscall("dup2", src_fd, dst_fd)
            else:
                # fresh logical slot: semantically dup2 into a free fd
                p.fdmap[dst] = p.ctx.syscall("dup", src_fd)
        except KernelError as exc:
            self._emit(p, "err", "dup2", exc.errno_name)
        return True

    def _op_fork(self, p: _Proc, body: str) -> bool:
        count = p.fork_counts.get(body, 0) + 1
        p.fork_counts[body] = count
        ref = f"{body}{count}"
        try:
            child_ctx = p.ctx.fork()
        except KernelError as exc:
            self._emit(p, "err", "fork", exc.errno_name)
            return True
        delta = child_ctx.proc.region_base - p.ctx.proc.region_base
        child = _Proc(f"{p.label}/{ref}", child_ctx,
                      self.scenario.bodies[body], len(self.procs),
                      p.ctx.proc.pid)
        child.fdmap = dict(p.fdmap)
        child.heap = {var: cap.rebased(delta)
                      for var, cap in p.heap.items()}
        if p.shm_cap is not None:
            child.shm_cap = p.shm_cap.rebased(delta)
        child.children = {}
        child.sigcounts = dict(p.sigcounts)
        self.procs.append(child)
        self.by_pid[child_ctx.proc.pid] = child
        self.events[child.label] = []
        p.children[ref] = child_ctx.proc.pid
        return True

    def _op_snapshot(self, p: _Proc, body: str) -> bool:
        """Clone the caller through the snapshot subsystem: checkpoint
        it at this syscall boundary and restore the blob into the same
        kernel as a waitable child running ``body``.  Like fork, except
        the clone's pipes are *duplicated* (buffered bytes and all)
        rather than shared, and non-pipe fds are dropped by v1 policy.
        A gated checkpoint (threads, shm) or an injected restore abort
        degrades to an err event — the kernel rolls back to exactly the
        pre-op state."""
        from repro.snapshot import checkpoint, restore

        count = p.fork_counts.get(body, 0) + 1
        p.fork_counts[body] = count
        ref = f"{body}{count}"
        try:
            blob = checkpoint(self.os_, p.ctx.proc)
            clone_proc = restore(self.os_, blob,
                                 name=f"{p.ctx.proc.name}-snap",
                                 parent=p.ctx.proc)
        except KernelError as exc:
            self._emit(p, "err", "snapshot", exc.errno_name)
            return True
        clone_ctx = GuestContext(self.os_, clone_proc)
        delta = clone_proc.region_base - p.ctx.proc.region_base
        clone = _Proc(f"{p.label}/{ref}", clone_ctx,
                      self.scenario.bodies[body], len(self.procs),
                      p.ctx.proc.pid)
        clone.fdmap = dict(p.fdmap)  # fd numbers survive restore
        clone.heap = {var: cap.rebased(delta)
                      for var, cap in p.heap.items()}
        clone.sigcounts = dict(p.sigcounts)
        self.procs.append(clone)
        self.by_pid[clone_proc.pid] = clone
        self.events[clone.label] = []
        p.children[ref] = clone_proc.pid
        return True

    def _op_exit(self, p: _Proc, raw_status: int) -> bool:
        try:
            p.ctx.syscall("exit", raw_status)
        except NoSuchProcess:
            pass
        if p.label == "main":
            self.status["main"] = ["exit", raw_status]
        p.done = True
        return True

    def _op_wait(self, p: _Proc, ref: Optional[str]) -> bool:
        if ref is None:
            pid = -1
        else:
            pid = p.children.get(ref)
            if pid is None:
                raise ConformError(f"{self.scenario.name}/{p.label}: "
                                   f"wait on unknown child {ref!r}")
        try:
            _cpid, raw = p.ctx.syscall("waitpid", pid)
        except WouldBlock:
            p.blocked = True
            return False
        except NoChildProcess:
            self._emit(p, "err", "wait", "ECHILD")
            return True
        pair = status_pair(raw)
        self._emit(p, "wait", ref or "any", pair[0], pair[1])
        return True

    def _op_heap_set(self, p: _Proc, var: str, value: int) -> bool:
        cap = p.heap.get(var)
        if cap is None:
            cap = p.ctx.malloc(16)
            p.heap[var] = cap
        p.ctx.store_u64(cap, value)
        return True

    def _op_heap_get(self, p: _Proc, var: str) -> bool:
        cap = p.heap.get(var)
        if cap is None:
            raise ConformError(f"{self.scenario.name}/{p.label}: "
                               f"heap_get of unset var {var!r}")
        self._emit(p, "heap", var, p.ctx.load_u64(cap))
        return True

    def _shm_offset(self, var: str) -> int:
        return self.scenario.shm_vars.index(var) * 8

    def _op_shm_set(self, p: _Proc, var: str, value: int) -> bool:
        p.ctx.store_u64(p.shm_cap, value, self._shm_offset(var))
        return True

    def _op_shm_get(self, p: _Proc, var: str) -> bool:
        value = p.ctx.load_u64(p.shm_cap, self._shm_offset(var))
        self._emit(p, "shm", var, value)
        return True

    def _op_signal(self, p: _Proc, sig: str, action: str) -> bool:
        num = SIG_NUMS[sig]
        if action == "ignore":
            handler: Any = _signals.SIG_IGN
        elif action == "default":
            handler = _signals.SIG_DFL
        else:  # count
            def handler(proc, signum, _name=sig):
                state = self.by_pid.get(proc.pid)
                if state is not None:
                    state.sigcounts[_name] = \
                        state.sigcounts.get(_name, 0) + 1
        p.ctx.syscall("signal", num, handler)
        return True

    def _op_kill(self, p: _Proc, target: str, sig: str) -> bool:
        if target == "self":
            pid = p.ctx.proc.pid
        elif target == "parent":
            if p.parent_pid is None:
                raise ConformError(f"{self.scenario.name}: main has "
                                   f"no parent to kill")
            pid = p.parent_pid
        else:
            pid = p.children.get(target)
            if pid is None:
                raise ConformError(f"{self.scenario.name}/{p.label}: "
                                   f"kill of unknown child {target!r}")
        try:
            p.ctx.syscall("kill", pid, SIG_NUMS[sig])
        except NoSuchProcess:
            self._emit(p, "err", "kill", "ESRCH")
            return True
        except KernelError as exc:
            self._emit(p, "err", "kill", exc.errno_name)
            return True
        if not p.ctx.proc.alive:
            # SIGKILL terminates on send, before any boundary
            self._finalize_dead(p)
            return True
        # a self-directed signal acts before anything else we would do
        # (on the host it is delivered synchronously)
        return self._deliver_boundary(p) or True

    def _op_sig_count(self, p: _Proc, sig: str) -> bool:
        if not self._deliver_boundary(p):
            return True
        self._emit(p, "sig_count", sig, p.sigcounts.get(sig, 0))
        return True

    def _op_probe(self, p: _Proc, what: str) -> bool:
        """Attempt a capability attack from inside the scenario process
        and record the fault class that stopped it.  The event is a
        pure function of the capability machinery — no schedule, CPU
        count or strategy dependence — so probes can sit anywhere in a
        schedule-invariant scenario and the explorer's cross-schedule
        trace equality doubles as an isolation proof."""
        buf = p.ctx.malloc(32)
        try:
            if what == "oob":
                p.ctx.load(buf.add(buf.length), 8)
            else:  # "tag": rebuild a cap from raw bytes, then deref it
                p.ctx.store_cap(buf, buf.add(8), offset=0)
                p.ctx.store(buf, p.ctx.load(buf, 16, offset=0), offset=16)
                p.ctx.load(p.ctx.load_cap(buf, offset=16), 8)
        except Exception as exc:  # noqa: BLE001 - the class is the event
            self._emit(p, "probe", what, type(exc).__name__)
        else:
            self._emit(p, "probe", what, "unstopped")
        finally:
            p.ctx.free(buf)
        return True


def run_sim(scenario: Scenario, strategy: str, num_cpus: int = 1,
            seed: int = 0,
            decision: Optional[Callable[[int, List[Tuple[str, Any]]],
                                        int]] = None,
            on_step: Optional[Callable[[Any, SimRun], None]] = None
            ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Boot, run, and summarize one (scenario, strategy, cpus) cell.

    Returns ``(trace, meta)``: the logical trace (host-comparable) and
    run metadata — syscall counts from the boundary tap, the number of
    decision points, and the per-point candidate sets the explorer
    needs for its frontier.
    """
    machine, os_, _ctx = boot(strategy, seed=seed, cpus=num_cpus)
    interp = SimRun(os_, scenario, decision=decision, on_step=on_step)
    trace = interp.run()
    meta = {
        "syscalls": dict(sorted(interp.syscalls.items())),
        "decision_points": len(interp.points),
        "points": interp.points,
        "os": os_,
        "machine": machine,
    }
    return trace, meta
