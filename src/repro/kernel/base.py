"""The OS interface and the shared POSIX syscall surface.

Both the μFork SASOS and the monolithic baseline expose the same
syscall set to guest code (open/read/write, pipes, sockets, fork/wait,
shared memory, ...), so applications in :mod:`repro.apps` run unmodified
on either — the transparency requirement (R2).  What differs per OS is
the *mechanism*: entry cost (sealed sentry vs trap), fork implementation,
memory layout, and isolation charges.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import events
from repro.chaos.recovery import retry_syscall
from repro.cheri.capability import Capability, Perm
from repro.core.relocate import _charge_each, record_flow
from repro.errors import (
    InvalidArgument,
    NoChildProcess,
    NoSuchProcess,
    OutOfMemory,
    WouldBlock,
)
from repro.hw.paging import AddressSpace, PagePerm
from repro.kernel import signals as _signals
from repro.kernel.fdtable import FDTable, FileDescription
from repro.kernel.ipc import MessageQueue, Pipe
from repro.kernel.net import NetworkStack
from repro.kernel.syscalls import EntryPlan, IsolationConfig, SyscallLayer
from repro.kernel.task import PidAllocator, Process, ProcessTable, TaskState
from repro.kernel.vfs import O_RDONLY, RamDisk
from repro.machine import Machine
from repro.mem.allocator import GuestAllocator
from repro.smp.sched import SmpScheduler


class SharedMemoryObject:
    """A named shared-memory object (``shm_open`` §3.7)."""

    def __init__(self, name: str, frames: List[int]) -> None:
        self.name = name
        self.frames = frames

    @property
    def size_pages(self) -> int:
        return len(self.frames)


class AbstractOS(abc.ABC):
    """Common OS plumbing + the POSIX syscall handlers."""

    #: short identifier used in reports ("ufork", "cheribsd", "nephele")
    kind: str = "abstract"
    #: kernel-side bytes per process (task struct, kernel stack, fd
    #: table, ...) counted by the memory metric
    KERNEL_PROC_OVERHEAD = 0
    #: sealed syscall-entry sentry handed to every process; ``None`` on
    #: the kernels entered by trap
    syscall_gate: Optional[Capability] = None

    def __init__(self, machine: Optional[Machine] = None,
                 trapless_syscalls: bool = True,
                 isolation: Optional[IsolationConfig] = None,
                 same_address_space: bool = True) -> None:
        self.machine = machine or Machine()
        self.isolation = isolation or IsolationConfig.full()
        self.syscalls = SyscallLayer(self.machine, trapless_syscalls,
                                     self.isolation)
        self.ramdisk = RamDisk(self.machine)
        self.net = NetworkStack(self.machine)
        self.pids = PidAllocator()
        self.procs = ProcessTable()
        self.sched = SmpScheduler(self.machine, same_address_space)
        self._mqueues: Dict[str, MessageQueue] = {}
        self._shm: Dict[str, SharedMemoryObject] = {}
        #: the root every process's authority is derived from
        self.kernel_root = Capability.root(self.machine.config.va_size)
        self.machine.register_kernel(self)

    # ------------------------------------------------------------------
    # OS-specific operations
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def spawn(self, image: Any, name: str) -> Process:
        """Load a fresh program as a new process."""

    @abc.abstractmethod
    def fork(self, proc: Process) -> Process:
        """POSIX fork of ``proc``; returns the child process."""

    @abc.abstractmethod
    def space_of(self, proc: Process) -> AddressSpace:
        """The address space ``proc``'s memory lives in."""

    @abc.abstractmethod
    def _teardown_memory(self, proc: Process) -> None:
        """Release a process's memory at exit."""

    def memory_of(self, proc: Process) -> float:
        """Memory consumed by ``proc`` (bytes; the Fig 5/8 metric): the
        proportional resident set of its region plus the kernel's
        per-process overhead."""
        return (
            self.space_of(proc).resident_bytes(
                proc.region_base, proc.region_top, proportional=True)
            + self.KERNEL_PROC_OVERHEAD
        )

    def private_bytes(self, proc: Process) -> int:
        """Bytes of the region backed by frames only this process maps."""
        page = self.machine.config.page_size
        frames = self.space_of(proc).mapped_columns(
            proc.region_base // page, proc.region_top // page)[1]
        return page * self.machine.phys.refcounts(frames).count(1)

    # ------------------------------------------------------------------
    # Syscall dispatch
    # ------------------------------------------------------------------

    def syscall(self, proc: Process, name: str, *args: Any,
                gate: Optional[Capability] = None) -> Any:
        """Invoke a syscall on behalf of ``proc``.

        Subclasses may override to enforce their entry mechanism (the
        SASOS checks the sealed gate); the shared implementation only
        dispatches, through the name's :class:`EntryPlan` (built on
        first use; unknown names are never planned — the fuzzer sends
        garbage and a poisoned entry would shadow a handler added to a
        subclass).

        With obs and chaos off, no ``syscall_tap`` and no signal
        pending, the handler is called directly; otherwise as follows.

        Observability: while obs is enabled each invocation runs inside
        a ``syscall.<name>`` span, so per-syscall latency lands in the
        ``span.syscall.<name>`` histogram and every cost charged by the
        handler (fork phases included) nests under it in the span tree.

        Chaos: with an engine attached, the ``kernel.sched.preempt``
        point may force a context switch at this kernel boundary, and
        the handler runs under the bounded retry loop — injected entry
        faults (EINTR/ENOMEM/EAGAIN) and rolled-back fork failures are
        retried with backoff instead of surfacing to the caller.
        """
        plan = self.syscalls.plans.get(name)
        if plan is None:
            handler = getattr(type(self), f"sys_{name}", None)
            if handler is None:
                raise InvalidArgument(f"unknown syscall {name!r}")
            plan = self.syscalls.plans[name] = EntryPlan(handler, name)
        if not proc.alive:
            raise NoSuchProcess(f"process {proc.pid} has exited")
        handler = plan.handler
        machine = self.machine
        signals = proc.signal_state
        if not (machine.obs.enabled or machine.chaos.enabled
                or machine.syscall_tap is not None
                or (signals is not None and signals.pending)):
            return handler(self, proc, *args)
        with machine.obs.span(plan.span_label):
            # kernel-boundary crossing: deliver pending signals first
            _signals.deliver_pending(self, proc)
            if not proc.alive:
                raise NoSuchProcess(f"process {proc.pid} was terminated")
            chaos = machine.chaos
            tap = machine.syscall_tap
            try:
                if chaos.enabled:
                    if chaos.should_fire("kernel.sched.preempt"):
                        self.sched.yield_current()
                    result = retry_syscall(
                        machine, lambda: handler(self, proc, *args))
                else:
                    result = handler(self, proc, *args)
            except Exception as exc:
                if tap is not None:
                    tap(self, proc, name, args, None, exc)
                raise
            if tap is not None:
                tap(self, proc, name, args, result, None)
            return result

    # -- user-buffer plumbing ------------------------------------------------

    def _read_user(self, proc: Process, cap: Capability, size: int) -> bytes:
        """Copy bytes out of a user buffer (validated, unprivileged so
        copy strategies see the access)."""
        self.syscalls.validate_user_cap(proc, cap, size)
        cap.check_access(Perm.LOAD, size=size)
        return self.space_of(proc).read(cap.cursor, size)

    def _write_user(self, proc: Process, cap: Capability,
                    data: bytes) -> None:
        """Copy bytes into a user buffer (triggers CoW/CoA/CoPA breaks
        exactly as a user-mode store would)."""
        self.syscalls.validate_user_cap(proc, cap, len(data))
        cap.check_access(Perm.STORE, size=len(data))
        self.space_of(proc).write(cap.cursor, data)

    # ------------------------------------------------------------------
    # POSIX file syscalls
    # ------------------------------------------------------------------

    def sys_open(self, proc: Process, path: str, flags: int = O_RDONLY) -> int:
        self.syscalls.enter("open", 2)
        handle = self.ramdisk.open(path, flags)
        desc = FileDescription(handle)
        return proc.fdtable.install(desc)

    def sys_close(self, proc: Process, fd: int) -> None:
        self.syscalls.enter("close", 1)
        proc.fdtable.close(fd)

    def sys_read(self, proc: Process, fd: int, buf: Capability,
                 size: int) -> int:
        self.syscalls.enter("read", 3, (size,))
        desc = proc.fdtable.get(fd)
        if not desc.readable:
            from repro.errors import BadFileDescriptor
            raise BadFileDescriptor(f"fd {fd} is not open for reading")
        data = desc.obj.read(desc, size)
        if data:
            self._write_user(proc, buf, data)
        return len(data)

    def sys_write(self, proc: Process, fd: int, buf: Capability,
                  size: int) -> int:
        self.syscalls.enter("write", 3, (size,))
        desc = proc.fdtable.get(fd)
        if not desc.writable:
            from repro.errors import BadFileDescriptor
            raise BadFileDescriptor(f"fd {fd} is not open for writing")
        data = self._read_user(proc, buf, size)
        return desc.obj.write(desc, data)

    def sys_lseek(self, proc: Process, fd: int, offset: int,
                  whence: int) -> int:
        self.syscalls.enter("lseek", 3)
        desc = proc.fdtable.get(fd)
        return desc.obj.seek(desc, offset, whence)

    def sys_dup(self, proc: Process, fd: int) -> int:
        self.syscalls.enter("dup", 1)
        return proc.fdtable.dup(fd)

    def sys_dup2(self, proc: Process, oldfd: int, newfd: int) -> int:
        self.syscalls.enter("dup2", 2)
        return proc.fdtable.dup2(oldfd, newfd)

    def sys_unlink(self, proc: Process, path: str) -> None:
        self.syscalls.enter("unlink", 1)
        self.ramdisk.unlink(path)

    def sys_rename(self, proc: Process, old: str, new: str) -> None:
        self.syscalls.enter("rename", 2)
        self.ramdisk.rename(old, new)

    def sys_stat(self, proc: Process, path: str) -> int:
        self.syscalls.enter("stat", 1)
        return self.ramdisk.stat_size(path)

    def sys_mkdir(self, proc: Process, path: str) -> None:
        self.syscalls.enter("mkdir", 1)
        self.ramdisk.mkdir(path)

    # ------------------------------------------------------------------
    # Pipes and message queues
    # ------------------------------------------------------------------

    def sys_pipe(self, proc: Process) -> Tuple[int, int]:
        self.syscalls.enter("pipe", 0)
        pipe = Pipe(self.machine)
        read_fd = proc.fdtable.install(
            FileDescription(pipe.read_end(), writable=False))
        write_fd = proc.fdtable.install(
            FileDescription(pipe.write_end(), readable=False))
        return read_fd, write_fd

    def sys_mq_open(self, proc: Process, name: str) -> MessageQueue:
        self.syscalls.enter("mq_open", 1)
        queue = self._mqueues.get(name)
        if queue is None:
            queue = MessageQueue(self.machine, name=name)
            self._mqueues[name] = queue
        return queue

    def sys_mq_send(self, proc: Process, queue: MessageQueue, data: bytes,
                    priority: int = 0) -> None:
        self.syscalls.enter("mq_send", 3, (len(data),))
        queue.send(data, priority)

    def sys_mq_receive(self, proc: Process, queue: MessageQueue) -> bytes:
        self.syscalls.enter("mq_receive", 1)
        return queue.receive()

    # ------------------------------------------------------------------
    # Sockets
    # ------------------------------------------------------------------

    def sys_listen(self, proc: Process, port: int, backlog: int = 128) -> int:
        self.syscalls.enter("listen", 2)
        listener = self.net.listen(port, backlog)
        return proc.fdtable.install(FileDescription(listener))

    def sys_accept(self, proc: Process, listen_fd: int) -> int:
        self.syscalls.enter("accept", 1)
        desc = proc.fdtable.get(listen_fd)
        endpoint = desc.obj.accept()
        return proc.fdtable.install(FileDescription(endpoint))

    def sys_connect(self, proc: Process, port: int) -> int:
        self.syscalls.enter("connect", 1)
        endpoint = self.net.connect(port)
        return proc.fdtable.install(FileDescription(endpoint))

    def sys_send(self, proc: Process, fd: int, buf: Capability,
                 size: int) -> int:
        self.syscalls.enter("send", 3, (size,))
        desc = proc.fdtable.get(fd)
        data = self._read_user(proc, buf, size)
        return desc.obj.send(data)

    def sys_recv(self, proc: Process, fd: int, buf: Capability,
                 size: int) -> int:
        self.syscalls.enter("recv", 3, (size,))
        desc = proc.fdtable.get(fd)
        data = desc.obj.recv(size)
        if data:
            self._write_user(proc, buf, data)
        return len(data)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------

    def sys_getpid(self, proc: Process) -> int:
        self.syscalls.enter("getpid", 0)
        return proc.pid

    def sys_fork(self, proc: Process) -> Process:
        self.syscalls.enter("fork", 0)
        return self.fork(proc)

    def sys_thread_create(self, proc: Process) -> Any:
        """Create an additional thread in the calling process (§3.4:
        "each μprocess may have many threads", all sharing its PID,
        memory region and fd table)."""
        self.syscalls.enter("thread_create", 0)
        self.machine.charge(self.machine.costs.ufork_fixed_ns * 0.2,
                            "thread_create")
        task = proc.add_task()
        # the new thread starts from the caller's register state
        task.registers.copy_from(proc.main_task().registers)
        self.sched.add(task)
        return task

    def sys_spawn(self, proc: Process, image: Any, name: str) -> Process:
        """posix_spawn / vfork+exec (U1): start a *fresh* program as a
        child — no state duplication, loaded at a free location (§2.3,
        "Modern SASOSes and fork + exec support")."""
        self.syscalls.enter("spawn", 2)
        child = self.spawn(image, name)
        child.parent = proc
        proc.children.append(child)
        return child

    def sys_exit(self, proc: Process, status: int = 0) -> None:
        self.syscalls.enter("exit", 1)
        self._exit_process(proc, status)

    def sys_waitpid(self, proc: Process, pid: int = -1) -> Tuple[int, int]:
        """Reap an exited child; (pid, status).  WouldBlock if none has
        exited yet (drivers run children to completion, so this is rare).
        A reaped child leaves ``proc.children``, so a long-lived parent
        holds only the children it has not waited for."""
        self.syscalls.enter("waitpid", 1)
        candidates = [
            child for child in proc.children
            if not child.reaped and (pid == -1 or child.pid == pid)
        ]
        if not candidates:
            raise NoChildProcess(f"process {proc.pid} has no such children")
        for child in candidates:
            if not child.alive:
                child.reaped = True
                proc.children.remove(child)
                self.procs.remove(child.pid)
                return child.pid, child.exit_status
        raise WouldBlock("no exited children yet")

    def sys_yield(self, proc: Process) -> None:
        self.syscalls.enter("yield", 0)
        self.sched.yield_current()

    # ------------------------------------------------------------------
    # Signals (paper §4.5: per-process kernel state)
    # ------------------------------------------------------------------

    def sys_kill(self, proc: Process, pid: int, signum: int) -> None:
        self.syscalls.enter("kill", 2)
        target = self.procs.get(pid)
        _signals.send(self, target, signum)

    def sys_signal(self, proc: Process, signum: int, handler) -> None:
        self.syscalls.enter("signal", 2)
        _signals.register(proc, signum, handler)

    def sys_sigpending(self, proc: Process):
        self.syscalls.enter("sigpending", 0)
        return list(_signals.signal_state(proc).pending)

    # ------------------------------------------------------------------
    # Shared memory
    # ------------------------------------------------------------------

    def sys_shm_open(self, proc: Process, name: str,
                     size: int) -> SharedMemoryObject:
        """Create-or-open a named shared memory object."""
        self.syscalls.enter("shm_open", 2)
        shm = self._shm.get(name)
        if shm is None:
            page = self.machine.config.page_size
            shm = SharedMemoryObject(
                name, self._alloc_zeroed((size + page - 1) // page))
            self._shm[name] = shm
        return shm

    def _alloc_zeroed(self, pages: int) -> List[int]:
        """``pages`` zeroed frames in one run, or none and an error, with
        the zeroing charges of allocating frame by frame."""
        machine = self.machine
        zeroed = machine.phys.alloc_budget(pages)
        if zeroed:
            _charge_each(machine, machine.costs.page_zero_ns, zeroed,
                         "page_zero")
        return machine.phys.alloc_run(pages)

    def sys_shm_map(self, proc: Process, shm: SharedMemoryObject) -> Capability:
        self.syscalls.enter("shm_map", 1)
        return self._map_shared(proc, shm)

    def _map_shared(self, proc: Process, shm: SharedMemoryObject) -> Capability:
        page = self.machine.config.page_size
        base = self._map_window(proc, shm.frames, PagePerm.rwc())
        proc.shm_bindings.append((base - proc.layout.base("mmap"), shm))
        # shared windows carry data authority only: stripping the cap
        # load/store perms makes the window a capability firewall, so a
        # process can never smuggle tagged authority to a peer through
        # shared memory (repro.sec `shm_cap_smuggle`)
        return self._data_cap(base, shm.size_pages * page) \
            .without_perms(Perm.LOAD_CAP | Perm.STORE_CAP)

    def _map_window(self, proc: Process, frames: Sequence[int],
                    perms: PagePerm) -> int:
        """Map ``frames`` (shared-memory or library frames) at the next
        free spot of ``proc``'s mmap window in one run, each taking a
        reference; returns the mapping's base.  The vpns join
        ``proc.shm_vpns``, so fork shares them rather than copying and
        relocating them."""
        page = self.machine.config.page_size
        base, pages = self._mmap_window_alloc(proc, len(frames) * page)
        vpn = base // page
        self.space_of(proc).map_run(vpn, frames, perms, incref=True)
        if not hasattr(proc, "shm_vpns"):
            proc.shm_vpns = set()
            proc.shm_bindings = []
        proc.shm_vpns.update(range(vpn, vpn + pages))
        return base

    def _mmap_window_alloc(self, proc: Process, size: int) -> Tuple[int, int]:
        """Carve ``size`` bytes (whole pages) off the free end of
        ``proc``'s mmap window; returns (base, pages)."""
        page = self.machine.config.page_size
        pages = (size + page - 1) // page
        offset = getattr(proc, "mmap_offset", 0)
        window_base, window_top = proc.layout.span("mmap")
        base = window_base + offset
        if base + pages * page > window_top:
            raise OutOfMemory("mmap window exhausted")
        proc.mmap_offset = offset + pages * page
        return base, pages

    def _data_cap(self, base: int, size: int) -> Capability:
        """Load/store authority over ``[base, base + size)``, derived from
        the kernel root: mmap windows and every process's heap."""
        return (
            self.kernel_root
            .set_bounds(base, size)
            .with_cursor(base)
            .and_perms(Perm.data_rw())
        )

    # ------------------------------------------------------------------
    # Process construction: spawn, fork and restore
    # ------------------------------------------------------------------

    def _new_process(self, name: str, layout: Any,
                     parent: Optional[Process] = None) -> Process:
        """An unpublished process under a fresh pid: ``layout`` and its
        region, an empty fd table and the kernel's syscall gate."""
        proc = Process(self.pids.allocate(), name, parent)
        proc.layout = layout
        proc.region_base = layout.region_base
        proc.region_top = layout.region_top
        proc.fdtable = FDTable()
        proc.syscall_gate = self.syscall_gate
        return proc

    def _attach_allocator(self, proc: Process, kind: Any = GuestAllocator,
                          max_blocks: Optional[int] = None) -> Any:
        """Give ``proc`` a ``kind`` allocator over its heap segment, through
        a data capability derived from the kernel root, attached lazily
        to the metadata in its memory (a spawn formats it instead)."""
        heap_base = proc.layout.base("heap")
        proc.allocator = kind(
            self.machine, self.space_of(proc),
            self._data_cap(heap_base, proc.layout.size("heap")),
            max_blocks=max_blocks,
        )
        proc.allocator.attach_lazy()
        return proc.allocator

    def _publish(self, proc: Process, event: str, src_pid: int = 0,
                 detail: str = "") -> None:
        """Make a built process live: process table, scheduler, and its
        region authority into the capability-flow log as ``event``
        derived from ``src_pid`` (0: the kernel root)."""
        self.procs.add(proc)
        self.sched.add(proc.main_task())
        record_flow(self.machine, event, src_pid, proc.pid,
                    proc.region_base, proc.region_top, detail)

    # ------------------------------------------------------------------
    # Fork plumbing
    # ------------------------------------------------------------------

    def _fork_child(self, proc: Process, delta: int = 0) -> Process:
        """The child of a fork of ``proc``: a fresh pid linked under
        ``proc``, placed like it ``delta`` bytes away (0 when the child
        keeps the parent's addresses in a space of its own), with
        copies of its fd table, signal dispositions and shared-memory
        bindings, and the kernel's gate."""
        child = self._new_process(proc.name, proc.layout, proc)
        if delta:
            child.layout = proc.layout.rebased(proc.region_base + delta)
        child.region_base = proc.region_base + delta
        child.region_top = proc.region_top + delta
        delta_pages = delta // self.machine.config.page_size
        child.shm_vpns = {vpn + delta_pages
                          for vpn in getattr(proc, "shm_vpns", ())}
        child.lib_caps = {
            name: cap.rebased(delta)
            for name, cap in getattr(proc, "lib_caps", {}).items()
        }
        child.fdtable = proc.fdtable.fork_copy(self.machine)
        child.signal_state = _signals.signal_state(proc).fork_copy()
        child.shm_bindings = list(getattr(proc, "shm_bindings", ()))
        child.mmap_offset = getattr(proc, "mmap_offset", 0)
        return child

    def _fork_allocator(self, proc: Process, child: Process) -> None:
        """Fork's ``allocator`` phase: the child's allocator, of the
        parent's type and record limit, over the child's heap."""
        with self.machine.obs.span("allocator"):
            self._attach_allocator(child, type(proc.allocator),
                                   proc.allocator.max_blocks)

    # ------------------------------------------------------------------
    # Exit plumbing
    # ------------------------------------------------------------------

    def _exit_process(self, proc: Process, status: int) -> None:
        if not proc.alive:
            return
        proc.exit_status = status
        proc.fdtable.close_all()
        for task in proc.tasks:
            task.state = TaskState.EXITED
            self.sched.remove(task)
        self._teardown_memory(proc)
        if proc.parent is not None and proc.parent.alive:
            _signals.signal_state(proc.parent).pending.append(
                _signals.SIGCHLD
            )
        self.machine.emit(events.EXIT, pid=proc.pid, status=status)
        if proc.parent is None:
            proc.reaped = True
            self.procs.remove(proc.pid)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    @property
    def clock(self):
        return self.machine.clock

    def process_count(self) -> int:
        return len(self.procs.alive())
