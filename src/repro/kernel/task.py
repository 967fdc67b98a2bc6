"""Tasks, μprocesses and PIDs.

In μFork "each thread is associated with a μprocess ID; each μprocess
may have many threads" (§3.4, block 1).  A :class:`Task` is one thread
of execution with its own capability register file; a :class:`Process`
is the kernel-side process object (task group, memory region, FD table,
wait/exit state) shared by the SASOS and — with a per-process address
space attached — by the monolithic baseline.
"""

from __future__ import annotations

import weakref
from enum import Enum, auto
from typing import Any, Dict, FrozenSet, List, Optional, Set

from repro.cheri.regfile import RegisterFile
from repro.errors import NoSuchProcess


class TaskState(Enum):
    RUNNABLE = auto()
    BLOCKED = auto()
    EXITED = auto()


class Task:
    """One thread of execution.

    ``__slots__`` keeps the per-task footprint flat and attribute loads
    cheap — the scheduler touches ``state``/``affinity``/``last_cpu`` on
    every pick, so tasks are the hottest objects in the simulation.
    """

    __slots__ = ("tid", "_process", "registers", "state", "affinity",
                 "last_cpu")

    _next_tid = 1

    def __init__(self, process: "Process") -> None:
        self.tid = Task._next_tid
        Task._next_tid += 1
        # weak: the process owns its tasks (``Process.tasks``)
        self._process = weakref.ref(process)
        self.registers = RegisterFile()
        self.state = TaskState.RUNNABLE
        #: CPU-affinity mask (``None`` = may run on any online CPU)
        self.affinity: Optional[FrozenSet[int]] = None
        #: last CPU this task was dispatched on — feeds the μprocess
        #: CPU-footprint that bounds fork-time TLB shootdowns (§2.2)
        self.last_cpu: int = 0

    @property
    def process(self) -> Optional["Process"]:
        """The process this thread belongs to (``None`` once it is
        freed: a task outliving its process is already dead)."""
        return self._process()

    def can_run_on(self, cpu: int) -> bool:
        return self.affinity is None or cpu in self.affinity

    def pin(self, *cpus: int) -> None:
        """Restrict this task to the given CPUs (sched_setaffinity)."""
        if not cpus:
            raise ValueError("affinity mask cannot be empty")
        self.affinity = frozenset(cpus)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        process = self.process
        pid = None if process is None else process.pid
        return f"Task(tid={self.tid}, pid={pid}, {self.state.name})"


class Process:
    """Kernel-side process object (a μprocess on the SASOS).

    The attributes every kernel touches live in ``__slots__``; the
    trailing ``__dict__`` slot keeps the object open for the subsystem
    attachments that hang extra state off a process at runtime (shm
    bindings, dynamic-library capabilities, …).
    """

    __slots__ = ("pid", "name", "_parent", "children", "tasks",
                 "exit_status", "reaped", "region_base", "region_top",
                 "layout", "allocator", "space", "fdtable",
                 "syscall_gate", "signal_state", "audit_cache",
                 "shares_pending", "__dict__", "__weakref__")

    def __init__(self, pid: int, name: str,
                 parent: Optional["Process"] = None) -> None:
        self.pid = pid
        self.name = name
        self.parent = parent
        #: the unreaped children, owned: a child holds its parent weakly
        self.children: List[Process] = []
        if parent is not None:
            parent.children.append(self)
        self.tasks: List[Task] = []
        #: exit status once exited; ``None`` while alive
        self.exit_status: Optional[int] = None
        self.reaped = False
        # Memory attachments, filled in by the owning OS:
        #: contiguous region (SASOS) — (base, top)
        self.region_base: int = 0
        self.region_top: int = 0
        #: resolved segment layout
        self.layout: Any = None
        #: per-process guest heap allocator
        self.allocator: Any = None
        #: per-process address space (monolithic baseline only)
        self.space: Any = None
        #: per-process file descriptor table
        self.fdtable: Any = None
        #: sealed syscall-entry capability handed out at load (SASOS)
        self.syscall_gate: Any = None
        #: :class:`repro.kernel.signals.SignalState`, made on first use
        self.signal_state: Any = None
        #: what the capability-flow audit saw of this process last time
        #: (:mod:`repro.sec.auditor`); dies with the process
        self.audit_cache: Any = None
        #: whether the region may still hold child-role fork-sharing
        #: notes: set by a μFork fork, cleared once the process's next
        #: fork has swept them (:func:`repro.core.strategies.
        #: resolve_all_pending`); a spawned process never holds any
        self.shares_pending = False

    # -- the process tree ------------------------------------------------

    @property
    def parent(self) -> Optional["Process"]:
        """The parent process, ``None`` for a root.  Held weakly while
        the parent lists this process among its ``children``; once the
        parent is reaped (:meth:`ProcessTable.remove`) the orphan holds
        it strongly, so it still has a parent that is not alive."""
        link = self._parent
        return link() if type(link) is weakref.ref else link

    @parent.setter
    def parent(self, parent: Optional["Process"]) -> None:
        self._parent = None if parent is None else weakref.ref(parent)

    def orphan_children(self) -> None:
        """This process was reaped: its unreaped children become
        orphans that keep it as their (dead) parent."""
        for child in self.children:
            child._parent = self
        self.children = []

    # -- threads --------------------------------------------------------

    def main_task(self) -> Task:
        if not self.tasks:
            raise NoSuchProcess(f"process {self.pid} has no tasks")
        return self.tasks[0]

    def add_task(self) -> Task:
        task = Task(self)
        self.tasks.append(task)
        return task

    @property
    def registers(self) -> RegisterFile:
        return self.main_task().registers

    def cpu_footprint(self) -> Set[int]:
        """CPUs that may hold TLB state for this process's pages: the
        set of CPUs its threads last ran on.  μFork consults this at
        fork so the shootdown broadcast covers only the μprocess's
        actual footprint instead of every online CPU (§2.2)."""
        return {task.last_cpu for task in self.tasks}

    # -- lifecycle -------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.exit_status is None

    @property
    def region_size(self) -> int:
        return self.region_top - self.region_base

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "alive" if self.alive else f"exited({self.exit_status})"
        return f"Process(pid={self.pid}, {self.name!r}, {status})"


class PidAllocator:
    """Monotonically increasing PID allocation.

    The PID is "stored in a memory location which cannot be modified by
    any μprocess" (§3.5); here the kernel-private Python object plays
    that role — user code never gets a writable capability to it.
    """

    def __init__(self, first_pid: int = 1) -> None:
        self._next = first_pid

    def allocate(self) -> int:
        pid = self._next
        self._next += 1
        return pid


class ProcessTable:
    """pid → process map with lookup helpers."""

    def __init__(self) -> None:
        self._procs: Dict[int, Process] = {}

    def add(self, proc: Process) -> None:
        self._procs[proc.pid] = proc

    def get(self, pid: int) -> Process:
        proc = self._procs.get(pid)
        if proc is None:
            raise NoSuchProcess(f"no process with pid {pid}")
        return proc

    def remove(self, pid: int) -> None:
        """Drop a reaped process (its children become orphans)."""
        proc = self._procs.pop(pid, None)
        if proc is not None:
            proc.orphan_children()

    def alive(self) -> List[Process]:
        return [p for p in self._procs.values() if p.alive]

    def all(self) -> List[Process]:
        return list(self._procs.values())

    def __len__(self) -> int:
        return len(self._procs)

    def __contains__(self, pid: int) -> bool:
        return pid in self._procs
