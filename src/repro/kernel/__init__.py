"""SASOS kernel substrate: the per-process OS state μFork needs.

Unikernels assume a single process; supporting fork means retrofitting
per-μprocess kernel state (paper §4.5): task structs and PIDs, file
descriptor tables, scheduling, and the IPC and I/O objects that POSIX
semantics require fork to duplicate.  The monolithic baseline reuses
these pieces with its own cost parameters.
"""

from repro.kernel.task import Process, Task, TaskState, PidAllocator
from repro.kernel.fdtable import FDTable, FileDescription
from repro.kernel.vfs import RamDisk, O_CREAT, O_TRUNC, O_RDONLY, O_WRONLY, O_RDWR
from repro.kernel.ipc import Pipe, MessageQueue
from repro.kernel.net import Listener, Connection
from repro.kernel.syscalls import (
    IsolationLevel,
    IsolationConfig,
    SyscallLayer,
)

__all__ = [
    "Process",
    "Task",
    "TaskState",
    "PidAllocator",
    "FDTable",
    "FileDescription",
    "RamDisk",
    "O_CREAT",
    "O_TRUNC",
    "O_RDONLY",
    "O_WRONLY",
    "O_RDWR",
    "Pipe",
    "MessageQueue",
    "Listener",
    "Connection",
    "IsolationLevel",
    "IsolationConfig",
    "SyscallLayer",
]
