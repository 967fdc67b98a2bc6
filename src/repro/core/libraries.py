"""Shared libraries for μprocesses (paper §3.7).

"Shared libraries can be supported by mapping those libraries in each
μprocess when mapping a binary and creating capabilities with the
proper permissions."  A :class:`SharedLibrary` owns one set of physical
frames (text + read-only data); every μprocess that links it maps those
*same frames* — at its own virtual address inside its region — with a
read/execute capability derived for it.

Because library pages are immutable and shared by design, fork treats
them like MAP_SHARED memory: the child maps the same frames, and no
relocation scan ever rewrites them.  PIC code references library
globals through the process's own GOT, which *is* relocated.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List

from repro import events
from repro.cheri.capability import Capability, Perm
from repro.hw.paging import PagePerm

_PAGE_MARK = struct.Struct("<QQ")
_LIB_MAGIC = 0x71AB


class SharedLibrary:
    """One library: a name and its (machine-wide) frames."""

    def __init__(self, machine: Any, name: str, size: int) -> None:
        page = machine.config.page_size
        self.machine = machine
        self.name = name
        self.pages = max(1, (size + page - 1) // page)
        self.frames: List[int] = machine.phys.alloc_run(self.pages)
        for index, frame_no in enumerate(self.frames):
            frame = machine.phys.frame(frame_no)
            # deterministic, recognizable text content per page
            frame.write(0, _PAGE_MARK.pack(_LIB_MAGIC, index))
            frame.write(16, name.encode())

    @property
    def size(self) -> int:
        return self.pages * self.machine.config.page_size


class LibraryRegistry:
    """name → :class:`SharedLibrary`, one per OS instance."""

    DEFAULT_LIB_SIZE = 64 * 1024

    def __init__(self, machine: Any) -> None:
        self.machine = machine
        self._libs: Dict[str, SharedLibrary] = {}

    def get_or_create(self, name: str,
                      size: int = DEFAULT_LIB_SIZE) -> SharedLibrary:
        lib = self._libs.get(name)
        if lib is None:
            lib = SharedLibrary(self.machine, name, size)
            self._libs[name] = lib
        return lib

    def __contains__(self, name: str) -> bool:
        return name in self._libs


def map_library(os: Any, proc: Any, lib: SharedLibrary) -> Capability:
    """Map a library's frames into a μprocess's mmap window.

    Returns a read/execute capability bounded to the mapping.  The
    mapped vpns join the process's shared set, so fork shares them
    rather than copy-and-relocate.
    """
    base = os._map_window(proc, lib.frames, PagePerm.rx())
    cap = (
        os.kernel_root
        .set_bounds(base, lib.size)
        .with_cursor(base)
        .and_perms(Perm.LOAD | Perm.EXECUTE | Perm.GLOBAL)
    )
    if not hasattr(proc, "lib_caps"):
        proc.lib_caps = {}
    proc.lib_caps[lib.name] = cap
    os.machine.emit(events.LIBRARY_MAPPED)
    return cap
