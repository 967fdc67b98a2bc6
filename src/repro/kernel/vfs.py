"""An in-memory (ram-disk) filesystem.

The paper's Redis experiment saves database dumps "to a ram-disk,
minimizing I/O latency" (§5.1); this module is that ram-disk.  Costs:
a fixed per-operation metadata charge plus a per-byte copy charge for
data movement.
"""

from __future__ import annotations

from typing import Any, Dict, List, Union

from repro.errors import (
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
)

O_RDONLY = 0x0
O_WRONLY = 0x1
O_RDWR = 0x2
O_CREAT = 0x40
O_TRUNC = 0x200
O_APPEND = 0x400

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2


class FileNode:
    """A regular file."""

    def __init__(self) -> None:
        self.data = bytearray()

    @property
    def size(self) -> int:
        return len(self.data)


class DirNode:
    """A directory."""

    def __init__(self) -> None:
        self.entries: Dict[str, Union[FileNode, "DirNode"]] = {}


class FileHandle:
    """Kernel object behind an open regular file fd."""

    def __init__(self, ramdisk: "RamDisk", node: FileNode, append: bool) -> None:
        self._ramdisk = ramdisk
        self.node = node
        self.append = append

    def read(self, desc: Any, size: int) -> bytes:
        self._ramdisk._charge_op()
        data = bytes(self.node.data[desc.offset:desc.offset + size])
        desc.offset += len(data)
        self._ramdisk._charge_bytes(len(data))
        return data

    def write(self, desc: Any, data: bytes) -> int:
        """Store ``data`` at the offset with one slice store, after
        zero-filling only the hole before a write past the end."""
        self._ramdisk._charge_op()
        content = self.node.data
        if self.append:
            desc.offset = len(content)
        if desc.offset > len(content):
            content += bytes(desc.offset - len(content))
        content[desc.offset:desc.offset + len(data)] = data
        desc.offset += len(data)
        self._ramdisk._charge_bytes(len(data))
        return len(data)

    def seek(self, desc: Any, offset: int, whence: int) -> int:
        if whence == SEEK_SET:
            desc.offset = offset
        elif whence == SEEK_CUR:
            desc.offset += offset
        elif whence == SEEK_END:
            desc.offset = self.node.size + offset
        else:
            raise InvalidArgument(f"bad whence {whence}")
        if desc.offset < 0:
            raise InvalidArgument("negative file offset")
        return desc.offset


class RamDisk:
    """A tiny hierarchical in-memory filesystem."""

    def __init__(self, machine: Any) -> None:
        self.machine = machine
        self.root = DirNode()

    # -- cost charging ------------------------------------------------------

    def _charge_op(self) -> None:
        self.machine.charge(self.machine.costs.ramdisk_op_ns, "ramdisk_op")

    def _charge_bytes(self, n: int) -> None:
        self.machine.charge(self.machine.costs.io_copy_ns_per_byte * n,
                            "ramdisk_io")

    # -- path resolution -------------------------------------------------------

    @staticmethod
    def _split(path: str) -> List[str]:
        parts = [part for part in path.split("/") if part]
        if not parts:
            raise InvalidArgument(f"bad path {path!r}")
        return parts

    def _walk_dir(self, parts: List[str]) -> DirNode:
        node: Union[FileNode, DirNode] = self.root
        for part in parts:
            if not isinstance(node, DirNode):
                raise NotADirectory("/".join(parts))
            child = node.entries.get(part)
            if child is None:
                raise FileNotFound("/".join(parts))
            node = child
        if not isinstance(node, DirNode):
            raise NotADirectory("/".join(parts))
        return node

    def _lookup(self, path: str) -> Union[FileNode, DirNode]:
        parts = self._split(path)
        parent = self._walk_dir(parts[:-1])
        node = parent.entries.get(parts[-1])
        if node is None:
            raise FileNotFound(path)
        return node

    # -- operations ---------------------------------------------------------------

    def open(self, path: str, flags: int = O_RDONLY) -> FileHandle:
        """Open (optionally creating/truncating); returns the kernel object."""
        self._charge_op()
        parts = self._split(path)
        parent = self._walk_dir(parts[:-1])
        node = parent.entries.get(parts[-1])
        if node is None:
            if not flags & O_CREAT:
                raise FileNotFound(path)
            node = FileNode()
            parent.entries[parts[-1]] = node
        if isinstance(node, DirNode):
            raise IsADirectory(path)
        if flags & O_TRUNC:
            node.data = bytearray()
        return FileHandle(self, node, append=bool(flags & O_APPEND))

    def mkdir(self, path: str) -> None:
        self._charge_op()
        parts = self._split(path)
        parent = self._walk_dir(parts[:-1])
        if parts[-1] in parent.entries:
            raise FileExists(path)
        parent.entries[parts[-1]] = DirNode()

    def unlink(self, path: str) -> None:
        self._charge_op()
        parts = self._split(path)
        parent = self._walk_dir(parts[:-1])
        node = parent.entries.get(parts[-1])
        if node is None:
            raise FileNotFound(path)
        if isinstance(node, DirNode):
            raise IsADirectory(path)
        del parent.entries[parts[-1]]

    def rename(self, old: str, new: str) -> None:
        self._charge_op()
        old_parts = self._split(old)
        new_parts = self._split(new)
        old_parent = self._walk_dir(old_parts[:-1])
        node = old_parent.entries.get(old_parts[-1])
        if node is None:
            raise FileNotFound(old)
        new_parent = self._walk_dir(new_parts[:-1])
        del old_parent.entries[old_parts[-1]]
        new_parent.entries[new_parts[-1]] = node

    def stat_size(self, path: str) -> int:
        self._charge_op()
        node = self._lookup(path)
        if isinstance(node, DirNode):
            raise IsADirectory(path)
        return node.size

    def exists(self, path: str) -> bool:
        try:
            self._lookup(path)
            return True
        except (FileNotFound, NotADirectory):
            return False

    def listdir(self, path: str = "/") -> List[str]:
        self._charge_op()
        if path == "/":
            return sorted(self.root.entries)
        node = self._lookup(path)
        if not isinstance(node, DirNode):
            raise NotADirectory(path)
        return sorted(node.entries)
