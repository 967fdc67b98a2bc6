"""Virtual-address area reservation for μprocesses.

The single address space dedicates one large window to μprocesses; each
fork reserves a fresh contiguous area inside it (paper §3.5 step 1).
The allocator is a first-fit extent allocator with optional ASLR
(randomizing each μprocess's base offset, §3.7).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import OutOfVirtualSpace


@dataclass
class _Extent:
    base: int
    size: int

    @property
    def top(self) -> int:
        return self.base + self.size


class VirtualAreaAllocator:
    """First-fit contiguous VA reservation with optional ASLR."""

    def __init__(self, base: int, size: int, page_size: int,
                 aslr_rng: Optional[random.Random] = None) -> None:
        if base % page_size or size % page_size:
            raise ValueError("window must be page aligned")
        self.window_base = base
        self.window_size = size
        self.page_size = page_size
        self._aslr_rng = aslr_rng
        self._free: List[_Extent] = [_Extent(base, size)]
        self._reserved: Dict[int, int] = {}  # base -> size

    # -- reservation -------------------------------------------------------

    def reserve(self, size: int) -> int:
        """Reserve a page-aligned contiguous area; returns its base."""
        size = self._align(size)
        if size <= 0:
            raise ValueError("reservation must be positive")
        index = self._find_fit(size)
        if index is None:
            raise OutOfVirtualSpace(
                f"no contiguous {size:#x}-byte area (largest free: "
                f"{max((e.size for e in self._free), default=0):#x})"
            )
        extent = self._free[index]
        offset = 0
        if self._aslr_rng is not None and extent.size > size:
            slack_pages = (extent.size - size) // self.page_size
            offset = self._aslr_rng.randrange(slack_pages + 1) * self.page_size
        base = extent.base + offset
        self._carve(index, base, size)
        self._reserved[base] = size
        return base

    def release(self, base: int) -> None:
        size = self._reserved.pop(base, None)
        if size is None:
            raise KeyError(f"area {base:#x} is not reserved")
        self._insert_free(_Extent(base, size))

    # -- introspection -----------------------------------------------------

    def reserved_areas(self) -> List[Tuple[int, int]]:
        return sorted(self._reserved.items())

    def total_free(self) -> int:
        return sum(extent.size for extent in self._free)

    # -- internals -----------------------------------------------------------

    def _align(self, size: int) -> int:
        return (size + self.page_size - 1) // self.page_size * self.page_size

    def _find_fit(self, size: int) -> Optional[int]:
        for index, extent in enumerate(self._free):
            if extent.size >= size:
                return index
        return None

    def _carve(self, index: int, base: int, size: int) -> None:
        extent = self._free.pop(index)
        before = _Extent(extent.base, base - extent.base)
        after = _Extent(base + size, extent.top - (base + size))
        for piece in (after, before):
            if piece.size > 0:
                self._free.insert(index, piece)

    def _insert_free(self, extent: _Extent) -> None:
        # keep the list sorted and coalesce neighbours
        self._free.append(extent)
        self._free.sort(key=lambda e: e.base)
        merged: List[_Extent] = []
        for piece in self._free:
            if merged and merged[-1].top == piece.base:
                merged[-1].size += piece.size
            else:
                merged.append(piece)
        self._free = merged
