"""The guest heap allocator (tinyalloc-style, §4.1/§4.2).

The allocator's *entire* state lives in simulated guest memory — a
header plus an array of block records at the base of the μprocess's
static heap — and every block record holds a tagged **capability** to
its block.  This matters for μFork in two ways:

* the metadata pages are exactly the "memory-allocator metadata" the
  paper proactively copies and relocates during fork (§3.5 step 1);
* after a fork, the child's allocator re-attaches by reading those
  (relocated) records back from memory, so allocator correctness in the
  child is a direct test of relocation correctness.

Per CHERI requirements the allocator is 16-byte aligned throughout and
returns capabilities *bounded to the allocation* (§4.1).
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Optional

from repro.cheri.capability import Capability, Perm
from repro.errors import InvalidArgument, OutOfMemory

#: header: magic, record_count, fresh_offset, free_head (4 x u64)
HEADER_SIZE = 32
_HEADER = struct.Struct("<QQQQ")
_MAGIC = 0x75464F524B414C4C  # "uFORKALL"

#: record: capability granule (16B) + size u64 + used u32 + next u32
ALLOC_RECORD_SIZE = 32
_RECORD_TAIL = struct.Struct("<QII")

ALIGN = 16


class GuestAllocator:
    """A first-fit free-list allocator over a static in-memory heap.

    ``space`` is the address space the heap lives in; accesses are
    unprivileged (the allocator is user code).  ``heap_cap`` is the
    capability covering the heap segment, from which block capabilities
    are derived monotonically.
    """

    def __init__(self, machine: Any, space: Any, heap_cap: Capability,
                 max_blocks: Optional[int] = None) -> None:
        self.machine = machine
        self.space = space
        self.heap_cap = heap_cap
        self.heap_base = heap_cap.base
        self.heap_size = heap_cap.length
        if max_blocks is None:
            heap_pages = self.heap_size // machine.config.page_size
            max_blocks = max(256, min(16384, heap_pages * 2))
        self.max_blocks = max_blocks
        self.metadata_size = self._align_page(
            HEADER_SIZE + max_blocks * ALLOC_RECORD_SIZE
        )
        if self.metadata_size >= self.heap_size:
            raise InvalidArgument("heap too small for allocator metadata")
        self.data_base = self.heap_base + self.metadata_size
        self.data_size = self.heap_size - self.metadata_size
        #: python-side cache: block base address -> record index.  Pure
        #: cache — rebuilt from guest memory by :meth:`attach`.
        self._index: Dict[int, int] = {}
        self._needs_attach = False

    # -- formatting / attaching ------------------------------------------------

    def format(self) -> None:
        """Initialize a fresh heap (program load time)."""
        self._write_header(record_count=0, fresh_offset=0, free_head=0)
        self._index.clear()
        self._needs_attach = False

    def attach(self) -> None:
        """Re-attach to an existing heap, e.g. in a forked child.

        Rebuilds the address index by reading every record back from
        (possibly relocated) guest memory.
        """
        magic, count, _fresh, _free = self._read_header()
        if magic != _MAGIC:
            raise InvalidArgument("heap is not formatted")
        self._index.clear()
        for record in range(count):
            cap, _size, used, _next_free = self._read_record(record)
            if used and cap.valid:
                self._index[cap.base] = record
        self._needs_attach = False

    def attach_lazy(self) -> None:
        """Defer :meth:`attach` until the allocator is first used (the
        real child never scans its records at fork — the state is
        already in its memory; only this simulator cache needs it)."""
        self._needs_attach = True

    def _ensure_attached(self) -> None:
        if self._needs_attach:
            self.attach()

    # -- allocation -------------------------------------------------------------

    def malloc(self, size: int) -> Capability:
        """Allocate ``size`` bytes; returns a capability bounded to them."""
        if size <= 0:
            raise InvalidArgument(f"malloc({size})")
        self._ensure_attached()
        self.machine.charge(self.machine.costs.malloc_ns, "malloc")
        size = self._align(size)
        magic, count, fresh, free_head = self._read_header()
        if magic != _MAGIC:
            raise InvalidArgument("heap is not formatted")

        # first fit over the free list
        prev = 0
        node = free_head
        while node:
            record = node - 1
            cap, block_size, used, next_free = self._read_record(record)
            if not used and block_size >= size:
                self._unlink_free(prev, record, next_free, free_head)
                self._write_record(record, cap, block_size, used=1,
                                   next_free=0)
                self._index[cap.base] = record
                return self._user_cap(cap.base, block_size)
            prev = node
            node = next_free

        # fresh allocation from the bump area
        if fresh + size > self.data_size:
            raise OutOfMemory(
                f"guest heap exhausted ({self.data_size - fresh} free, "
                f"need {size})"
            )
        if count >= self.max_blocks:
            raise OutOfMemory("allocator record table full")
        block_base = self.data_base + fresh
        block_cap = self._block_cap(block_base, size)
        self._write_record(count, block_cap, size, used=1, next_free=0)
        self._write_header(record_count=count + 1, fresh_offset=fresh + size,
                           free_head=free_head)
        self._index[block_base] = count
        return self._user_cap(block_base, size)

    def free(self, cap_or_addr) -> None:
        """Release an allocation (by capability or base address)."""
        self._ensure_attached()
        self.machine.charge(self.machine.costs.free_ns, "free")
        addr = cap_or_addr.base if isinstance(cap_or_addr, Capability) \
            else cap_or_addr
        record = self._index.get(addr)
        if record is None:
            record = self._find_record(addr)
        if record is None:
            raise InvalidArgument(f"free of unknown block {addr:#x}")
        cap, size, used, _next = self._read_record(record)
        if not used:
            raise InvalidArgument(f"double free of {addr:#x}")
        magic, count, fresh, free_head = self._read_header()
        self._write_record(record, cap, size, used=0, next_free=free_head)
        self._write_header(record_count=count, fresh_offset=fresh,
                           free_head=record + 1)
        self._index.pop(addr, None)

    # -- introspection -----------------------------------------------------------

    def used_bytes(self) -> int:
        self._ensure_attached()
        _magic, count, _fresh, _free = self._read_header()
        total = 0
        for record in range(count):
            _cap, size, used, _next = self._read_record(record)
            if used:
                total += size
        return total

    def block_count(self) -> int:
        self._ensure_attached()
        return len(self._index)

    def live_blocks(self) -> List[Capability]:
        """Capabilities of all live blocks (re-read from guest memory)."""
        self._ensure_attached()
        _magic, count, _fresh, _free = self._read_header()
        blocks = []
        for record in range(count):
            cap, size, used, _next = self._read_record(record)
            if used:
                blocks.append(self._user_cap(cap.base, size))
        return blocks

    def metadata_span(self):
        """(base, top) of the metadata area — the pages μFork must
        eagerly copy at fork."""
        return self.heap_base, self.heap_base + self.metadata_size

    # -- record I/O (all through simulated memory) ---------------------------------

    def _record_addr(self, record: int) -> int:
        return self.heap_base + HEADER_SIZE + record * ALLOC_RECORD_SIZE

    def _read_header(self):
        raw = self.space.read(self.heap_base, HEADER_SIZE, charge=False)
        return _HEADER.unpack(raw)

    def _write_header(self, record_count: int, fresh_offset: int,
                      free_head: int) -> None:
        self.space.write(
            self.heap_base,
            _HEADER.pack(_MAGIC, record_count, fresh_offset, free_head),
            charge=False,
        )

    def _read_record(self, record: int):
        addr = self._record_addr(record)
        cap = self.space.load_cap(addr)
        raw = self.space.read(addr + 16, 16, charge=False)
        size, used, next_free = _RECORD_TAIL.unpack(raw)
        return cap, size, used, next_free

    def _write_record(self, record: int, cap: Capability, size: int,
                      used: int, next_free: int) -> None:
        addr = self._record_addr(record)
        self.space.write(addr + 16, _RECORD_TAIL.pack(size, used, next_free),
                         charge=False)
        # store the capability last: the byte write above must not clear it
        self.space.store_cap(addr, cap)

    def _unlink_free(self, prev_node: int, record: int, next_free: int,
                     free_head: int) -> None:
        if prev_node == 0:
            magic, count, fresh, _head = self._read_header()
            self._write_header(count, fresh, next_free)
        else:
            prev_record = prev_node - 1
            cap, size, used, _next = self._read_record(prev_record)
            self._write_record(prev_record, cap, size, used, next_free)

    def _find_record(self, addr: int) -> Optional[int]:
        _magic, count, _fresh, _free = self._read_header()
        for record in range(count):
            cap, _size, used, _next = self._read_record(record)
            if used and cap.base == addr:
                return record
        return None

    # -- capability derivation ------------------------------------------------------

    def _block_cap(self, base: int, size: int) -> Capability:
        return self.heap_cap.set_bounds(base, size).with_cursor(base)

    def _user_cap(self, base: int, size: int) -> Capability:
        return self._block_cap(base, size).and_perms(Perm.data_rw())

    # -- helpers -------------------------------------------------------------------

    @staticmethod
    def _align(size: int) -> int:
        return (size + ALIGN - 1) // ALIGN * ALIGN

    def _align_page(self, size: int) -> int:
        page = self.machine.config.page_size
        return (size + page - 1) // page * page
