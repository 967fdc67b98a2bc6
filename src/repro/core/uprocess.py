"""μprocess loading (paper §3.7, §4.2).

Loading a program creates a μprocess: a contiguous region of the single
address space is reserved, segments are mapped per the PIC/PIE layout of
Figure 1, the GOT and a handful of pointer globals are initialized (so
there are genuine absolute references for fork to relocate), the static
heap is formatted, and the task's capability registers are derived —
bounded to the region, without the SYSTEM permission.

The segment-mapping and image-initialization helpers are OS-agnostic
(they take an explicit machine/space/root) so the monolithic baseline —
also a pure-capability system, like CheriBSD — loads its processes
through the same code paths.

Loading is host work only (charge-free allocations, privileged stores)
and runs by run (docs/ARCHITECTURE.md "Vectorized engine"): each
segment's frames come from one ``PhysicalMemory.alloc_run`` and are
mapped with one ``map_run``, and the code/rodata markers, the pointer
globals and the GOT are built on the host and stored a page at a time
through ``AddressSpace.store_granules``.  Every capability is still
derived with its own ``set_bounds`` and encoded in load order.

Loading is also transactional: a spawn that fails part-way — an
injected ``hw.phys.alloc_fail``, exhausted DRAM, any error — gives back
every frame of the region, the demand-zero range and the VA
reservation before the error propagates, so the kernel is as it was
(docs/CHAOS.md, ``tests/test_spawn_rollback.py``).
"""

from __future__ import annotations

import struct
from typing import Any

from repro import events
from repro.cheri.capability import Capability, Perm
from repro.cheri.codec import CAP_SIZE
from repro.cheri.regfile import CGP, CSP, CTP, DDC, PCC
from repro.core.got import init_got, store_pointers
from repro.core.isolation import derive_uprocess_roots
from repro.core.libraries import map_library
from repro.hw.paging import AddressSpace
from repro.mem.layout import ProgramImage, SegmentMap
from repro.kernel.task import Process

#: number of pointer globals planted in the data segment at load; these
#: exercise the *lazy* relocation path (the GOT exercises the eager one)
DATA_POINTER_GLOBALS = 8


# ---------------------------------------------------------------------------
# OS-agnostic image helpers (shared with the baselines)
# ---------------------------------------------------------------------------

def map_image_segments(machine: Any, space: AddressSpace,
                       layout: SegmentMap,
                       demand_heap: bool = False) -> None:
    """Allocate frames and install PTEs for every segment (the mmap
    window stays unmapped: it is a demand area).

    With ``demand_heap`` and an image carrying ``heap_initial``, only
    that prefix of the heap is mapped; the tail is left for demand-zero
    paging (dynamic heaps, §4.2).
    """
    page = machine.config.page_size
    for spec, base, size in layout.iter_segments():
        if spec.name == "mmap":
            continue
        top = base + size
        if (demand_heap and spec.name == "heap"
                and layout.image.heap_initial is not None):
            initial = min(size, max(0, layout.image.heap_initial))
            top = base + (initial + page - 1) // page * page
        space.map_run(base // page,
                      machine.phys.alloc_run(top // page - base // page),
                      spec.page_perms)


def init_image_contents(machine: Any, space: AddressSpace,
                        layout: SegmentMap, region_cap: Capability) -> None:
    """Fill code/rodata with recognizable patterns, plant pointer
    globals, and populate the GOT."""
    _init_code_and_rodata(machine, space, layout)
    _init_data_globals(space, layout, region_cap)
    init_got(
        space, layout.base("got"), layout.image.got_entries, region_cap,
        data_base=layout.base("data"), data_size=layout.size("data"),
        rodata_base=layout.base("rodata"), rodata_size=layout.size("rodata"),
    )


def init_registers(registers: Any, layout: SegmentMap,
                   region_cap: Capability) -> None:
    """Derive the initial capability register file into ``registers``:
    every capability bounded to the region, from ``region_cap``."""
    code_base, code_top = layout.span("code")
    stack_base, stack_top = layout.span("stack")
    got_base, _got_top = layout.span("got")
    tls_base, _tls_top = layout.span("tls")
    for name, value in {
        DDC: region_cap,
        PCC: region_cap.set_bounds(code_base, code_top - code_base)
                       .with_cursor(code_base)
                       .and_perms(Perm.code()),
        CSP: region_cap.set_bounds(stack_base, stack_top - stack_base)
                       .with_cursor(stack_top - CAP_SIZE)
                       .and_perms(Perm.data_rw()),
        CGP: region_cap.set_bounds(got_base, layout.size("got"))
                       .with_cursor(got_base)
                       .and_perms(Perm.data_ro()),
        CTP: region_cap.set_bounds(tls_base, layout.size("tls"))
                       .with_cursor(tls_base)
                       .and_perms(Perm.data_rw()),
    }.items():
        registers.set(name, value)


def _init_code_and_rodata(machine: Any, space: AddressSpace,
                          layout: SegmentMap) -> None:
    """One deterministic marker per page: cheap, but copy bugs shuffle
    data visibly in tests."""
    page = machine.config.page_size
    for name in ("code", "rodata"):
        base, top = layout.span(name)
        for addr in range(base, top, page):
            marker = struct.pack(
                "<QQ", 0xC0DE if name == "code" else 0x0DA7A, addr
            )
            space.store_granules(addr, marker, b"\x00")


def _init_data_globals(space: AddressSpace, layout: SegmentMap,
                       region_cap: Capability) -> None:
    """Plant pointer globals in the data segment.

    Real programs keep pointers in static storage (e.g. ``char *head``);
    these are the absolute references μFork must find via tags when the
    child touches the page (Figure 1 ②).
    """
    rodata_base = layout.base("rodata")
    root = region_cap.and_perms(Perm.data_ro())
    targets = [rodata_base + index * 64
               for index in range(DATA_POINTER_GLOBALS)]
    store_pointers(space, layout.base("data"), [root] * len(targets),
                   targets, 64)


# ---------------------------------------------------------------------------
# SASOS loading
# ---------------------------------------------------------------------------

def load_uprocess(os: Any, image: ProgramImage, name: str) -> Process:
    """Create and map a fresh μprocess on a :class:`UForkOS`, with the
    image's shared libraries mapped into its mmap window."""
    machine = os.machine
    page = machine.config.page_size

    region_base = os.vspace.reserve(image.region_size(page))
    layout = SegmentMap(image, region_base, page)
    proc = os._new_process(name, layout)
    try:
        map_image_segments(machine, os.space, layout,
                           demand_heap=image.heap_initial is not None)
        # demand-zero paging must be live before the allocator formats
        # its metadata (which may land beyond the initially mapped
        # prefix)
        os._register_demand_heap(proc)

        region_cap = derive_uprocess_roots(
            os.kernel_root, layout.region_base, layout.region_size
        )
        init_image_contents(machine, os.space, layout, region_cap)
        os._attach_allocator(proc).format()
        for lib_name in image.shared_libs:
            map_library(os, proc, os.libraries.get_or_create(lib_name))
    except Exception:
        # nothing of the half-loaded image may survive: its frames and
        # library mappings, the demand-zero range and the VA reservation
        # go back (a library the registry created stays machine-wide)
        os._release_region(proc)
        raise

    init_registers(proc.add_task().registers, layout, region_cap)
    os._publish(proc, "spawn")
    machine.emit(events.UPROCESS_LOADED)
    return proc
