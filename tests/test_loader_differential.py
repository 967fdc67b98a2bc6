"""Differential: the run-granular image loader against a per-page
reference.

The loader maps each segment with one ``alloc_run`` plus one
``map_run`` and stores the code/rodata markers, the pointer globals and
the GOT page by page through ``AddressSpace.store_granules``.  Bulk
capability stores are where tag bugs hide ("Pitfalls in VM
Implementation on CHERI"), so this module keeps the loader as it was —
one ``alloc`` and one ``map_page`` per page, one privileged ``write``
per marker and one ``store_cap`` per capability — as the reference,
patches it in, and runs the same spawns both ways.

Each run boots a kernel (the three μFork strategies, the monolithic and
Iso-Unik baselines and the VM-clone baseline) with observability on and
a tracer attached, spawns a sequence of images with 64, 1,024 and 2,048
GOT entries, clean and under an ``hw.phys.alloc_fail`` mix, and forks
the first survivor.  Both sides must agree on every outcome: the
errors raised, per-page bytes, granule tags, permissions, CoW marks and
refcounts, the codec's metadata table, the chaos engine's hits and
injections, counters, obs counters, the trace stream, the clock and the
allocated frame count.
"""

import dataclasses
import struct

import pytest

from repro.apps.guest import GuestContext
from repro.apps.hello import hello_world_image
from repro.baselines import monolithic as monolithic_mod
from repro.baselines.isounik import IsoUnikOS
from repro.baselines.monolithic import (
    PRIVATE_LIB_PAGES,
    SHARED_LIB_PAGES,
    MonolithicOS,
)
from repro.baselines.vmclone import GUEST_KERNEL_BYTES, VMCloneOS
from repro.chaos import ChaosEngine, FaultMix
from repro.cheri.capability import Capability, Perm
from repro.cheri.codec import CAP_SIZE
from repro.core import CopyStrategy, UForkOS, uprocess
from repro.core.got import init_got
from repro.hw.paging import AddressSpace, PagePerm
from repro.machine import Machine
from repro.trace import attach_tracer

PAGE = 4096
KINDS = ["full", "coa", "copa", "monolithic", "isounik", "vmclone"]
BASELINES = {"monolithic": MonolithicOS, "isounik": IsoUnikOS,
             "vmclone": VMCloneOS}
GOT_SIZES = [64, 1024, 2048]
#: a rate at which most spawns of these images meet a failing draw
ALLOC_FAIL = "hw.phys.alloc_fail=0.01"


# ---------------------------------------------------------------------------
# The per-page reference loader
# ---------------------------------------------------------------------------

def ref_map_image_segments(machine, space, layout, demand_heap=False):
    page = machine.config.page_size
    for spec, base, size in layout.iter_segments():
        if spec.name == "mmap":
            continue
        top = base + size
        if (demand_heap and spec.name == "heap"
                and layout.image.heap_initial is not None):
            initial = min(size, max(0, layout.image.heap_initial))
            top = base + (initial + page - 1) // page * page
        for vpn in range(base // page, top // page):
            frame = machine.phys.alloc(zero=True, charge=False)
            space.map_page(vpn, frame, spec.page_perms)


def ref_init_code_and_rodata(machine, space, layout):
    page = machine.config.page_size
    for name in ("code", "rodata"):
        base, top = layout.span(name)
        for addr in range(base, top, page):
            marker = struct.pack(
                "<QQ", 0xC0DE if name == "code" else 0x0DA7A, addr
            )
            space.write(addr, marker, privileged=True, charge=False)


def ref_init_data_globals(space, layout, region_cap):
    data_base = layout.base("data")
    rodata_base = layout.base("rodata")
    for index in range(uprocess.DATA_POINTER_GLOBALS):
        target = rodata_base + index * 64
        cap = (
            region_cap
            .set_bounds(target, 64)
            .with_cursor(target)
            .and_perms(Perm.data_ro())
        )
        space.store_cap(data_base + index * CAP_SIZE, cap, privileged=True)


def ref_init_got(space, got_base, entries, region_cap, data_base,
                 data_size, rodata_base, rodata_size):
    for index in range(entries):
        if index % 2 == 0 and data_size >= 32:
            target = data_base + (index * 32) % max(32, data_size - 32)
            perms = Perm.data_rw()
        else:
            target = rodata_base + (index * 32) % max(32, rodata_size - 32)
            perms = Perm.data_ro()
        cap = (
            region_cap
            .set_bounds(target, 32)
            .with_cursor(target)
            .and_perms(perms)
        )
        space.store_cap(got_base + index * CAP_SIZE, cap, privileged=True)


def ref_map_libraries(self, space, base):
    machine = self.machine
    page = machine.config.page_size
    if not self._lib_frames:
        # per page, but releasing a partial fill like ``alloc_run``
        frames = []
        try:
            for _ in range(SHARED_LIB_PAGES):
                frames.append(machine.phys.alloc(zero=True, charge=False))
        except Exception:
            for frame in frames:
                machine.phys.decref(frame)
            raise
        self._lib_frames = frames
    vpn = base // page
    for frame in self._lib_frames:
        space.map_page(vpn, frame, PagePerm.rx(), incref=True)
        vpn += 1
    for _ in range(PRIVATE_LIB_PAGES):
        frame = machine.phys.alloc(zero=True, charge=False)
        space.map_page(vpn, frame, PagePerm.rwc())
        vpn += 1
    return vpn * page


def ref_map_guest_kernel(self, space, base):
    machine = self.machine
    page = machine.config.page_size
    vpn = base // page
    for _ in range((GUEST_KERNEL_BYTES + page - 1) // page):
        frame = machine.phys.alloc(zero=True, charge=False)
        space.map_page(vpn, frame, PagePerm.rwc())
        vpn += 1
    return vpn * page


def use_reference_loader(monkeypatch):
    for module in (uprocess, monolithic_mod):
        monkeypatch.setattr(module, "map_image_segments",
                            ref_map_image_segments)
    monkeypatch.setattr(uprocess, "_init_code_and_rodata",
                        ref_init_code_and_rodata)
    monkeypatch.setattr(uprocess, "_init_data_globals",
                        ref_init_data_globals)
    monkeypatch.setattr(uprocess, "init_got", ref_init_got)
    monkeypatch.setattr(MonolithicOS, "_map_runtime", ref_map_libraries)
    monkeypatch.setattr(VMCloneOS, "_map_runtime", ref_map_guest_kernel)


# ---------------------------------------------------------------------------
# Driving one side
# ---------------------------------------------------------------------------

def image(got_entries, index):
    return dataclasses.replace(hello_world_image(), name=f"img{index}",
                               got_entries=got_entries)


def page_dump(machine, space):
    out = []
    for vpn, frame, perms, cow, _note in space.mapped_items(0, 1 << 40):
        data, tags = machine.phys.frame(frame).snapshot_content()
        out.append((vpn, perms, cow, machine.phys.refcount(frame), data,
                    tags))
    return out


def run_side(kind, got_entries, mix, seed):
    """Boot, spawn four images (the GOT size under test, 64, the GOT
    size again and 2,048) under ``mix``; with the engine paused, fork
    the first survivor and reap the child, and exit the other
    survivors; then spawn two more images into the freed frames.
    Returns every observable."""
    machine = Machine(seed=seed)
    machine.obs.enable()
    tracer = attach_tracer(machine)
    engine = ChaosEngine(seed=seed, mix=FaultMix.parse(mix))
    engine.attach(machine)
    with engine.paused():
        if kind in BASELINES:
            os_ = BASELINES[kind](machine=machine)
        else:
            os_ = UForkOS(machine=machine, copy_strategy=CopyStrategy(kind))
    errors = []
    procs = []

    def spawn(sizes, first):
        for index, entries in enumerate(sizes, start=first):
            try:
                procs.append(os_.spawn(image(entries, index), f"p{index}"))
            except Exception as exc:  # noqa: BLE001 - must match
                errors.append((index, type(exc).__name__, str(exc)))

    spawn((got_entries, 64, got_entries, 2048), 0)
    with engine.paused():
        if procs:
            parent = GuestContext(os_, procs[0])
            child = parent.fork()
            child.exit(0)
            parent.wait(child.pid)
        for proc in procs[1:]:
            GuestContext(os_, proc).exit(0)
    spawn((2048, got_entries), 4)
    if isinstance(os_, UForkOS):
        spaces = [os_.space]
    else:
        spaces = [proc.space for proc in os_.procs.all()]
    return {
        "errors": errors,
        "pages": [page_dump(machine, space) for space in spaces],
        "meta": dict(machine.codec._id_to_meta),
        "hits": dict(engine.hits),
        "injections": list(engine.injections),
        "counters": machine.counters.snapshot(),
        "obs": machine.obs.registry.counters(),
        "trace": list(tracer.events),
        "now_ns": machine.clock.now_ns,
        "allocated_frames": machine.phys.allocated_frames,
    }


def compare(kind, got_entries, mix, seed, monkeypatch):
    fast = run_side(kind, got_entries, mix, seed)
    with monkeypatch.context() as patch:
        use_reference_loader(patch)
        reference = run_side(kind, got_entries, mix, seed)
    assert fast.keys() == reference.keys()
    for key in fast:
        assert fast[key] == reference[key], key
    return fast


@pytest.mark.parametrize("got_entries", GOT_SIZES)
@pytest.mark.parametrize("kind", KINDS)
def test_clean_load_matches_reference(kind, got_entries, monkeypatch):
    state = compare(kind, got_entries, "default=0.0", 7, monkeypatch)
    assert not state["errors"]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind", KINDS)
def test_load_under_alloc_fail_matches_reference(kind, seed, monkeypatch):
    failed = 0
    for got_entries in GOT_SIZES:
        state = compare(kind, got_entries, ALLOC_FAIL, seed, monkeypatch)
        failed += len(state["errors"])
    # the mix must actually cut spawns short somewhere
    assert failed


def test_load_makes_no_per_page_calls(monkeypatch):
    """Image load never allocates a frame at a time nor stores a GOT
    entry with ``store_cap``: those counts do not grow with the image."""
    from repro.hw.phys import PhysicalMemory

    calls = {"alloc": 0, "store_cap": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(PhysicalMemory, "alloc",
                        counting("alloc", PhysicalMemory.alloc))
    monkeypatch.setattr(AddressSpace, "store_cap",
                        counting("store_cap", AddressSpace.store_cap))
    seen = []
    for kind in KINDS:
        for got_entries in (64, 2048):
            machine = Machine(seed=7)
            os_ = BASELINES[kind](machine=machine) if kind in BASELINES \
                else UForkOS(machine=machine, copy_strategy=CopyStrategy(kind))
            calls.update(alloc=0, store_cap=0)
            os_.spawn(image(got_entries, 0), "p")
            seen.append((kind, got_entries, dict(calls)))
    for kind, got_entries, counted in seen:
        assert counted["alloc"] == 0, (kind, got_entries)
    by_kind = {}
    for kind, _got_entries, counted in seen:
        by_kind.setdefault(kind, set()).add(counted["store_cap"])
    assert all(len(counts) == 1 for counts in by_kind.values()), by_kind


# ---------------------------------------------------------------------------
# GOT placement: partial last page, unaligned start
# ---------------------------------------------------------------------------

BASE_VPN = 16
PAGES = 4


def _got_space(init, got_offset, entries):
    """Four mapped pages pre-filled with bytes and a capability in every
    page's first and last granule; the GOT goes ``got_offset`` bytes in.
    Returns each page's content and version before and after
    ``init``, plus the codec table."""
    machine = Machine()
    space = AddressSpace(machine, "got")
    for index in range(PAGES):
        space.map_page(BASE_VPN + index, machine.phys.alloc(),
                       PagePerm.rwc())
    base = BASE_VPN * PAGE
    region = Capability(base=base, length=PAGES * PAGE, cursor=base,
                        perms=Perm.all_perms())
    for index in range(PAGES):
        page = base + index * PAGE
        space.write(page, bytes(range(256)) * 16, privileged=True)
        for offset in (0, PAGE - CAP_SIZE):
            space.store_cap(page + offset, region.with_cursor(page + offset),
                            privileged=True)
    frames = [machine.phys.frame(space.frame_of(BASE_VPN + index))
              for index in range(PAGES)]
    before = [(frame.snapshot_content(), frame.version) for frame in frames]
    init(space, base + got_offset, entries, region,
         data_base=base + 2 * PAGE, data_size=PAGE,
         rodata_base=base + 3 * PAGE, rodata_size=PAGE)
    after = [(frame.snapshot_content(), frame.version) for frame in frames]
    return before, after, dict(machine.codec._id_to_meta)


@pytest.mark.parametrize("got_offset,entries", [
    (0, PAGE // CAP_SIZE),          # exactly one page
    (0, 300),                       # partial last page
    (48, 256),                      # unaligned start, spills one page over
    (PAGE - CAP_SIZE, 2),           # one granule on each side of a page
    (PAGE + 32, 3 * PAGE // CAP_SIZE - 6),     # ends inside the last page
    (0, 0),
])
def test_got_placement_matches_reference(got_offset, entries):
    before, after, meta = _got_space(init_got, got_offset, entries)
    ref_before, ref_after, ref_meta = _got_space(ref_init_got, got_offset,
                                                 entries)
    assert meta == ref_meta
    assert [content for content, _version in before] == \
        [content for content, _version in ref_before]
    assert [content for content, _version in after] == \
        [content for content, _version in ref_after]
    for (old, old_version), (new, new_version) in zip(before, after):
        # a page the GOT changed has a new version, one bump per page
        assert new_version - old_version == (new != old)
