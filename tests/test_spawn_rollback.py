"""Transactional-spawn tier: a spawn that dies part-way through loading
its image leaves the kernel exactly as it was — no leaked frames, PTEs,
VA reservations, processes or shared-library references.

Beside ``tests/test_fork_rollback.py``: every kernel (the three μFork
strategies, the monolithic and Iso-Unik baselines and the VM-clone
baseline) is made to fail at several frame-allocation offsets inside
one spawn, once by an injected ``hw.phys.alloc_fail`` draw and once by
running out of DRAM, and after the failure every piece of kernel state
a spawn touches must be back at its pre-spawn value.  The same spawn
then succeeds with the fault gone.
"""

import dataclasses
import itertools

import pytest

from repro.apps.guest import GuestContext
from repro.apps.hello import GREETING, hello_world_image
from repro.baselines.isounik import IsoUnikOS
from repro.baselines.monolithic import MonolithicOS
from repro.baselines.vmclone import VMCloneOS
from repro.chaos import ChaosEngine, FaultMix, InjectedAllocFailure
from repro.core import CopyStrategy, UForkOS
from repro.errors import OutOfMemory
from repro.harness.matrix import boot as matrix_boot
from repro.machine import Machine
from repro.mem.allocator import GuestAllocator
from repro.params import MachineConfig


def _live_numbers(phys):
    """The allocated frame numbers, ascending, read through
    ``PhysicalMemory.live_mask`` over every number handed out."""
    numbers = range(1, phys._next_frame)
    return list(itertools.compress(numbers, phys.live_mask(numbers)))


KINDS = ["full", "coa", "copa", "monolithic", "isounik", "vmclone"]
BASELINES = {"monolithic": MonolithicOS, "isounik": IsoUnikOS,
             "vmclone": VMCloneOS}
POINT = "hw.phys.alloc_fail"
PAGE = 4096
#: where in the spawn's run of frame allocations the failure lands, as
#: a fraction of the allocations a clean spawn makes (0 is the first
#: allocation, 1 the last)
FRACTIONS = [0.0, 0.3, 0.6, 1.0]


def make_os(kind, machine):
    if kind in BASELINES:
        return BASELINES[kind](machine=machine)
    return UForkOS(machine=machine, copy_strategy=CopyStrategy(kind))


def boot(kind, *, chaos_seed=0, rate=0.0, dram_frames=None, resident=0):
    """A kernel with ``resident`` processes already spawned, chaos
    armed (``rate`` on :data:`POINT`) only after boot."""
    config = MachineConfig() if dram_frames is None else \
        MachineConfig(dram_bytes=dram_frames * PAGE)
    machine = Machine(config=config, seed=3)
    engine = ChaosEngine(seed=chaos_seed,
                         mix=FaultMix.parse(f"{POINT}={rate}"))
    engine.attach(machine)
    with engine.paused():
        os_ = make_os(kind, machine)
        for index in range(resident):
            os_.spawn(hello_world_image(), f"resident{index}")
    return machine, os_, engine


def kernel_state(os_):
    """Everything a leaky spawn could perturb."""
    machine = os_.machine
    if isinstance(os_, UForkOS):
        spaces = [os_.space]
    else:
        spaces = [proc.space for proc in os_.procs.all()]
    ptes = [space.mapped_items(0, 1 << 40) for space in spaces]
    return {
        "frames": machine.phys.allocated_frames,
        "refcounts": [(number, machine.phys.refcount(number))
                      for number in _live_numbers(machine.phys)],
        "ptes": ptes,
        "reserved": sorted(os_.vspace.reserved_areas())
        if isinstance(os_, UForkOS) else None,
        "demand_zero": dict(os_._demand_zero)
        if isinstance(os_, UForkOS) else None,
        "lib_frames": list(getattr(os_, "_lib_frames", ())),
        "procs": [(proc.pid, proc.alive) for proc in os_.procs.all()],
        "queued": [task.tid for task in os_.sched.queued_tasks()],
    }


def clean_spawn_allocations(kind, image, resident):
    """How many frames a clean spawn of ``image`` allocates."""
    machine, os_, _engine = boot(kind, resident=resident)
    before = machine.counters.snapshot().get("frames_allocated", 0)
    os_.spawn(image, "probe")
    return machine.counters.snapshot()["frames_allocated"] - before


def seed_failing_at(offset):
    """A chaos seed and rate whose first firing ``alloc_fail`` draw is
    draw number ``offset`` (0-based)."""
    rate = 1.0 / (offset + 1)
    for seed in range(100_000):
        engine = ChaosEngine(seed=seed,
                             mix=FaultMix.parse(f"{POINT}={rate}"))
        if engine.lookahead(POINT, offset + 1) == offset:
            return seed, rate
    raise AssertionError(f"no seed fails first at draw {offset}")


def images(kind):
    yield "hello", hello_world_image()
    if kind not in BASELINES:
        # a dynamic heap: formatting the allocator demand-zero pages
        # its metadata in, inside the spawn
        yield "dynamic-heap", dataclasses.replace(
            hello_world_image(), heap_initial=8 * 1024)


def check_spawn_then_retry(os_, engine, image, error):
    before = kernel_state(os_)
    with pytest.raises(error):
        os_.spawn(image, "victim")
    assert kernel_state(os_) == before
    # with the fault gone the very same spawn succeeds and runs
    engine.disable()
    ctx = GuestContext(os_, os_.spawn(image, "victim"))
    buf = ctx.malloc(64)
    ctx.store(buf, GREETING)
    assert ctx.load(buf, len(GREETING)) == GREETING


@pytest.mark.parametrize("resident", [0, 1], ids=["first", "second"])
@pytest.mark.parametrize("kind", KINDS)
def test_injected_alloc_failure_rolls_back(kind, resident):
    for _name, image in images(kind):
        total = clean_spawn_allocations(kind, image, resident)
        for fraction in FRACTIONS:
            offset = round(fraction * (total - 1))
            seed, rate = seed_failing_at(offset)
            _machine, os_, engine = boot(kind, chaos_seed=seed, rate=rate,
                                         resident=resident)
            check_spawn_then_retry(os_, engine, image, InjectedAllocFailure)
            assert engine.fired[POINT] == 1


@pytest.mark.parametrize("kind", KINDS)
def test_out_of_memory_rolls_back(kind):
    for _name, image in images(kind):
        total = clean_spawn_allocations(kind, image, 0)
        booted = boot(kind)[0].phys.allocated_frames
        for fraction in FRACTIONS:
            offset = round(fraction * (total - 1))
            # DRAM holds exactly ``offset`` more frames than boot uses
            _machine, os_, _engine = boot(kind,
                                          dram_frames=booted + offset)
            before = kernel_state(os_)
            with pytest.raises(OutOfMemory):
                os_.spawn(image, "victim")
            assert kernel_state(os_) == before


@pytest.mark.parametrize("kind", KINDS)
def test_failure_after_loading_rolls_back(kind, monkeypatch):
    """A failure after every frame is mapped (the heap allocator's
    format) undoes the whole load too."""
    _machine, os_, _engine = boot(kind, resident=1)

    def broken_format(self):
        raise RuntimeError("format failed")

    monkeypatch.setattr(GuestAllocator, "format", broken_format)
    before = kernel_state(os_)
    with pytest.raises(RuntimeError):
        os_.spawn(hello_world_image(), "victim")
    assert kernel_state(os_) == before


def test_seed4_matrix_spawn_leaves_nothing():
    """A matrix boot at seed 4 with a light ``alloc_fail`` mix, where
    the first spawn used to leak 28 frames: the spawn still fails, and
    frames are back at the post-boot count."""
    for strategy, frames in (("copa", 64), ("monolithic", 0)):
        booted = matrix_boot(strategy, seed=4, cpus=1,
                             chaos_mix=f"{POINT}=0.002")
        assert booted.machine.phys.allocated_frames == frames
        with pytest.raises(InjectedAllocFailure):
            booted.os.spawn(hello_world_image(), "x")
        assert booted.machine.phys.allocated_frames == frames
        assert booted.os.procs.all() == []


LIBS = ("libc", "libm", "libz")
#: pages of one default-size (64 KiB) library
LIB_PAGES = 16


def with_registry_frames(state, frames):
    """``state`` with its refcounts sorted, plus ``frames``, each held
    only by the library registry (refcount 1, mapped nowhere)."""
    return dict(state, frames=state["frames"] + len(frames),
                refcounts=sorted(state["refcounts"]
                                 + [(frame, 1) for frame in frames]))


def registry_frames(os_):
    return [frame for name in LIBS if name in os_.libraries
            for frame in os_.libraries.get_or_create(name).frames]


def test_library_window_overflow_rolls_back_the_spawn():
    """hello's 16 KiB mmap window cannot hold a 64 KiB library, so the
    spawn fails mapping libc.  The process, its region and every frame
    it mapped go; libc, which the registry created, stays machine-wide
    and mapped nowhere."""
    booted = matrix_boot("copa", seed=1, cpus=1, image=hello_world_image(),
                         name="x")
    os_ = booted.os
    before = kernel_state(os_)
    with pytest.raises(OutOfMemory, match="mmap window exhausted"):
        os_.spawn(dataclasses.replace(hello_world_image(), shared_libs=LIBS),
                  "y")
    assert registry_frames(os_) == os_.libraries.get_or_create("libc").frames
    assert with_registry_frames(kernel_state(os_), []) == \
        with_registry_frames(before, registry_frames(os_))


@pytest.mark.parametrize("page", [0, 8, LIB_PAGES + 8],
                         ids=["libc-first", "libc-middle", "libm-middle"])
def test_library_alloc_failure_rolls_back_the_spawn(page):
    """An ``alloc_fail`` draw at ``page`` of the libraries' page
    allocations: the spawn undoes its image and every library mapping.
    Only libraries finished before the failure stay, owned by the
    registry alone; the same spawn then succeeds."""
    image = dataclasses.replace(hello_world_image(), shared_libs=LIBS,
                                mmap_size=len(LIBS) * LIB_PAGES * PAGE)
    offset = clean_spawn_allocations("copa", image, 1) \
        - len(LIBS) * LIB_PAGES + page
    seed, rate = seed_failing_at(offset)
    _machine, os_, engine = boot("copa", chaos_seed=seed, rate=rate,
                                 resident=1)
    before = kernel_state(os_)
    with pytest.raises(InjectedAllocFailure):
        os_.spawn(image, "victim")
    assert engine.fired[POINT] == 1
    assert len(registry_frames(os_)) == page // LIB_PAGES * LIB_PAGES
    assert with_registry_frames(kernel_state(os_), []) == \
        with_registry_frames(before, registry_frames(os_))
    engine.disable()
    ctx = GuestContext(os_, os_.spawn(image, "victim"))
    for name in LIBS:
        assert ctx.load(ctx.proc.lib_caps[name], 16)[:8] != bytes(8)
