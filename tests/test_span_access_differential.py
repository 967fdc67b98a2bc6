"""Differential suite: a byte access that spans pages comes out as a
per-page reference does.

:meth:`repro.hw.paging.AddressSpace.read` and ``write`` translate an
access that crosses a page once per span: when every page is mapped and
allows the access they copy with no walk, storing a write by bank run;
when some pages block the access and μFork's break hook takes them
all, they are broken in one batch and the span is copied with no walk;
otherwise they walk the pages in address order.  The reference here is
the plain loop: one :meth:`~repro.hw.paging.AddressSpace.resolve` per
page (each blocked page faulting on its own), then a slice of that
page's frame, and one clock charge for the whole access.

Each example boots one kernel twice with the same seed on one of
several machines (:data:`ENVS`): the default one, a chaos mix that
injects frame-allocation failures and tag clears, one left with a few
free frames, and one with two CPUs.  A process whose heap straddles a
512-page table chunk is filled with bytes and capabilities and then
forked, so that the parent's and the child's heap pages are shared
under CoW, CoA or CoPA (private under a full copy).  Pages of each
side's window are then unmapped, made read-only or made inaccessible,
or written once to break their sharing.  Hypothesis draws spans of 2
to 40 pages, reads and writes, privileged or not, charged or not; one
run serves them through the address space, the other through the
reference.  Returned bytes, exception types and addresses, the clock
and its buckets, the counters, the chaos engine's record, the page
tables and the frames' numbers, bytes, tags and versions must be equal.
A batch never calls the fault handler, so faults are compared as an
attached tracer sees them: the ordered ``(event, fields)`` stream of
page faults, relocations and share breaks (without the
``chaos_inject`` records, which a batch emits ahead of its pages).

:func:`test_which_path_runs` pins which of the paths an access takes.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.ufork
from repro.cheri.capability import Capability, Perm
from repro.harness import matrix
from repro.hw.paging import CHUNK, AccessKind, AddressSpace, PagePerm
from repro.mem.layout import KiB, ProgramImage

PAGE = 4096
#: pages on each side of the window's chunk boundary
HALF = 24
WINDOW = 2 * HALF
KERNELS = ("full", "coa", "copa", "monolithic")

#: machine variants; ``small_dram`` keeps :data:`SPARE_FRAMES` frames
#: free once the fork and the edits are done, so a break of more pages
#: runs out part-way
ENVS = ("default", "chaos", "small_dram", "smp")
CHAOS_MIX = "hw.phys.alloc_fail=0.2,hw.phys.tag_clear=0.2"
SPARE_FRAMES = 12

#: a heap that holds a whole chunk plus the window, so one chunk
#: boundary lies at least ``HALF`` pages inside it
IMAGE = ProgramImage(
    name="span",
    code_size=16 * KiB,
    rodata_size=4 * KiB,
    data_size=4 * KiB,
    got_entries=64,
    tls_size=4 * KiB,
    heap_size=(CHUNK + WINDOW + 2) * PAGE,
    mmap_size=16 * KiB,
    stack_size=32 * KiB,
)

#: what may happen to one window page after the fork
_PAGE_EDITS = ("hole", "read_only", "no_access", "touch")


def _reference_read(space, vaddr, size, privileged=False, charge=True):
    out = b""
    addr, end = vaddr, vaddr + size
    while addr < end:
        frame, offset = space.resolve(addr, AccessKind.READ, privileged)
        take = min(end - addr, PAGE - offset)
        out += bytes(frame.data[offset:offset + take])
        addr += take
    if charge:
        machine = space.machine
        machine.clock.advance(machine.costs.memcpy_ns_per_byte * size,
                              "mem_read")
    return out


def _reference_write(space, vaddr, data, privileged=False, charge=True):
    addr, end = vaddr, vaddr + len(data)
    while addr < end:
        frame, offset = space.resolve(addr, AccessKind.WRITE, privileged)
        take = min(end - addr, PAGE - offset)
        frame._versions[frame.number] += 1
        frame.data[offset:offset + take] = data[addr - vaddr:
                                                addr - vaddr + take]
        for granule in range(offset // 16, (offset + take - 1) // 16 + 1):
            frame.tags[granule] = 0
        addr += take
    if charge:
        machine = space.machine
        machine.clock.advance(machine.costs.memcpy_ns_per_byte * len(data),
                              "mem_write")


def _window(proc):
    """The first vaddr of ``proc``'s window: ``HALF`` pages below the
    first chunk boundary at least ``HALF`` pages into its heap."""
    heap_base, heap_top = proc.layout.span("heap")
    boundary = -(-(heap_base // PAGE + HALF) // CHUNK) * CHUNK
    assert boundary + HALF <= heap_top // PAGE
    return (boundary - HALF) * PAGE


class _Recorder:
    def __init__(self):
        self.events = []

    def record(self, event, **fields):
        self.events.append((event, tuple(sorted(fields.items()))))


def _boot(kernel, parent_edits, child_edits, env="default"):
    """Boot, fill, fork and edit on machine ``env`` (chaos paused);
    returns the machine, with a tracer attached, and the two
    ``(space, window vaddr)`` sides."""
    machine, os_, ctx = matrix.boot(
        kernel, seed=7, cpus=2 if env == "smp" else 1,
        chaos_mix=CHAOS_MIX if env == "chaos" else None, image=IMAGE,
        name="span")
    with machine.chaos.paused():
        sides = _fill_fork_edit(os_, ctx, parent_edits, child_edits)
    if env == "small_dram":
        machine.phys._capacity_frames = \
            machine.phys.allocated_frames + SPARE_FRAMES
    machine.tracer = _Recorder()
    return machine, sides


def _fill_fork_edit(os_, ctx, parent_edits, child_edits):
    space = os_.space_of(ctx.proc)
    heap_base, heap_top = ctx.proc.layout.span("heap")
    # every heap page but the allocator's first: bytes, then a
    # capability in every 61st granule
    fill = random.Random(3).randbytes(heap_top - heap_base - PAGE)
    space.write(heap_base + PAGE, fill, privileged=True, charge=False)
    cap = Capability(base=heap_base, length=PAGE, cursor=heap_base,
                     perms=Perm.data_rw())
    for vaddr in range(heap_base + PAGE, heap_top, 61 * 16):
        space.store_cap(vaddr, cap, privileged=True)
    child = ctx.fork()
    sides = [(space, _window(ctx.proc)),
             (os_.space_of(child.proc), _window(child.proc))]
    for (side_space, base), edits in zip(sides, (parent_edits,
                                                 child_edits)):
        for page, edit in enumerate(edits):
            vaddr = base + page * PAGE
            vpn = vaddr // PAGE
            if edit == "hole":
                side_space.unmap_page(vpn)
            elif edit == "read_only":
                side_space.protect_page(vpn, PagePerm.read_only())
            elif edit == "no_access":
                side_space.protect_page(vpn, PagePerm.NONE)
            elif edit == "touch":
                side_space.write(vaddr + 8, b"touched")
    return sides


def _state(machine, sides, env):
    pages = []
    for space, base in sides:
        lo = base // PAGE
        for vpn, number, perms, cow, note in space.mapped_items(
                lo, lo + WINDOW):
            frame = machine.phys.frame(number)
            pages.append((space.name, vpn, number, perms, cow,
                          type(note).__name__, frame.version,
                          bytes(frame.data), bytes(frame.tags),
                          machine.phys.refcount(number)))
    stream = [record for record in machine.tracer.events
              if record[0] != "chaos_inject"]
    chaos = machine.chaos.export() if env == "chaos" else None
    return (machine.clock.now_ns, sorted(machine.clock.buckets.items()),
            machine.counters.snapshot(), stream, chaos, pages,
            machine.phys.allocated_frames)


def _run(kernel, edits, ops, reference, env="default"):
    machine, sides = _boot(kernel, *edits, env=env)
    outcomes = []
    for side, op, first, offset, pages, extra, privileged, charge in ops:
        space, base = sides[side]
        vaddr = base + first * PAGE + offset
        size = (pages - 1) * PAGE - offset + extra
        try:
            if op == "read":
                read = _reference_read if reference else \
                    type(space).read
                value = read(space, vaddr, size, privileged, charge)
            else:
                write = _reference_write if reference else \
                    type(space).write
                data = random.Random(first * 7919 + size).randbytes(size)
                value = write(space, vaddr, data, privileged, charge)
        except Exception as exc:  # the outcome under test
            value = (type(exc).__name__, getattr(exc, "vaddr", None))
        outcomes.append(value)
    return outcomes, _state(machine, sides, env)


@st.composite
def _op(draw):
    """``(side, op, first page, offset, pages, extra, privileged,
    charge)``: an access from ``offset`` into the window's ``first``
    page to ``extra`` bytes into its last, covering ``pages`` pages."""
    pages = draw(st.integers(2, 40))
    return (draw(st.integers(0, 1)),
            draw(st.sampled_from(("read", "write"))),
            draw(st.integers(0, WINDOW - pages)),
            draw(st.integers(0, PAGE - 1)), pages,
            draw(st.integers(1, PAGE)), draw(st.booleans()),
            draw(st.booleans()))


@st.composite
def _edits(draw):
    """One edit per window page; "keep" (no edit) is weighted up per
    window, so that many spans take the no-walk path."""
    keeps = draw(st.sampled_from((0, 4, 16, 64)))
    return draw(st.lists(st.sampled_from(("keep",) * keeps + _PAGE_EDITS),
                         min_size=WINDOW, max_size=WINDOW)) \
        if keeps else ("keep",) * WINDOW


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(parent_edits=_edits(), child_edits=_edits(),
       ops=st.lists(_op(), min_size=1, max_size=6),
       env=st.sampled_from(ENVS))
def test_span_access_matches_per_page_reference(kernel, parent_edits,
                                                child_edits, ops, env):
    edits = (parent_edits, child_edits)
    assert _run(kernel, edits, ops, reference=False, env=env) == \
        _run(kernel, edits, ops, reference=True, env=env)


@pytest.mark.parametrize("kernel", KERNELS)
def test_mapped_span_across_a_chunk_takes_no_walk(kernel, monkeypatch):
    """A span over mapped, permitted pages on both sides of a chunk
    boundary is copied without one ``resolve``; a shorter span resolves
    each page, a span with a blocked page walks, and all match the
    reference."""
    keep = ("keep",) * WINDOW
    # the parent's window is private after a full copy; elsewhere its
    # pages are read-only until written, so writes walk there
    ops = [(0, "read", 0, 100, 40, 500, False, True),
           (0, "write", 2, 4000, 44, 9, True, True),
           (0, "read", HALF - 3, 0, 6, PAGE, False, False),
           (1, "write", 0, 17, 30, 1, False, True),
           (1, "read", 0, 17, 30, 1, False, True)]
    calls = []
    real_resolve = AddressSpace.resolve

    def counting_resolve(self, vaddr, kind, privileged=False):
        calls.append(vaddr)
        return real_resolve(self, vaddr, kind, privileged)

    monkeypatch.setattr(AddressSpace, "resolve", counting_resolve)
    machine, sides = _boot(kernel, keep, keep)
    space, base = sides[0]
    calls.clear()
    space.read(base + 100, 39 * PAGE + 400)
    assert calls == []
    space.write(base + 100, bytes(39 * PAGE), privileged=True)
    assert calls == []
    space.read(base + PAGE - 10, 20)
    assert calls == [base + PAGE - 10, base + PAGE]
    monkeypatch.undo()
    assert _run(kernel, (keep, keep), ops, reference=False) == \
        _run(kernel, (keep, keep), ops, reference=True)


#: a dynamic heap: only its first 64 KiB are mapped at spawn, the rest
#: pages in on demand
DYN_IMAGE = ProgramImage(name="dyn", heap_size=1024 * KiB,
                         heap_initial=64 * KiB)

#: ``case -> (kernel, cpus, image, chaos mix)``: one blocked child
#: read each
_PATH_CASES = {
    "coa": ("coa", 1, IMAGE, None),
    "coa_tag_clears": ("coa", 1, IMAGE, "hw.phys.tag_clear=0.5"),
    "copa_no_access": ("copa", 1, IMAGE, None),
    "demand_zero": ("coa", 1, DYN_IMAGE, None),
    "repeated_frame": ("coa", 1, IMAGE, None),
    "two_cpus": ("coa", 2, IMAGE, None),
    "short_budget": ("coa", 1, IMAGE, None),
    "alloc_fail": ("coa", 1, IMAGE, "hw.phys.alloc_fail=0.2"),
}


def _path_run(case, hook, monkeypatch):
    """A parent fills a 32-page buffer (only its first 8 pages under
    ``demand_zero``), stores a capability in every other page and
    forks; the child then reads 25 of the pages (with room for 10 more
    frames under ``short_budget``).  Without ``hook`` the space's break
    hook is removed, so each blocked page faults on its own.  Returns
    the observables and the ``handle_fork_fault`` and ``copy_frames``
    calls of the read."""
    kernel, cpus, image, mix = _PATH_CASES[case]
    machine, os_, ctx = matrix.boot(kernel, seed=7, cpus=cpus, image=image,
                                    chaos_mix=mix, name="path")
    with machine.chaos.paused():
        buf = ctx.malloc(32 * PAGE)
        filled = 8 if case == "demand_zero" else 32
        ctx.store(buf, random.Random(5).randbytes(filled * PAGE))
        for page in range(0, filled, 2):
            ctx.store_cap(buf, buf, page * PAGE + 48)
        ctx.set_reg("c19", buf)
        child = ctx.fork()
    if case == "short_budget":
        machine.phys._capacity_frames = machine.phys.allocated_frames + 10
    cap = child.reg("c19")
    space = child.space
    first = cap.cursor // PAGE
    if case == "copa_no_access":
        space.protect_page(first + 6, PagePerm.NONE)
    elif case == "repeated_frame":
        space.unmap_page(first + 5)
        space.map_page(first + 5, space.frame_of(first + 4), PagePerm.NONE,
                       incref=True, note=space.note_of(first + 4))
    if not hook:
        space.break_hook = None
    faults = []
    layered = repro.core.ufork.handle_fork_fault

    def counting(*args):
        faults.append(args[1])
        return layered(*args)

    monkeypatch.setattr(repro.core.ufork, "handle_fork_fault", counting)
    copies = []
    layered_copy = machine.phys.copy_frames
    machine.phys.copy_frames = lambda *a, **k: copies.append(a) or \
        layered_copy(*a, **k)
    machine.tracer = _Recorder()
    try:
        outcome = child.load(cap, 25 * PAGE)
    except Exception as exc:  # the outcome under test
        outcome = (type(exc).__name__, getattr(exc, "vaddr", None))
    monkeypatch.undo()
    del machine.phys.copy_frames
    pages = []
    for vpn, number, perms, _cow, note in space.mapped_items(first,
                                                             first + 32):
        frame = machine.phys.frame(number)
        pages.append((vpn, number, perms, type(note).__name__,
                      frame.version, bytes(frame.data), bytes(frame.tags)))
    state = (outcome, machine.clock.now_ns, dict(machine.clock.buckets),
             machine.counters.snapshot(), pages,
             [record for record in machine.tracer.events
              if record[0] != "chaos_inject"],
             machine.chaos.export() if mix else None)
    return state, len(faults), len(copies)


@pytest.mark.parametrize("case", list(_PATH_CASES))
def test_which_path_runs(case, monkeypatch):
    """A CoA child's 25-page read breaks its shares in one batch: no
    per-page fork fault, one ``copy_frames`` (whose injected tag clears
    are recovered inside it).  A CoPA child's plain read of a page it
    may not access, a demand-zero page, a frame mapped twice, a second
    CPU, too few free frames and an injected allocation failure each
    leave the span to per-page faults.  Every case ends as the
    reference with no break hook."""
    state, faults, copies = _path_run(case, True, monkeypatch)
    reference, ref_faults, ref_copies = _path_run(case, False, monkeypatch)
    assert state == reference
    assert ref_copies == 0 and ref_faults > 0
    if case.startswith("coa"):
        assert (faults, copies) == (0, 1)
        assert ref_faults == 25
    else:
        assert (faults, copies) == (ref_faults, 0)
