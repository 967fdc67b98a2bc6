"""Differential: the packed-granule relocation scan against a
per-capability reference.

The scan (:func:`repro.core.relocate._relocate_granules`) reads
each tagged granule as a ``(cursor, meta id)`` pair, applies the
relocation rule to the interned metadata and writes the rebased granule
back without building a :class:`Capability`.  This module keeps the
scan as it used to be — decode every tagged granule, apply the
relocation rule written on :class:`Capability` methods (``rebased``,
``clamped_to``, ``invalidated``), encode the result and
``write_granule`` it — as the reference, patches it in, and runs the
same pages both ways.

Hypothesis builds pages holding capabilities in the parent, in the
child and outside both regions, sentries and other sealed otypes, a
base outside with the cursor in the parent, metadata that clamps down
to zero length, granules naming a meta id not interned yet, and plain
bytes; region pairs include a child below its parent (negative delta)
and regions of different sizes.  Both sides relocate through
:func:`relocate_frame`, :func:`relocate_frames` and
:func:`relocate_copied_frames` (with the run memo cold, then warm) and
must agree on page bytes, tags, version deltas, the returned counts,
the clock and its buckets, event and obs counters, and the codec's
intern table in order.

The fork run memo itself is checked against :func:`relocate_frames`
with no memo: the same batches relocated several times, with source
pages changed in between, copies landing across a bank boundary at
shifting offsets, relocation in place and injected tag clears.
"""

import contextlib
import itertools
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro.core.relocate as relocate
from repro.cheri.capability import (
    OTYPE_SENTRY,
    OTYPE_UNSEALED,
    Capability,
    Perm,
)
from repro.cheri.codec import CAP_SIZE, GRANULE
from repro.core.relocate import (
    RegionPair,
    relocate_cap,
    relocate_copied_frames,
    relocate_frame,
    relocate_frames,
)
from repro.hw.phys import BANK_FRAMES
from repro.machine import Machine
from repro.params import CostModel

PAGE = 4096
GRANULES = PAGE // CAP_SIZE


# ---------------------------------------------------------------------------
# The per-capability reference
# ---------------------------------------------------------------------------

def ref_relocate_cap(cap, regions):
    """The relocation rule on :class:`Capability` methods."""
    if not cap.valid:
        return cap
    if cap.is_sentry:
        return cap
    if regions.in_child(cap.base) and cap.top <= regions.child_top:
        return cap
    if regions.in_parent(cap.base) or regions.in_parent(cap.cursor):
        moved = cap.rebased(regions.delta)
        if moved.base < regions.child_base or moved.top > regions.child_top:
            moved = moved.clamped_to(regions.child_base, regions.child_top)
        return moved
    return cap.invalidated()


def ref_scan(machine, frame, regions):
    """Decode → relocate → encode → ``write_granule`` per tagged
    granule, with the scan's charge."""
    codec = machine.codec
    relocated = 0
    for offset in frame.tagged_granules():
        cap = codec.decode(frame.read(offset, CAP_SIZE), True)
        moved = ref_relocate_cap(cap, regions)
        if moved is not cap:
            frame.write_granule(offset, codec.encode(moved),
                                1 if moved.valid else 0)
            relocated += 1
    if relocated:
        relocate._charge_each(machine, machine.costs.cap_relocate_ns,
                              relocated, "reloc_cap")
    return relocated


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

#: (parent base, parent size, child base, child size): a child above
#: its parent, below it (negative delta), smaller (rebased bounds clamp
#: to zero length) and larger
REGION_PAIRS = [
    (0x100000, 0x10000, 0x300000, 0x10000),
    (0x400000, 0x10000, 0x200000, 0x10000),
    (0x100000, 0x20000, 0x300000, 0x8000),
    (0x400000, 0x8000, 0x100000, 0x20000),
]

COSTS = {"integral": None,
         "fractional": CostModel(cap_relocate_ns=2.5)}

_offsets = st.integers(-3, 3).map(lambda n: n * CAP_SIZE) | st.integers(
    -0x20000, 0x20000)
_anchor = st.sampled_from(["parent_base", "parent_top", "child_base",
                           "child_top", "zero", "far"])
_length = st.sampled_from([0, 16, 32, 64, PAGE, 0x8000, 0x10000,
                           0x20000, 0x40000])
_perms = st.sampled_from([Perm.data_rw(), Perm.data_ro(), Perm.code(),
                          Perm.all_perms(), Perm.NONE])
_otype = st.sampled_from([OTYPE_UNSEALED] * 4 + [OTYPE_SENTRY, 3])

#: one granule: ("cap", base anchor, base offset, length, cursor anchor,
#: cursor offset, perms, otype) stores a tagged capability; ("forged",
#: k) a tagged granule naming the k-th meta id past those interned when
#: the page is built; ("bytes",) an untagged data granule
_granule = st.one_of(
    st.tuples(st.just("cap"), _anchor, _offsets, _length, _anchor,
              _offsets, _perms, _otype),
    st.tuples(st.just("forged"), st.integers(1, 4)),
    st.tuples(st.just("bytes")),
)
_page = st.dictionaries(st.integers(0, GRANULES - 1), _granule,
                        max_size=24)


def _addr(regions, anchor, offset):
    origin = {"parent_base": regions.parent_base,
              "parent_top": regions.parent_top,
              "child_base": regions.child_base,
              "child_top": regions.child_top,
              "zero": 0, "far": 0x4000000}[anchor]
    return max(0, origin + offset)


def _build(pair, pages, costs, filler=0):
    """A machine holding ``pages`` (after ``filler`` other frames);
    returns it, the region pair and the page frame numbers."""
    parent_base, parent_size, child_base, child_size = pair
    regions = RegionPair(parent_base, parent_base + parent_size,
                         child_base, child_base + child_size)
    machine = Machine(costs=COSTS[costs])
    machine.obs.enable()
    machine.phys.alloc_run(filler)
    numbers = []
    for page in pages:
        number = machine.phys.alloc()
        for index, spec in sorted(page.items()):
            _store(machine, regions, number, index, spec)
        numbers.append(number)
    return machine, regions, numbers


def _store(machine, regions, number, index, spec):
    """Store one granule spec at granule ``index`` of frame ``number``."""
    frame = machine.phys.frame(number)
    offset = index * CAP_SIZE
    if spec[0] == "cap":
        _, b_anchor, b_off, length, c_anchor, c_off, perms, otype = spec
        cap = Capability(base=_addr(regions, b_anchor, b_off),
                         length=length,
                         cursor=_addr(regions, c_anchor, c_off),
                         perms=perms, otype=otype)
        frame.store_cap(offset, cap, machine.codec)
    elif spec[0] == "forged":
        next_id = len(_intern_table(machine)) + spec[1]
        frame.write_granule(offset, GRANULE.pack(offset, next_id), 1)
    else:
        frame.write(offset, bytes(range(index % 200, index % 200 + CAP_SIZE)))


def _intern_table(machine):
    """The codec's metadata, in id order (ids start at 1)."""
    meta = machine.codec.meta
    return list(itertools.takewhile(
        lambda item: item is not None, map(meta, itertools.count(1))))


def _relocate(machine, numbers, step):
    """Run ``step`` and note the version delta of every page in
    ``numbers`` across it, and what it returned."""
    before = machine.phys.versions(numbers)
    counts = step()
    deltas = [after - old for after, old in
              zip(machine.phys.versions(numbers), before)]
    return counts, deltas


def _run(mode, pair, pages, costs, reference):
    """Build the pages and relocate them one way; every observable."""
    machine, regions, numbers = _build(pair, pages, costs)
    phys = machine.phys
    frames = [phys.frame(number) for number in numbers]
    steps = []
    patch = (mock.patch.object(relocate, "_relocate_granules",
                               ref_scan)
             if reference else contextlib.nullcontext())
    with patch:
        if mode == "frame":
            # twice: the second pass finds every rebased meta interned
            for _ in range(2):
                steps.append(_relocate(machine, numbers, lambda: [
                    relocate_frame(machine, frame, regions)
                    for frame in frames]))
        elif mode == "frames":
            steps.append(_relocate(machine, numbers, lambda: relocate_frames(
                machine, frames, regions)))
        else:
            # a cold run memo, then a warm one (the sources are
            # unchanged), then the sources relocated in place (a last
            # sharer's frame is its own copy)
            copies = []
            for _ in range(2):
                dsts = phys.copy_frames(numbers)
                steps.append(_relocate(machine, dsts, lambda: (
                    relocate_copied_frames(machine, phys, numbers, dsts,
                                           regions))))
                copies += dsts
            steps.append(_relocate(machine, numbers, lambda: (
                relocate_copied_frames(machine, phys, numbers, numbers,
                                       regions))))
            numbers = numbers + copies
    return {
        "steps": steps,
        "content": [phys.frame(n).snapshot_content() for n in numbers],
        "now_ns": machine.clock.now_ns,
        "buckets": dict(machine.clock.buckets),
        "counters": machine.counters.snapshot(),
        "metrics": machine.obs.registry.counters(),
        "meta": _intern_table(machine),
    }


@pytest.mark.parametrize("mode", ["frame", "frames", "copied"])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pair=st.sampled_from(REGION_PAIRS),
       pages=st.lists(_page, min_size=1, max_size=3),
       repeat=st.booleans(),
       costs=st.sampled_from(sorted(COSTS)))
# a base outside both regions with the cursor in the parent, next to
# one with the cursor outside: rebase and invalidate share a meta id
@example(pair=REGION_PAIRS[0],
         pages=[{0: ("cap", "far", 0, 64, "parent_base", 32,
                     Perm.data_rw(), OTYPE_UNSEALED),
                 1: ("cap", "far", 0, 64, "far", 32,
                     Perm.data_rw(), OTYPE_UNSEALED)}],
         repeat=True, costs="integral")
# the child below its parent, with a capability that clamps to zero
# length and a forged id the page's own rebase hands out
@example(pair=REGION_PAIRS[2],
         pages=[{0: ("cap", "parent_base", 0x10000, 32, "parent_base", 0,
                     Perm.data_ro(), OTYPE_UNSEALED),
                 5: ("forged", 1),
                 9: ("cap", "parent_base", 0, 32, "parent_base", 0,
                     Perm.all_perms(), OTYPE_SENTRY)}],
         repeat=False, costs="fractional")
def test_packed_scan_matches_per_capability_reference(mode, pair, pages,
                                                      repeat, costs):
    if repeat:
        pages = pages + pages[:1]
    ours = _run(mode, pair, pages, costs, reference=False)
    ref = _run(mode, pair, pages, costs, reference=True)
    assert ours == ref


# ---------------------------------------------------------------------------
# The fork run memo against per-frame relocation
# ---------------------------------------------------------------------------

#: a granule as guests can store one: a capability or plain bytes; a
#: forged id (rarer) relocates only once interning hands it out, which
#: changes what an unchanged page relocates to
_real_granule = st.one_of(
    st.tuples(st.just("cap"), _anchor, _offsets, _length, _anchor,
              _offsets, _perms, _otype),
    st.tuples(st.just("bytes")),
)
_memo_granule = _real_granule | st.tuples(st.just("forged"),
                                          st.integers(1, 4))
_memo_page = st.dictionaries(st.integers(0, GRANULES - 1), _memo_granule,
                             max_size=12)
#: what happens between relocations: ("fork", pad) copies the batch
#: after taking ``pad`` more frames (so the copies start at another
#: bank offset) and relocates the copies; ("in_place",) relocates the
#: sources themselves; ("store", page, granule, spec) changes one
#: source page; ("intern", count) interns ``count`` new metadata tuples
#: spanning the parent region, handing out the next forged ids
_memo_step = st.one_of(
    st.tuples(st.just("fork"), st.integers(0, 12)),
    st.tuples(st.just("in_place")),
    st.tuples(st.just("store"), st.integers(0, 7),
              st.integers(0, GRANULES - 1), _memo_granule),
    st.tuples(st.just("intern"), st.integers(1, 4)),
)


def _per_frame(machine, numbers, regions):
    """:func:`relocate_frames` over ``numbers``: each frame's count."""
    counts = []
    scan = relocate._relocate_granules

    def counting(machine, frame, regions):
        counts.append(scan(machine, frame, regions))
        return counts[-1]

    with mock.patch.object(relocate, "_relocate_granules", counting):
        relocate_frames(machine, [machine.phys.frame(number)
                                  for number in numbers], regions)
    return counts


def _run_memo_steps(pages, batch, as_tuple, steps, chaos, reference):
    # the pages straddle the first bank boundary, and copies land
    # across it at whatever offsets the steps' padding gives
    machine, regions, numbers = _build(REGION_PAIRS[0], pages, "integral",
                                       filler=BANK_FRAMES - 4)
    phys = machine.phys
    if chaos:
        from repro.chaos import ChaosEngine, FaultMix

        ChaosEngine(seed=chaos, mix=FaultMix.parse(
            "hw.phys.tag_clear=0.5")).attach(machine)
    srcs = [number for number, keep in zip(numbers, batch) if keep]
    if as_tuple:
        srcs = tuple(srcs)
    seen = list(numbers)
    counts = []
    for step in steps:
        if step[0] == "fork":
            seen += phys.alloc_run(step[1])
            dsts = phys.copy_frames(srcs)
            seen += dsts
        elif step[0] == "in_place":
            dsts = srcs
        elif step[0] == "intern":
            interned = len(_intern_table(machine))
            for length in range(interned + 1, interned + 1 + step[1]):
                machine.codec.intern((regions.parent_base, 16 * length,
                                      int(Perm.data_rw()), OTYPE_UNSEALED))
            continue
        else:
            _store(machine, regions, numbers[step[1] % len(numbers)],
                   step[2], step[3])
            continue
        counts.append(_per_frame(machine, dsts, regions) if reference
                      else relocate_copied_frames(machine, phys, srcs, dsts,
                                                  regions))
    return {
        "counts": counts,
        "content": [phys.frame(n).snapshot_content() for n in seen],
        "now_ns": machine.clock.now_ns,
        "buckets": dict(machine.clock.buckets),
        "counters": machine.counters.snapshot(),
        "metrics": machine.obs.registry.counters(),
        "meta": _intern_table(machine),
    }


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pages=st.lists(_memo_page, min_size=1, max_size=8),
       batch=st.lists(st.booleans(), min_size=8, max_size=8).filter(any),
       as_tuple=st.booleans(),
       steps=st.lists(_memo_step, min_size=1, max_size=8),
       chaos=st.sampled_from([0, 0, 5]))
# the copies of a run memoised inside one bank replay across the bank
# boundary, after a source page changed between the forks
@example(pages=[{0: ("cap", "parent_base", 0, 64, "parent_base", 16,
                     Perm.data_rw(), OTYPE_UNSEALED)}] * 6,
         batch=[True] * 8, as_tuple=True,
         steps=[("fork", 0), ("store", 2, 3, ("bytes",)), ("fork", 7),
                ("fork", 0), ("in_place",)],
         chaos=0)
def test_run_memo_matches_per_frame_reference(pages, batch, as_tuple, steps,
                                              chaos):
    """Fork's per-run memo (:func:`relocate_copied_frames`) against
    :func:`relocate_frames` with no memo, over batches of one or more
    source runs, copies at shifting bank offsets, source pages changed
    between relocations (capabilities stored into untagged pages
    too), forged meta ids interned between relocations, relocation in
    place and injected tag clears."""
    batch = batch[:len(pages)] if any(batch[:len(pages)]) else [True]
    ours = _run_memo_steps(pages, batch, as_tuple, steps, chaos,
                           reference=False)
    ref = _run_memo_steps(pages, batch, as_tuple, steps, chaos,
                          reference=True)
    assert ours == ref


# ---------------------------------------------------------------------------
# relocate_cap: the thin wrapper keeps the rule's results
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(pair=st.sampled_from(REGION_PAIRS), b_anchor=_anchor,
       b_off=_offsets, length=_length, c_anchor=_anchor, c_off=_offsets,
       perms=_perms, otype=_otype, valid=st.booleans())
def test_relocate_cap_matches_reference(pair, b_anchor, b_off, length,
                                        c_anchor, c_off, perms, otype,
                                        valid):
    parent_base, parent_size, child_base, child_size = pair
    regions = RegionPair(parent_base, parent_base + parent_size,
                         child_base, child_base + child_size)
    cap = Capability(base=_addr(regions, b_anchor, b_off), length=length,
                     cursor=_addr(regions, c_anchor, c_off), perms=perms,
                     otype=otype, valid=valid)
    ours = relocate_cap(cap, regions)
    ref = ref_relocate_cap(cap, regions)
    assert ours == ref
    assert (ours is cap) == (ref is cap)
    assert type(ours.perms) is type(ref.perms)


# ---------------------------------------------------------------------------
# Forged metadata: the scan trusts only interned ids
# ---------------------------------------------------------------------------

def test_forged_meta_id_is_untouched_until_interned():
    """A tagged granule naming a meta id nobody interned yet decodes
    powerless: the scan leaves it alone, counts 0 and interns nothing.
    Once interning hands that id out, the same bytes follow the rule
    for the new metadata."""
    regions = RegionPair(0x100000, 0x110000, 0x300000, 0x310000)
    machine = Machine()
    codec = machine.codec
    number = machine.phys.alloc()
    frame = machine.phys.frame(number)
    forged_id = len(_intern_table(machine)) + 1
    cursor = 0x100040
    raw = GRANULE.pack(cursor, forged_id)
    frame.write_granule(0x80, raw, 1)
    before = frame.snapshot_content()
    version = frame.version

    interned = _intern_table(machine)
    assert relocate_frame(machine, frame, regions) == 0
    assert frame.snapshot_content() == before
    assert frame.version == version
    assert _intern_table(machine) == interned
    assert machine.counters.get("caps_relocated") == 0

    meta = (0x100000, 0x100, int(Perm.data_rw()), OTYPE_UNSEALED)
    assert codec.intern(meta) == forged_id
    assert relocate_frame(machine, frame, regions) == 1
    moved_id = codec.intern((0x300000, 0x100, int(Perm.data_rw()),
                             OTYPE_UNSEALED))
    assert frame.read(0x80, CAP_SIZE) == GRANULE.pack(cursor + regions.delta,
                                                      moved_id)
    assert frame.tagged_granules() == [0x80]
    assert frame.version == version + 1


def test_fork_memo_relocates_a_forged_id_once_interned():
    """Fork's run memo never replays a page holding a granule whose meta
    id is not interned yet: fork, intern that id, fork again, and the
    copies come out as per-frame relocation leaves them."""
    regions = RegionPair(0x100000, 0x110000, 0x300000, 0x310000)
    meta = (0x100000, 0x100, int(Perm.data_rw()), OTYPE_UNSEALED)

    def forks(reference):
        machine = Machine()
        phys = machine.phys
        number = phys.alloc()
        forged_id = len(_intern_table(machine)) + 1
        phys.frame(number).write_granule(
            0x80, GRANULE.pack(0x100040, forged_id), 1)
        counts, copies = [], []
        for fork in range(2):
            if fork:
                assert machine.codec.intern(meta) == forged_id
            dsts = phys.copy_frames([number])
            counts.append(
                _per_frame(machine, dsts, regions) if reference
                else relocate_copied_frames(machine, phys, [number], dsts,
                                            regions))
            copies += dsts
        return {
            "counts": counts,
            "content": [phys.frame(n).snapshot_content() for n in copies],
            "now_ns": machine.clock.now_ns,
            "counters": machine.counters.snapshot(),
            "meta": _intern_table(machine),
        }

    ours = forks(reference=False)
    assert ours == forks(reference=True)
    assert ours["counts"] == [[0], [1]]
