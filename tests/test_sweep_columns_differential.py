"""The page table's column sweep and the version column's run bump,
against per-vpn and per-number references.

:meth:`AddressSpace.mapped_columns` builds its columns from slices of
each chunk window's runs of mapped slots (a fully mapped chunk's window
is one run; others are read off each slot's top byte);
``mapped_items`` is its row view, and ``unmap_range`` releases what the
same windows hold.  Random tables — holes, whole chunks, runs across
the 512-vpn chunk boundaries, notes, CoW marks and protections, with
pages unmapped again — are swept over random ranges (empty and
one-page ones included) and checked vpn by vpn against ``frame_of``,
``note_of``, ``pte`` and a model of each mapping kept here.  Reads in
between fill the walk cache, which must only ever hold mapped vpns
(``map_page`` and ``map_run`` rely on it).

:meth:`PhysicalMemory.bump_versions` adds one to a run of the version
column as one big-integer add; it is checked against a per-number
``+= 1`` loop over runs that cross a bank boundary, before and after a
bank is added.  ``consecutive_runs`` of a frame column (an
``array('q')``, compared as one integer) must split as it does for the
same numbers in a list.
"""

import random
from array import array

from hypothesis import given, settings, strategies as st

from repro.hw.paging import CHUNK, AccessKind, AddressSpace, PagePerm
from repro.hw.phys import BANK_FRAMES, consecutive_runs
from repro.machine import Machine

#: the vpn window the random tables live in: three chunk boundaries
LO = CHUNK - 40
HI = 3 * CHUNK + 40

vpns = st.integers(LO, HI - 1)
perms = st.integers(0, 15)
notes = st.sampled_from([None, None, "a", ("b", 1)])

ops = st.one_of(
    st.tuples(st.just("run"), vpns, st.integers(1, 80), perms,
              st.booleans(), notes),
    st.tuples(st.just("chunk"), st.integers(1, 2), perms, st.booleans()),
    st.tuples(st.just("page"), vpns, perms, st.booleans(), notes),
    st.tuples(st.just("unmap"), vpns, st.integers(0, 600)),
    st.tuples(st.just("unpage"), vpns),
    st.tuples(st.just("protect"), vpns, st.integers(1, 40), perms,
              st.booleans()),
    st.tuples(st.just("note"), vpns, notes),
    st.tuples(st.just("touch"), vpns),
)


def _unmap(space, model, lo, hi):
    space.unmap_range(lo, hi)
    for vpn in [vpn for vpn in model if lo <= vpn < hi]:
        del model[vpn]


def _apply(space, model, op):
    """Run ``op`` on the space and on the model of its mappings,
    ``vpn -> (frame, perms, cow, note)``."""
    phys = space.machine.phys
    kind = op[0]
    if kind == "run":
        _, start, count, perm, cow, note = op
        count = min(count, HI - start)
        _unmap(space, model, start, start + count)
        frames = phys.alloc_run(count)
        space.map_run(start, frames, PagePerm(perm), cow=cow, note=note)
        for offset, frame in enumerate(frames):
            model[start + offset] = (frame, perm, cow, note)
    elif kind == "chunk":
        _, chunk, perm, cow = op
        base = chunk * CHUNK
        _unmap(space, model, base, base + CHUNK)
        frames = phys.alloc_run(CHUNK)
        space.map_run(base, frames, PagePerm(perm), cow=cow)
        for offset, frame in enumerate(frames):
            model[base + offset] = (frame, perm, cow, None)
    elif kind == "page":
        _, vpn, perm, cow, note = op
        if vpn in model:
            space.unmap_page(vpn)
        frame = phys.alloc(zero=False, charge=False)
        space.map_page(vpn, frame, PagePerm(perm), cow=cow, note=note)
        model[vpn] = (frame, perm, cow, note)
    elif kind == "unmap":
        _, lo, width = op
        _unmap(space, model, lo, min(lo + width, HI))
    elif kind == "unpage":
        if op[1] in model:
            space.unmap_page(op[1])
            del model[op[1]]
    elif kind == "protect":
        _, start, count, perm, cow = op
        run = range(start, min(start + count, HI))
        if all(vpn in model for vpn in run):
            space.protect_run(start, len(run), PagePerm(perm), cow=cow)
            for vpn in run:
                frame, _perm, _cow, note = model[vpn]
                model[vpn] = (frame, perm, cow, note)
    elif kind == "note":
        _, vpn, note = op
        if vpn in model:
            space.set_note(vpn, note)
            model[vpn] = model[vpn][:3] + (note,)
    else:
        try:
            space.resolve(op[1] * space.machine.config.page_size,
                          AccessKind.READ)
        except Exception:
            pass


def _check_sweep(space, model, lo, hi):
    vpns, frames, perm_column, cows, note_column = \
        space.mapped_columns(lo, hi)
    expected = [vpn for vpn in range(lo, hi) if vpn in model]
    assert vpns == expected
    assert list(frames) == [space.frame_of(vpn) for vpn in expected] == \
        [model[vpn][0] for vpn in expected]
    assert list(perm_column) == [model[vpn][1] for vpn in expected]
    assert list(cows) == [int(model[vpn][2]) for vpn in expected]
    noted = [space.note_of(vpn) for vpn in expected]
    assert noted == [model[vpn][3] for vpn in expected]
    if any(entry[3] is not None for entry in model.values()):
        assert note_column == noted
    else:
        assert note_column is None
        note_column = [None] * len(vpns)
    assert space.mapped_items(lo, hi) == list(
        zip(vpns, frames, perm_column, cows, note_column))
    assert [space.pte(vpn) for vpn in range(lo, hi)] == [
        model[vpn][:3] if vpn in model else None for vpn in range(lo, hi)]


@settings(max_examples=80, deadline=None)
@given(st.lists(ops, max_size=14), st.lists(st.tuples(vpns, vpns),
                                            max_size=4),
       vpns, st.integers(0, 700))
def test_sweep_matches_per_vpn_reference(program, ranges, drop, width):
    machine = Machine()
    space = AddressSpace(machine, "sweep")
    model = {}
    for op in program:
        _apply(space, model, op)
        assert set(space._walk_cache) <= set(model)
    for lo, hi in ranges + [(LO, HI), (0, 1 << 20), (drop, drop),
                            (drop, drop + 1), (CHUNK, 2 * CHUNK),
                            (2 * CHUNK - 1, 2 * CHUNK + 1)]:
        _check_sweep(space, model, lo, hi)
    # teardown releases the same windows' frames, in ascending vpn
    # order, as one batch
    released = []
    decref_many = machine.phys.decref_many
    machine.phys.decref_many = lambda numbers: (
        released.append(list(numbers)), decref_many(numbers))
    hi = min(drop + width, HI)
    expected = [model[vpn][0] for vpn in sorted(model) if drop <= vpn < hi]
    assert space.unmap_range(drop, hi) == len(expected)
    assert released == ([expected] if expected else [])
    for vpn in range(drop, hi):
        model.pop(vpn, None)
    _check_sweep(space, model, LO, HI)
    assert set(space._walk_cache) <= set(model)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bump_versions_matches_per_number_loop(data):
    machine = Machine()
    phys = machine.phys
    phys.alloc_run(BANK_FRAMES + 40)
    top = len(phys._versions)
    rng = random.Random(data.draw(st.integers(0, 1 << 32), "seed"))
    for number in range(1, top):
        phys._versions[number] = rng.choice((0, 1, rng.randrange(1 << 62)))

    def bump(first, count):
        expected = list(phys.version_run(0, top))
        for number in range(first, first + count):
            expected[number] += 1
        phys.bump_versions(first, count)
        assert list(phys.version_run(0, top)) == expected

    # a run inside a bank, one across the first bank boundary
    first = data.draw(st.integers(1, top - 1), "first")
    bump(first, data.draw(st.integers(0, top - first), "count"))
    start = data.draw(st.integers(BANK_FRAMES - 30, BANK_FRAMES), "start")
    bump(start, data.draw(st.integers(2, 60), "across"))
    # another bank: the column grew in place, and a run ends in it
    phys.alloc_run(top - phys.allocated_frames + 20)
    top = len(phys._versions)
    assert top > 2 * BANK_FRAMES
    start = data.draw(st.integers(BANK_FRAMES + 1, 2 * BANK_FRAMES), "late")
    bump(start, data.draw(st.integers(1, top - start), "late count"))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2, 3), max_size=40), st.integers(0, 1 << 40))
def test_frame_column_runs_match_list_runs(steps, first):
    numbers = []
    for step in steps:
        numbers.append(numbers[-1] + step if numbers else first)
    if min(numbers, default=0) < 0:
        return
    assert consecutive_runs(array("q", numbers)) == consecutive_runs(numbers)
