"""A parent's second FULL_COPY fork against copy-then-relocate.

The second fork of one parent finds its relocated pages in the run
memo (:func:`repro.core.relocate.relocate_copied_frames`).  Fork plans
the relocation before it copies (:func:`plan_copied_frames`) and hands
the memo's replays to the copy (``copy_frames(stored=...)``), which
writes them in place of the sources' bytes, so each of their pages is
written once.  The reference kept here is the sequence that writes
them twice: ``copy_frames`` of every page, then
``relocate_copied_frames`` planning and replaying on its own.  Both
must leave every destination with the same bytes, tags and version, and
the machine with the same clock, buckets, counters, chaos log and
ordered tracer stream — clean, under injected tag clears (which recover
replayed pages too) and under injected tag clears plus allocation
failures (which abort the forks part-way).  ``copy_frames(stored=...)``
itself is checked position by position on random batches.

Copy provenance lets the copy skip the stores of destinations that
already hold what it would write: a parent forked again, unchanged,
moves none of its pages' bytes (counted here with the held check on,
and with it made to miss, where every page is written once).  A fork
that dies part-way on an injected allocation failure leaves the memo
as it found it.
"""

from collections import Counter
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.ufork as ufork
import repro.hw.phys as phys_module
from repro.api import Session
from repro.apps.redis import MiniRedis, populate, redis_image
from repro.chaos import ChaosEngine, FaultMix
from repro.cheri.capability import Capability, Perm
from repro.cheri.codec import CapabilityCodec
from repro.errors import SimError
from repro.machine import Machine
from repro.trace import attach_tracer

#: what the reference fork plans: nothing, so ``copy_frames`` copies
#: every page and the relocation plans after the copy, as it did
_UNPLANNED = (None, (), None)

MIXES = (None, "hw.phys.tag_clear=0.2",
         "hw.phys.tag_clear=0.2,hw.phys.alloc_fail=0.2")


def _second_fork(monkeypatch, reference, chaos, held=True):
    """Fork a populated Redis parent twice (the first fork warms the
    memo); return what the second fork left and the pages it stored.
    ``held=False`` makes every copy-provenance check miss."""
    if not held:
        monkeypatch.setattr(phys_module.PhysicalMemory, "_holds",
                            lambda *args: False)
    session = Session(strategy="full", cpus=1, seed=7).boot()
    machine = session.machine
    parent = session.spawn(redis_image(64 * 1024), "redis")
    populate(MiniRedis(parent, nbuckets=16), 64 * 1024, value_size=4096)
    relocate = ufork.relocate_copied_frames
    plan_copied_frames = ufork.plan_copied_frames
    batches = []
    planned = []
    stores = Counter()

    def planning(*args):
        planned.append(_UNPLANNED if reference
                       else plan_copied_frames(*args))
        return planned[-1]

    def relocating(machine, phys, srcs, dsts, regions, plan=None,
                   remember=True):
        caps = relocate(machine, phys, srcs, dsts, regions, plan=plan,
                        remember=remember)
        batches.append((list(srcs), list(dsts), caps,
                        [phys.frame(number).snapshot_content()
                         for number in dsts],
                        phys.versions(dsts), list(planned[-1][1])))
        return caps

    monkeypatch.setattr(ufork, "relocate_copied_frames", relocating)
    monkeypatch.setattr(ufork, "plan_copied_frames", planning)
    child = parent.fork()
    child.exit(0)
    assert parent.wait(child.pid) == (child.pid, 0)
    del batches[:]
    if chaos is not None:
        ChaosEngine(seed=3, mix=FaultMix.parse(chaos)).attach(machine)
    trace = attach_tracer(machine)
    _count_stores(monkeypatch, stores)
    try:
        outcome = parent.fork().pid
    except SimError as error:
        outcome = (type(error).__name__, str(error))
    monkeypatch.undo()
    state = {
        "outcome": outcome,
        "batches": [batch[:5] for batch in batches],
        "clock": machine.clock.now_ns,
        "buckets": dict(machine.clock.buckets),
        "counters": machine.counters.snapshot(),
        "trace": [(event.event, event.fields) for event in trace.events],
    }
    if chaos is not None:
        state["chaos"] = machine.chaos.export()
    return state, batches, stores


def _count_stores(monkeypatch, stores):
    """Count, per destination frame, the whole-page data stores: the
    bank-run copy's pieces, a recovery ``Frame.copy_from`` and the
    memo replays' stores (in ``copy_frames`` and ``restore_contents``)."""
    copy_runs = phys_module.PhysicalMemory._copy_runs
    copy_from = phys_module.Frame.copy_from
    store = phys_module.PhysicalMemory._store

    def copying_runs(phys, srcs, dsts, pieces, preserve_tags):
        pieces = list(pieces)
        for start, end in pieces:
            stores.update(dsts[start:end])
        copy_runs(phys, srcs, dsts, pieces, preserve_tags)

    def copying(frame, other, preserve_tags=True):
        stores[frame.number] += 1
        copy_from(frame, other, preserve_tags)

    def storing(phys, first, count, data, tags, at):
        stores.update(range(first, first + count))
        store(phys, first, count, data, tags, at)

    monkeypatch.setattr(phys_module.PhysicalMemory, "_copy_runs",
                        copying_runs)
    monkeypatch.setattr(phys_module.Frame, "copy_from", copying)
    monkeypatch.setattr(phys_module.PhysicalMemory, "_store", storing)


@pytest.mark.parametrize("chaos", MIXES)
def test_second_fork_matches_copy_then_relocate(monkeypatch, chaos):
    state, batches, stores = _second_fork(monkeypatch, False, chaos)
    expected, _reference, _ = _second_fork(monkeypatch, True, chaos)
    assert state == expected
    if chaos is None or "alloc_fail" not in chaos:
        # the fork went through, and the memo replayed pages whole
        assert isinstance(state["outcome"], int)
        (_srcs, dsts, _caps, _content, _versions, stored), = batches
        replayed = [dsts[index] for start, end, *_replay in stored
                    for index in range(start, end)]
        assert replayed
        if chaos is not None:
            # injected tag clears hit replayed pages too, and their
            # recovery copies them again before the replay
            assert 2 in [stores[number] for number in replayed]


def test_replayed_pages_are_stored_once(monkeypatch):
    # the destinations' provenance made to miss: every page is written
    _state, batches, stores = _second_fork(monkeypatch, False, None,
                                           held=False)
    _, _batches, reference_stores = _second_fork(monkeypatch, True, None,
                                                 held=False)
    (_srcs, dsts, _caps, _content, _versions, stored), = batches
    assert stored
    assert {number: stores[number] for number in dsts} == \
        dict.fromkeys(dsts, 1)
    # the reference copies, then replays: its replayed pages twice
    replayed = {dsts[index] for start, end, *_replay in stored
                for index in range(start, end)}
    assert {number: reference_stores[number] for number in dsts} == {
        number: 2 if number in replayed else 1 for number in dsts}


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.booleans(), st.booleans()),
                min_size=1, max_size=40))
def test_copy_frames_writes_replays_in_place_of_sources(pages):
    """``copy_frames(stored=...)`` against what each position should
    hold: a stored position's destination gets its replay's page, any
    other its source's; versions go up by two and one.  Each page is
    ``(gap before its source, stored, tagged)``; the stored ranges are
    the stretches of stored positions, so one-page gaps between them are
    drawn too.  The batch is copied three times into the same numbers
    (each round frees the last one's destinations): the second round
    finds every destination holding what it writes, the third replays
    other content under another context, which must be written."""
    phys = Machine().phys
    codec = CapabilityCodec()
    numbers = phys.alloc_run(sum(gap for gap, _stored, _tagged in pages))
    srcs, at = [], -1
    for index, (gap, _stored, tagged) in enumerate(pages):
        at += gap
        srcs.append(numbers[at])
        frame = phys.frame(numbers[at])
        frame.write(0, bytes([index + 1]) * 64)
        if tagged:
            frame.store_cap(16, Capability(base=0, length=64, cursor=0,
                                           perms=Perm.data_rw()), codec)
    spares = phys.alloc_run(len(pages))
    for number in spares:
        phys.frame(number).write(0, b"\xee" * 64)
    phys.decref_many(sorted(spares))
    page_size = phys.frame(numbers[0]).data.nbytes
    granules = page_size // 16
    ranges, at = [], 0
    for flag, run in groupby(stored_flag for _gap, stored_flag, _t in pages):
        width = len(list(run))
        if flag:
            ranges.append((at, at + width))
        at += width
    first, other = phys_module.new_context(), phys_module.new_context()
    for context, fill in ((first, 0xa0), (first, 0xa0), (other, 0xb0)):
        stored = [(lo, hi,
                   b"".join(bytes([fill + index % 16]) * page_size
                            for index in range(lo, hi)),
                   b"\x01\x00" * (granules // 2) * (hi - lo), context)
                  for lo, hi in ranges]
        before = dict(zip(spares, phys.versions(spares)))
        dsts = phys.copy_frames(srcs, stored=stored)
        assert sorted(dsts) == sorted(spares)
        for index, (src, dst) in enumerate(zip(srcs, dsts)):
            inside = any(lo <= index < hi for lo, hi in ranges)
            content = phys.frame(dst).snapshot_content()
            if inside:
                assert content == (bytes([fill + index % 16]) * page_size,
                                   b"\x01\x00" * (granules // 2))
            else:
                assert content == phys.frame(src).snapshot_content()
            assert phys.versions([dst]) == [before[dst] + 1 + inside]
        phys.decref_many(sorted(dsts))


def test_unchanged_parent_refork_moves_no_bytes(monkeypatch):
    """The claim of copy provenance, on a ``fork_full``-style parent (a
    populated 1 MiB MiniRedis): its first fork writes every copied page,
    the child's exit frees those frames, and the second and third forks,
    taking the same numbers, move none of the 1,228 pages' bytes —
    copies and memo replays alike (so a fork refreshes the provenance of
    the runs it holds, too)."""
    session = Session(strategy="full", cpus=1, seed=7).boot()
    parent = session.spawn(redis_image(1024 * 1024), "redis")
    populate(MiniRedis(parent, nbuckets=256), 1024 * 1024,
             value_size=4096)
    phys = session.machine.phys
    moved = []
    for _round in range(3):
        stores = Counter()
        _count_stores(monkeypatch, stores)
        taken = phys.allocated_frames
        child = parent.fork()
        monkeypatch.undo()
        moved.append((phys.allocated_frames - taken, sum(stores.values())))
        child.exit(0)
        assert parent.wait(child.pid) == (child.pid, 0)
    assert moved == [(1228, 1228), (1228, 0), (1228, 0)]


def test_failed_fork_leaves_the_memo_as_it_found_it(monkeypatch):
    """A FULL_COPY fork that dies part-way on an injected allocation
    failure relocates the prefix it copied, but memoises none of it: no
    retry copies that prefix again."""
    remembered = []
    relocate = ufork.relocate_copied_frames

    def relocating(*args, **kwargs):
        remembered.append(kwargs["remember"])
        return relocate(*args, **kwargs)

    monkeypatch.setattr(ufork, "relocate_copied_frames", relocating)
    failures = 0
    for seed in range(8):
        session = Session(strategy="full", cpus=1, seed=7).boot()
        machine = session.machine
        parent = session.spawn(redis_image(64 * 1024), "redis")
        populate(MiniRedis(parent, nbuckets=16), 64 * 1024,
                 value_size=4096)
        ChaosEngine(seed=seed, mix=FaultMix.parse(MIXES[2])).attach(machine)
        for _attempt in range(3):
            before = _memo_state(machine)
            try:
                child = parent.fork()
            except SimError:
                failures += 1
                assert _memo_state(machine) == before
                continue
            child.exit(0)
            assert parent.wait(child.pid) == (child.pid, 0)
    assert failures and False in remembered


def _memo_state(machine):
    """The run memo's entries (their version runs copied) and page
    count; an absent memo reads as an empty one."""
    memo = getattr(machine, "_run_memo", None)
    if memo is None:
        return {}, 0
    return ({key: (versions[:], runs)
             for key, (versions, runs) in memo.items()}, memo.pages)
