"""A parent's second FULL_COPY fork against copy-then-relocate.

The second fork of one parent finds its relocated pages in the run
memo (:func:`repro.core.relocate.relocate_copied_frames`).  Fork plans
the relocation before it copies (:func:`plan_copied_frames`) and leaves
the destinations the memo replays whole out of the bulk copy
(``copy_frames(stored=...)``), so each of their pages is written once,
by the replay.  The reference kept here is the sequence that writes
them twice: ``copy_frames`` of every page, then
``relocate_copied_frames`` planning on its own.  Both must leave every
destination with the same bytes, tags and version, and the machine
with the same clock, buckets, counters, chaos log and ordered tracer
stream — clean, under injected tag clears (which recover replayed
pages too) and under injected tag clears plus allocation failures
(which abort the forks part-way).  ``copy_frames(stored=...)`` itself is
checked position by position on random batches.
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


def _second_fork(monkeypatch, reference, chaos):
    """Fork a populated Redis parent twice (the first fork warms the
    memo); return what the second fork left and the pages it stored."""
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

    def relocating(machine, phys, srcs, dsts, regions, plan=None):
        caps = relocate(machine, phys, srcs, dsts, regions, plan=plan)
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
    memo's ``restore_contents``."""
    cut = phys_module._cut_at_banks
    copy_from = phys_module.Frame.copy_from
    restore = phys_module.PhysicalMemory.restore_contents

    def cutting(runs, *sequences):
        pieces = cut(runs, *sequences)
        if len(sequences) == 2:  # ``_copy_runs``: (srcs, dsts)
            for start, end in pieces:
                stores.update(sequences[1][start:end])
        return pieces

    def copying(frame, other, preserve_tags=True):
        stores[frame.number] += 1
        copy_from(frame, other, preserve_tags)

    def restoring(phys, numbers, data, tags):
        stores.update(numbers)
        restore(phys, numbers, data, tags)

    monkeypatch.setattr(phys_module, "_cut_at_banks", cutting)
    monkeypatch.setattr(phys_module.Frame, "copy_from", copying)
    monkeypatch.setattr(phys_module.PhysicalMemory, "restore_contents",
                        restoring)


@pytest.mark.parametrize("chaos", MIXES)
def test_second_fork_matches_copy_then_relocate(monkeypatch, chaos):
    state, batches, stores = _second_fork(monkeypatch, False, chaos)
    expected, _reference, _ = _second_fork(monkeypatch, True, chaos)
    assert state == expected
    if chaos is None or "alloc_fail" not in chaos:
        # the fork went through, and the memo replayed pages whole
        assert isinstance(state["outcome"], int)
        (_srcs, dsts, _caps, _content, _versions, stored), = batches
        replayed = [dsts[index] for start, end in stored
                    for index in range(start, end)]
        assert replayed
        if chaos is not None:
            # injected tag clears hit replayed pages too, and their
            # recovery copies them again before the replay
            assert 2 in [stores[number] for number in replayed]


def test_replayed_pages_are_stored_once(monkeypatch):
    _state, batches, stores = _second_fork(monkeypatch, False, None)
    _, _batches, reference_stores = _second_fork(monkeypatch, True, None)
    (_srcs, dsts, _caps, _content, _versions, stored), = batches
    assert stored
    assert {number: stores[number] for number in dsts} == \
        dict.fromkeys(dsts, 1)
    # the reference copies, then replays: its replayed pages twice
    replayed = {dsts[index] for start, end in stored
                for index in range(start, end)}
    assert {number: reference_stores[number] for number in dsts} == {
        number: 2 if number in replayed else 1 for number in dsts}


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.booleans(), st.booleans()),
                min_size=1, max_size=40))
def test_copy_frames_leaves_stored_positions_unwritten(pages):
    """``copy_frames(stored=...)`` against what each position should
    hold: a stored position's destination keeps its old bytes and tags,
    any other gets its source's, and every version goes up by one.
    Each page is ``(gap before its source, stored, tagged)``; the
    stored ranges are the stretches of stored positions, so one-page
    gaps between them are drawn too."""
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
    before = dict(zip(spares, phys.versions(spares)))
    stored, at = [], 0
    for flag, run in groupby(stored_flag for _gap, stored_flag, _t in pages):
        width = len(list(run))
        if flag:
            stored.append((at, at + width))
        at += width
    dsts = phys.copy_frames(srcs, stored=stored)
    for index, (src, dst) in enumerate(zip(srcs, dsts)):
        inside = any(lo <= index < hi for lo, hi in stored)
        content = phys.frame(dst).snapshot_content()
        if inside:
            assert content[0][:64] == b"\xee" * 64
            assert content[1] == bytes(len(content[1]))
        else:
            assert content == phys.frame(src).snapshot_content()
        assert phys.versions([dst]) == [before[dst] + 1]
