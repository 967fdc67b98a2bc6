"""The invariants' caches are exact.

:func:`repro.sec.auditor.audit_cap_flow` visits only tagged pages and
skips a page whose ``Frame.version`` was last audited clean under the
same ``(frame, lo, hi, region base, region top, gate triple)``; it also
re-reads only the vpn ranges the space's edit journal names since a
μprocess's last audit (``Process.audit_cache``), and the share-note
check reuses its per-space sweep the same way.  Two kinds of check keep
that sound:

* **differentials** at every preemption point of the explorer corpus,
  under the farm's chaos mix and at 1, 2 and 4 CPUs (a small slice in
  tier-1, the whole corpus at every CPU count under ``-m farm``): the
  audit against :func:`reference_audit` below — the from-scratch loop
  over every mapped page and every tagged granule, with no memo — and
  the whole :func:`~repro.conform.invariants.check_invariants` list
  against a run with every cache emptied (:func:`from_scratch`), string
  for string and in order;
* **targeted cases**: after a clean audit has filled the caches, each
  change to a cached verdict's inputs is caught at the very next audit,
  and a violating page is reported again at every later one.
"""

from __future__ import annotations

import pytest

import repro.conform.explorer as explorer_module
import repro.conform.invariants as invariants
from repro.apps.guest import GuestContext
from repro.apps.hello import hello_world_image
from repro.cheri.codec import GRANULE
from repro.conform import farm
from repro.conform.explorer import explore
from repro.conform.scenarios import by_name
from repro.core import CopyStrategy, UForkOS
from repro.core.isolation import make_syscall_gate
from repro.core.strategies import ShareNote, iter_share_notes
from repro.core.ufork import GATE_ADDR
from repro.hw.paging import AccessKind, PagePerm
from repro.harness.matrix import SWEEP_CPUS
from repro.machine import Machine
from repro.sec.auditor import _audit_cap, _gate_key, audit_cap_flow

PAGE = 4096


def reference_audit(os_):
    """The audit with no memo and no tagged-page filter: every mapped
    page of every live μprocess, every tagged granule decoded."""
    machine = os_.machine
    page = machine.config.page_size
    violations = []
    for proc in os_.procs.alive():
        space = os_.space_of(proc)
        base, top = proc.region_base, proc.region_top
        shm_vpns = getattr(proc, "shm_vpns", set())
        gate_key = _gate_key(proc)
        for vpn, frame_no, _perms, _cow, raw_note in \
                space.mapped_items(base // page, top // page):
            if vpn in shm_vpns or not machine.phys.contains(frame_no):
                continue
            if isinstance(raw_note, ShareNote):
                lo = raw_note.regions.parent_base
                hi = raw_note.regions.parent_top
            else:
                lo, hi = base, top
            frame = machine.phys.frame(frame_no)
            for offset in frame.tagged_granules():
                cap = frame.load_cap(offset, machine.codec)
                _audit_cap(os_, proc, cap, f"vpn {vpn:#x}+{offset:#x}",
                           lo, hi, violations, gate_key)
        for task in proc.tasks:
            for name, cap in task.registers.cap_registers():
                _audit_cap(os_, proc, cap, f"register {name}",
                           base, top, violations, gate_key)
    return violations


def from_scratch(os_):
    """``check_invariants(os_)`` with every invariant cache emptied: no
    ``Process.audit_cache``, no share-note sweep and no page memo.  The
    caches are put back afterwards, so the incremental checks carry on
    from exactly the state they left."""
    machine = os_.machine
    procs = os_.procs.all()
    spaces = list({id(space): space for space in
                   map(os_.space_of, os_.procs.alive())}.values())
    saved = ([proc.audit_cache for proc in procs],
             [space.share_sweep for space in spaces],
             dict(machine._audit_memo))
    for proc in procs:
        proc.audit_cache = None
    for space in spaces:
        space.share_sweep = None
    machine._audit_memo.clear()
    try:
        return invariants.check_invariants(os_)
    finally:
        caches, sweeps, memo = saved
        for proc, cache in zip(procs, caches):
            proc.audit_cache = cache
        for space, sweep in zip(spaces, sweeps):
            space.share_sweep = sweep
        machine._audit_memo.clear()
        machine._audit_memo.update(memo)


def stale_caches(os_):
    """Right after a check, each live μprocess's audit cache and each of
    its spaces' share-note sweeps must hold what a sweep from scratch
    reads now: a stale cache would hide a violation that a run with no
    violations cannot show.  Returns the stale ones."""
    page = os_.machine.config.page_size
    stale = []
    spaces = []
    for proc in os_.procs.alive():
        space = os_.space_of(proc)
        if all(space is not seen for seen in spaces):
            spaces.append(space)
        shm_vpns = getattr(proc, "shm_vpns", set())
        pages = [item for item in space.mapped_items(
                     proc.region_base // page, proc.region_top // page)
                 if item[0] not in shm_vpns]
        cache = proc.audit_cache
        frames = [item[1] for item in pages]
        if cache.pages != pages or cache.frames != frames or any(
                seen is not None and seen != now for seen, now in
                zip(cache.versions, os_.machine.phys.versions(frames))):
            stale.append(f"pid {proc.pid}: audit cache")
    for space in spaces:
        rows = [invariants._share_verdicts(*item)
                for item in iter_share_notes(space)]
        if space.share_sweep.rows != rows:
            stale.append(f"{space.name}: share-note sweep")
    return stale


# ---------------------------------------------------------------------------
# Differential over the explorer corpus
# ---------------------------------------------------------------------------

def explore_differentially(monkeypatch, units):
    """Explore ``units`` at the farm's depth, budget and chaos mix,
    auditing both ways and checking the invariants both ways at every
    preemption point.  Returns the number of audits, the number of memo
    entries that were current when an audit began (pages the memo could
    skip) and the mismatches."""
    tally = {"audits": 0, "checks": 0, "current": 0}
    mismatches = []
    cap_flow = invariants._check_cap_flow

    def both_ways(os_):
        phys = os_.machine.phys
        tally["current"] += sum(
            1 for key, version in os_.machine._audit_memo.items()
            if phys.contains(key[0]) and phys.frame(key[0]).version
            == version)
        memoised = audit_cap_flow(os_)
        reference = reference_audit(os_)
        tally["audits"] += 1
        if memoised != reference:
            mismatches.append((memoised, reference))
        return memoised

    def whole_list(os_):
        incremental = invariants.check_invariants(os_)
        stale = stale_caches(os_)
        if stale:
            mismatches.append(stale)
        # the from-scratch run audits through the unpatched cap-flow
        # check, so the reference audit above runs once per point
        invariants._check_cap_flow = cap_flow
        try:
            fresh = from_scratch(os_)
        finally:
            invariants._check_cap_flow = both_ways
        tally["checks"] += 1
        if incremental != fresh:
            mismatches.append((incremental, fresh))
        return incremental

    monkeypatch.setattr(invariants, "_check_cap_flow", both_ways)
    monkeypatch.setattr(explorer_module, "check_invariants", whole_list)
    for index, unit in enumerate(units):
        explore(by_name(unit["scenario"]), strategy=unit["strategy"],
                num_cpus=unit["cpus"], seed=index,
                depth_bound=farm.DEFAULT_DEPTH, budget=farm.DEFAULT_BUDGET,
                chaos_mix=farm.DEFAULT_CHAOS_MIX)
    # every audit ran inside a checked check_invariants call
    assert tally["checks"] == tally["audits"]
    return tally["audits"], tally["current"], mismatches


#: the tier-1 slice: one scenario of each corpus (host-differential,
#: snapshot, sec), every strategy
SLICE = ("pipe-grandchild", "snapshot-nested", "sec-probe-across-fork")


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_memo_matches_reference_on_an_explorer_slice(monkeypatch, cpus):
    units = farm.plan_units(scenario_names=SLICE, cpus=[cpus])
    audits, current, mismatches = explore_differentially(monkeypatch, units)
    assert mismatches == []
    assert audits > 100
    assert current > 0, "the memo never had a page to skip"


@pytest.mark.farm
@pytest.mark.parametrize("cpus", SWEEP_CPUS)
def test_memo_matches_reference_on_the_whole_corpus(monkeypatch, cpus):
    audits, current, mismatches = explore_differentially(
        monkeypatch, farm.plan_units(cpus=[cpus]))
    assert mismatches == []
    assert audits > 1000
    assert current > 0


# ---------------------------------------------------------------------------
# Targeted soundness cases
# ---------------------------------------------------------------------------

def boot(strategy=CopyStrategy.COPA):
    return UForkOS(machine=Machine(), copy_strategy=strategy)


def spawn(os_, name):
    return GuestContext(os_, os_.spawn(hello_world_image(), name))


def memoised_versions(os_, frame_no):
    return [version for key, version in os_.machine._audit_memo.items()
            if key[0] == frame_no]


def audit_both(os_):
    violations = audit_cap_flow(os_)
    assert violations == reference_audit(os_)
    return violations


def test_foreign_capability_in_a_clean_page_is_caught():
    os_ = boot()
    a = spawn(os_, "a")
    b = spawn(os_, "b")
    holder = b.malloc(16)
    b.store_cap(holder, b.malloc(16))
    frame_no = os_.space.frame_of(holder.base // PAGE)
    assert audit_both(os_) == []
    version = os_.machine.phys.frame(frame_no).version
    assert memoised_versions(os_, frame_no) == [version]

    os_.space.store_cap(holder.base, a.reg("csp"), privileged=True)
    first = audit_both(os_)
    assert len(first) == 1
    assert first[0].startswith(f"pid {b.pid} @ vpn ")
    assert "escapes the μprocess region" in first[0]
    # never memoised: reported again, text rebuilt, at every audit
    for _ in range(3):
        assert audit_both(os_) == first
        assert memoised_versions(os_, frame_no) == [version]


def test_granule_with_a_meta_id_not_interned_yet_is_reaudited():
    """A tagged granule naming a meta id nobody has interned decodes to
    an invalid capability, so it passes; once ``intern`` hands that id
    out it decodes to a real capability, which the next audit must
    judge exactly as a fresh-memo audit does."""
    os_ = boot()
    a = spawn(os_, "a")
    b = spawn(os_, "b")
    holder = b.malloc(16)
    codec = os_.machine.codec
    forged_id = len(codec._meta_to_id) + 3
    foreign = a.reg("csp")
    frame, offset = os_.space.resolve(holder.base, AccessKind.WRITE,
                                      privileged=True)
    frame.write_granule(offset, GRANULE.pack(foreign.base, forged_id), 1)
    assert audit_both(os_) == []
    assert memoised_versions(os_, frame.number) == []

    fillers = [(0, 16 * (n + 1), 0, foreign.otype) for n in range(2)]
    for meta in fillers:
        assert codec.meta(codec.intern(meta)) == meta
    escaping = (foreign.base, foreign.length + 16, int(foreign.perms),
                foreign.otype)
    assert codec.intern(escaping) == forged_id
    violations = audit_both(os_)
    assert len(violations) == 1
    assert violations[0].startswith(
        f"pid {b.pid} @ vpn {holder.base // PAGE:#x}+")
    assert "escapes the μprocess region" in violations[0]


def test_reallocated_frame_number_is_reaudited():
    """A freed frame number handed to another μprocess (same region,
    same bounds) must not inherit the clean verdict: ``version`` never
    repeats for a frame number."""
    os_ = boot()
    a = spawn(os_, "a")
    b = spawn(os_, "b")
    holder = b.malloc(16)
    b.store_cap(holder, b.malloc(16))
    assert audit_both(os_) == []
    region = (b.proc.region_base, b.proc.region_top)
    clean = {key[0]: version
             for key, version in os_.machine._audit_memo.items()
             if key[3:5] == region}
    assert clean
    b.exit(0)

    c = spawn(os_, "c")
    assert (c.proc.region_base, c.proc.region_top) == region
    mapped = {frame: vpn for vpn, frame, *_ in
              os_.space.mapped_items(region[0] // PAGE, region[1] // PAGE)}
    reused = sorted(clean.keys() & mapped.keys())
    assert reused
    phys = os_.machine.phys
    for frame_no in reused:
        assert phys.frame(frame_no).version > clean[frame_no]

    vpn = mapped[reused[0]]
    os_.space.store_cap(vpn * PAGE, a.reg("csp"), privileged=True)
    violations = audit_both(os_)
    assert len(violations) == 1
    assert violations[0].startswith(f"pid {c.pid} @ vpn {vpn:#x}+0x0:")


def test_sentry_is_reaudited_when_the_gate_changes():
    os_ = boot()
    ctx = spawn(os_, "app")
    holder = ctx.malloc(16)
    os_.space.store_cap(holder.base, ctx.proc.syscall_gate, privileged=True)
    frame_no = os_.space.frame_of(holder.base // PAGE)
    assert audit_both(os_) == []
    assert memoised_versions(os_, frame_no)

    ctx.proc.syscall_gate = make_syscall_gate(os_.kernel_code_cap,
                                              GATE_ADDR + 0x100)
    violations = audit_both(os_)
    assert any(v.startswith(f"pid {ctx.pid} @ vpn ")
               and "sentry does not match" in v for v in violations)


def test_shared_page_going_private_is_reaudited():
    """A fork-shared page is held to its donor's region; once private
    (no ``ShareNote``) the same bytes are held to the child's own."""
    os_ = boot(CopyStrategy.COPA)
    parent = spawn(os_, "parent")
    child = parent.fork()
    lo, hi = child.proc.region_base // PAGE, child.proc.region_top // PAGE
    shared = [(vpn, frame) for vpn, frame, _perms, _cow, note
              in os_.space.mapped_items(lo, hi)
              if isinstance(note, ShareNote)]
    tagged = os_.machine.phys.tagged_frames([frame for _, frame in shared])
    assert tagged
    vpn, frame_no = shared[tagged[0]]
    assert audit_both(os_) == []
    assert memoised_versions(os_, frame_no)

    os_.space.set_note(vpn, None)
    violations = audit_both(os_)
    assert any(v.startswith(f"pid {child.pid} @ vpn {vpn:#x}+")
               and f"minted for pid {parent.pid}" in v for v in violations)


def test_share_note_sweep_follows_writes_and_frees():
    """The share-note sweep is reused only while the space's journal
    shows no write: a widened permission and a note replaced by one of
    unknown role are reported at the very next check, and so is a frame
    freed under a note, which writes no page-table entry at all — each
    exactly as a from-scratch check reports it."""
    os_ = boot(CopyStrategy.COPA)
    spawn(os_, "parent").fork()
    space, phys = os_.space, os_.machine.phys
    wide = PagePerm.rwc() | PagePerm.EXEC
    vpn, frame, perms, note = next(item for item in iter_share_notes(space)
                                   if item[3].role == "child"
                                   and item[3].orig_perms != wide)

    def check():
        found = invariants.check_invariants(os_)
        assert found == from_scratch(os_)
        return found

    assert check() == []
    space.protect_page(vpn, wide)
    assert [v for v in check() if v.startswith("share:")] == [
        f"share: vpn {vpn:#x} perms {wide!r} wider than pre-share "
        f"{note.orig_perms!r}"]
    space.protect_page(vpn, PagePerm(perms))
    space.set_note(vpn, note._replace(role="sibling"))
    assert [v for v in check() if v.startswith("share:")] == [
        f"share: vpn {vpn:#x} has unknown role 'sibling'"]
    space.set_note(vpn, note)
    assert check() == []

    while phys.contains(frame):
        phys.decref(frame)
    try:
        assert f"share: vpn {vpn:#x} notes freed frame {frame}" in check()
    finally:
        # drop the dangling mappings so the teardown audit sees a
        # consistent kernel
        for dangling, *_ in [item for item in iter_share_notes(space)
                             if item[1] == frame]:
            space.unmap_page(dangling, decref=False)
    assert check() == []
