"""Absolute-memory-reference relocation (paper §4.2).

When μFork copies a page from the parent's area into the child's, the
copy is scanned in 16-byte (capability-granule) steps.  Granules whose
validity tag is set hold capabilities; any capability that points into
the parent's region — or whose bounds would let the child reach outside
its own region — is rebased by ``child_base - parent_base`` and its
bounds clamped to the child's region.  Sealed sentry capabilities (the
trapless syscall gates) are the one sanctioned cross-region reference
and are preserved.  Anything else pointing outside both regions is
invalidated, which is how μFork guarantees capabilities never leak
across μprocesses (§4.3).

The rule is written once, on capability *metadata*
(:func:`relocation_decision`): bounds, permissions and object type
alone decide whether a capability is kept, rebased, or rebased only if
its cursor lies in the parent (else invalidated).  Rebasing is then an
add on the cursor plus the rebased metadata, the same split hardware
CHERI makes between a capability's address and its compressed bounds.
:func:`relocate_cap` applies the rule to a :class:`Capability` (the
register file, snapshot restore); the page scan applies it to packed
``(cursor, meta id)`` granules read straight from the frame and builds
no :class:`Capability` at all.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from itertools import compress, groupby
from operator import ne
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

from repro import events
from repro.cheri.capability import OTYPE_SENTRY, Capability, _fast_cap
from repro.cheri.codec import CURSOR_MASK, GRANULE, Meta
from repro.cheri.regfile import RegisterFile
from repro.hw.phys import Frame, new_context

#: the fork relocation memo (:func:`relocate_copied_frames`) holds at
#: most this many pages (of post-relocation content, plus one per entry
#: for its source versions), or one batch's when that batch alone holds
#: more: it is emptied between batches, never in the middle of one, and
#: then keeps the batch just relocated, so its memory grows with the
#: image a single fork copies
_PAGE_MEMO_CAP = 4096

#: what :func:`relocation_decision` says about one capability metadata
KEEP = 0
#: rebase the metadata, add the region delta to the cursor
REBASE = 1
#: :data:`REBASE` if the cursor lies in the parent's region, else
#: invalidate (the same bytes with the tag cleared)
REBASE_IF_CURSOR_IN_PARENT = 2


class RegionPair(NamedTuple):
    """Source (parent) and destination (child) region spans: a named
    tuple, so immutable, compared and hashed by value, and several
    times cheaper to define at import than a frozen dataclass."""

    parent_base: int
    parent_top: int
    child_base: int
    child_top: int

    @property
    def delta(self) -> int:
        return self.child_base - self.parent_base

    def in_parent(self, addr: int) -> bool:
        return self.parent_base <= addr < self.parent_top

    def in_child(self, addr: int) -> bool:
        return self.child_base <= addr < self.child_top


def relocation_decision(meta: Meta, regions: RegionPair
                        ) -> Tuple[int, Optional[Meta]]:
    """The relocation rule for one valid capability's metadata
    ``(base, length, perms, otype)``: ``(kind, rebased metadata)``.

    Rules, in order:

    1. sealed sentries (syscall gates) are preserved — they are the
       sanctioned kernel entry point and cannot be modified anyway;
    2. capabilities already confined to the child's region are fine;
    3. capabilities whose base lies in the parent's region are rebased
       by the region delta and clamped to the child's region;
    4. any other capability is rebased the same way if its cursor
       points into the parent's region; otherwise it would leak
       authority outside the μprocess and is invalidated.

    ``KEEP`` comes with ``None``; both rebase kinds come with the
    rebased, clamped metadata (``perms`` and ``otype`` unchanged).
    """
    base, length, perms, otype = meta
    if otype == OTYPE_SENTRY:
        return KEEP, None
    child_base, child_top = regions.child_base, regions.child_top
    if child_base <= base < child_top and base + length <= child_top:
        return KEEP, None
    parent_base = regions.parent_base
    new_base = base + child_base - parent_base
    new_top = new_base + length
    if new_base < child_base or new_top > child_top:
        new_base, new_top = max(new_base, child_base), min(new_top, child_top)
        if new_top < new_base:
            new_base = new_top = child_base
    kind = (REBASE if parent_base <= base < regions.parent_top
            else REBASE_IF_CURSOR_IN_PARENT)
    return kind, (new_base, new_top - new_base, perms, otype)


def relocate_cap(cap: Capability, regions: RegionPair) -> Capability:
    """Return the relocated form of one capability (or ``cap`` itself
    when no change is needed): invalid capabilities are left alone (no
    authority to leak); valid ones follow
    :func:`relocation_decision`."""
    if not cap.valid:
        return cap
    kind, meta = relocation_decision(
        (cap.base, cap.length, cap.perms, cap.otype), regions)
    if kind == KEEP:
        return cap
    if kind == REBASE_IF_CURSOR_IN_PARENT and not regions.in_parent(
            cap.cursor):
        return cap.invalidated()
    base, length, _perms, _otype = meta
    return _fast_cap(base, length, cap.cursor + regions.delta, cap.perms,
                     cap.otype, cap.valid)


def relocate_frame(machine: Any, frame: Frame, regions: RegionPair) -> int:
    """Scan one (already copied) frame and relocate its capabilities.

    Charges the tag scan plus one relocation cost per rewritten
    capability; returns the number of capabilities relocated.
    """
    _charge_scans(machine, 1)
    relocated = _relocate_granules(machine, frame, regions)
    if relocated:
        machine.emit(events.RELOCATE_FRAME, amount=relocated, caps=relocated)
    return relocated


def relocate_frames(machine: Any, frames: List[Frame],
                    regions: RegionPair) -> int:
    """:func:`relocate_frame` over a batch of frames, without the fork
    content memo of :func:`relocate_copied_frames` (which is what fork
    and the write-run break use).

    Simulated-identical to calling :func:`relocate_frame` once per
    frame: the per-frame page-scan charges and sweep counts are batched
    into sum-equal updates, and an attached tracer receives the same
    ``relocate_frame`` records in frame order.
    """
    if not frames:
        return 0
    _charge_scans(machine, len(frames))
    caps = [_relocate_granules(machine, frame, regions)
            for frame in frames]
    _emit_relocations(machine, caps)
    machine.emit(events.RECORDS, records=(
        (events.RELOCATE_FRAME, {"caps": moved}) for moved in caps if moved))
    return sum(caps)


def plan_copied_frames(machine: Any, phys: Any, srcs: Sequence[int],
                       regions: RegionPair) -> Tuple[list, list, tuple]:
    """Plan :func:`relocate_copied_frames` of ``srcs`` under
    ``regions``: every source run, its memo entry and which of its
    sub-runs replay, from versions read before anything is written.
    Reads only (``KeyError`` for the first unallocated source), so a
    fork plans before it copies and leaves the replayed destinations
    out of the copy, and a relocation in place (the destinations are
    the sources) plans before it writes.  The plan holds while the
    sources are unwritten.

    Returns ``(runs, stored, plan)``: :meth:`PhysicalMemory.batch_runs`
    of ``srcs``; the replays, ascending ``(start, end, data, tags,
    stamp)`` over batch positions, that the copy writes instead of the
    sources' bytes (:meth:`PhysicalMemory.copy_frames` ``stored``); and
    the plan :func:`relocate_copied_frames` takes."""
    memo = getattr(machine, "_run_memo", None)
    if memo is None:
        memo = machine._run_memo = _RunMemo()
    region_key = (regions.parent_base, regions.parent_top,
                  regions.child_base, regions.child_top)
    runs = phys.batch_runs(srcs)
    replays = []
    entries = {}
    rebuilds = []
    dirty: List[int] = []
    for start, end in runs:
        key = (region_key, srcs[start], end - start)
        versions = phys.version_run(srcs[start], end - start)
        entry = memo.get(key)
        if entry is not None and entry[0] == versions:
            entries[key] = entry
            replays += [(start, run) for run in entry[1]]
            continue
        kept = []
        if entry is None:
            stale = bytearray(b"\x01") * (end - start)
        else:
            stale = bytearray(map(ne, versions, entry[0]))
            for run in entry[1]:
                lo, hi = run[0], run[1]
                if stale.find(1, lo, hi) >= 0:
                    stale[lo:hi] = b"\x01" * (hi - lo)
                else:
                    kept.append(run)
        replays += [(start, run) for run in kept]
        dirty += compress(range(start, end), stale)
        rebuilds.append((key, start, end, versions, kept))
    stored = sorted((start + run[0], start + run[1], run[2], run[3], run[6])
                    for start, run in replays)
    return runs, stored, (memo, replays, entries, rebuilds, dirty)


def relocate_copied_frames(machine: Any, phys: Any, srcs: Sequence[int],
                           dsts: Sequence[int], regions: RegionPair,
                           plan: Optional[tuple] = None,
                           remember: bool = True) -> List[int]:
    """Relocate fork-copied frames through a per-run content memo.

    ``dsts[i]`` holds a fresh tag-preserving copy of ``srcs[i]`` (or is
    ``srcs[i]`` itself: a last sharer's frame is its own copy).
    Simulated-identical to :func:`relocate_frames` over the destination
    frames.

    The memo (``machine._run_memo``) has one entry per region pair and
    run of consecutive source numbers (:meth:`PhysicalMemory.batch_runs`
    of ``srcs``).  It holds the run's source versions (one slice of the
    version column) and, for each sub-run of pages that relocated a
    capability, the post-relocation data and tags (one blob each) and
    the per-page capability counts.  A source page whose version is
    unchanged holds the bytes and tags it was memoised with, so its copy
    relocates to the same destination bytes: when the versions read by
    one column slice equal the stored ones, the run's tagged split comes
    from the memo, no tag is scanned, and each sub-run is replayed — by
    the fork's :meth:`PhysicalMemory.copy_frames` (``stored``), else
    with :meth:`PhysicalMemory.restore_contents` — one data and one tag
    slice store per destination bank run, each destination's version
    one up, as :meth:`~repro.hw.phys.Frame.restore_content` bumps it.
    When some versions differ, the sub-runs holding a changed page and
    the changed pages outside every sub-run are scanned again, frame by
    frame (only the ones :meth:`PhysicalMemory.tagged_frames` finds
    tagged), the other sub-runs are replayed, and the entry is rebuilt.  Untagged
    pages, and tagged ones that relocate nothing, are memoised by their
    versions alone.  A page left holding a granule that names a meta id
    not interned yet is never replayed: interning that id later makes
    the same bytes relocate (see :func:`_relocate_granules`).

    The memo is bounded by :data:`_PAGE_MEMO_CAP` pages (of content,
    plus one per entry for its versions) and is cleared only between
    batches: when a batch's new entries would take it past the cap, it
    is emptied and then keeps that batch's entries, so a batch larger
    than the cap still hits on the next fork.

    Charge/counter parity: the scan charge and sweep counts cover every
    frame as in :func:`relocate_frames`; rescanned frames charge their
    relocations as they go, in batch order (so the codec interns in the
    same order), and the replayed ones one sum-equal
    ``cap_relocate_ns`` charge at the end; a replay interns nothing.
    Returns the per-frame relocated-capability counts and leaves the
    tracer records to the caller, who interleaves them with its own
    per-page events.

    ``plan`` is the plan :func:`plan_copied_frames` returned for the
    same sources and regions when the caller made it before copying
    (fork, whose :meth:`PhysicalMemory.copy_frames` then wrote the
    replays in place of the sources' bytes); else the batch is planned
    and replayed here.  ``remember=False`` leaves the memo as it was
    (a fork that already knows it fails part-way: no retry copies the
    same prefix).
    """
    count = len(dsts)
    if count == 0:
        return []
    _charge_scans(machine, count)
    if plan is None:
        plan = plan_copied_frames(machine, phys, srcs, regions)[2]
        for start, run in plan[1]:
            phys.restore_contents(dsts[start + run[0]:start + run[1]],
                                  run[2], run[3])
    memo, replays, entries, rebuilds, dirty = plan
    caps = [0] * count
    caps_batched = 0
    for start, (lo, hi, _data, _tags, run_caps, total, _stamp) in replays:
        caps[start + lo:start + hi] = run_caps
        caps_batched += total
    frame_of = phys.frame
    metas = machine.codec.metas
    moved = []  # rescanned batch positions that relocated a capability
    forged = []  # rescanned batch positions naming an uninterned meta id
    tagged = phys.tagged_frames([dsts[index] for index in dirty]) \
        if dirty else ()
    for position in tagged:
        index = dirty[position]
        frame = frame_of(dsts[index])
        caps[index] = _relocate_granules(machine, frame, regions)
        if caps[index]:
            moved.append(index)
        if None in metas(frame.tagged_meta_ids()):
            forged.append(index)
    if caps_batched:
        _charge_each(machine, machine.costs.cap_relocate_ns, caps_batched,
                     "reloc_cap")
    if rebuilds and remember:
        _remember(memo, entries, rebuilds, moved, forged, caps, phys, srcs,
                  dsts)
    _emit_relocations(machine, caps)
    return caps


class _RunMemo(dict):
    """The fork relocation memo: ``(region pair, first source number,
    run length)`` -> ``(source versions, sub-runs)``, each sub-run a
    ``(lo, hi, data, tags, per-page caps, caps total, stamp)`` over run
    offsets ``[lo, hi)``, the stamp its copy-provenance context;
    ``pages`` is what its entries count against
    :data:`_PAGE_MEMO_CAP`."""

    __slots__ = ("pages",)

    def __init__(self) -> None:
        super().__init__()
        self.pages = 0


def _remember(memo: _RunMemo, entries: dict, rebuilds: list,
              moved: List[int], forged: List[int], caps: List[int],
              phys: Any, srcs: Sequence[int], dsts: Sequence[int]) -> None:
    """Rebuild the memo entries of a batch's rescanned source runs: the
    sub-runs that stayed valid, plus one new sub-run, read from the
    relocated destinations, per stretch of consecutive batch positions
    in ``moved`` (the rescanned pages that relocated a capability).
    Those destinations already hold the new sub-run's replay, and their
    copy provenance says so (:meth:`PhysicalMemory.note_replayed`).
    A page in ``forged`` (a tagged granule naming a meta id not interned
    yet, which relocates once intern hands that id out) is stored with
    version -1, which no page has, so every later batch rescans it.
    Then store them, emptying the memo first (and keeping the batch's
    other entries) when the new pages would take it past
    :data:`_PAGE_MEMO_CAP`."""
    added = 0
    for key, start, end, versions, kept in rebuilds:
        for index in forged[bisect_left(forged, start):
                            bisect_left(forged, end)]:
            versions[index - start] = -1
        runs = list(kept)
        inside = moved[bisect_left(moved, start):bisect_left(moved, end)]
        for _step, group in groupby(enumerate(inside),
                                    lambda pair: pair[1] - pair[0]):
            stretch = list(group)
            lo, hi = stretch[0][1], stretch[-1][1] + 1
            stamp = new_context()
            runs.append((lo - start, hi - start,
                         *phys.snapshot_contents(dsts[lo:hi]),
                         caps[lo:hi], sum(caps[lo:hi]), stamp))
            phys.note_replayed(srcs[lo:hi], dsts[lo:hi], stamp)
        old = memo.pop(key, None)
        if old is not None:
            memo.pages -= _pages(old)
        entry = entries[key] = (versions, runs)
        added += _pages(entry)
    if memo.pages + added > _PAGE_MEMO_CAP:
        memo.clear()
        memo.pages = 0
        added = sum(map(_pages, entries.values()))
    memo.update(entries)
    memo.pages += added


def _pages(entry: tuple) -> int:
    """What a memo entry counts against :data:`_PAGE_MEMO_CAP`: its
    pages of content, plus one for its source versions."""
    return 1 + sum(run[1] - run[0] for run in entry[1])


def _emit_relocations(machine: Any, caps: List[int]) -> None:
    """Count a batch's relocations: one ``relocate_frame`` per frame
    with capabilities rewritten; the caller hands the records."""
    total = sum(caps)
    if total:
        machine.emit(events.RELOCATE_FRAME, len(caps) - caps.count(0),
                     amount=total, records=())


def _charge_scans(machine: Any, count: int) -> None:
    """Charge and count the tag scans of ``count`` frames."""
    config = machine.config
    _charge_each(machine,
                 machine.costs.page_scan_ns(config.page_size, config.granule),
                 count, "reloc_scan")
    machine.emit(events.FRAMES_SCANNED, count)
    machine.emit(events.TAG_GRANULES_SCANNED,
                 (config.page_size // config.granule) * count)


def _charge_each(machine: Any, ns: float, count: int, bucket: str) -> None:
    """``count`` charges of ``ns``: one sum-equal advance when the cost
    is integral, else one advance each (per-charge rounding)."""
    if ns == int(ns):
        machine.charge(int(ns) * count, bucket)
    else:
        for _ in range(count):
            machine.charge(ns, bucket)


def _relocate_granules(machine: Any, frame: Frame,
                       regions: RegionPair) -> int:
    """The relocation scan over packed ``(cursor, meta id)`` granules:
    each tagged granule is one ``unpack_from``, a
    :meth:`~repro.cheri.codec.CapabilityCodec.meta` lookup,
    :func:`relocation_decision` of that metadata, and — when it moves —
    a cursor add packed back into the frame in place, or, when it is
    invalidated, its bytes left as they are and its tag cleared, all
    settled by one :meth:`~repro.hw.phys.Frame.rewrote_granules` (the
    version goes up once per relocated granule, as one
    :meth:`~repro.hw.phys.Frame.write_granule` each would leave it).
    No :class:`Capability` is built.

    Soundness: meta ids are append-only — once :meth:`CapabilityCodec.meta`
    returns a tuple for an id it returns that tuple forever — so a
    granule's metadata is exactly what decoding it would give.  A tagged
    granule naming an id not interned yet (forged bytes) decodes
    invalid: it is left untouched and counts 0, and if interning later
    hands that id out the same bytes follow the rule for the new
    metadata.  The rebased metadata is interned as each granule that
    actually rebases is written (never for one that is only
    invalidated), so the codec's intern order is that of a
    per-capability decode → relocate → encode.

    The simulated charge is one ``cap_relocate_ns`` per rewritten
    capability, batched into a single ``advance`` only when the cost is
    integral (sum-equal is then bit-equal, and the observability layer
    records pure sums).
    """
    codec = machine.codec
    meta_of = codec.meta
    intern = codec.intern
    data = frame.data
    unpack_from = GRANULE.unpack_from
    pack_into = GRANULE.pack_into
    parent_base, parent_top = regions.parent_base, regions.parent_top
    delta = regions.child_base - parent_base
    relocated = 0
    invalidated = []
    for offset in frame.tagged_granules():
        cursor, meta_id = unpack_from(data, offset)
        meta = meta_of(meta_id)
        if meta is None:
            continue
        kind, new_meta = relocation_decision(meta, regions)
        if kind == KEEP:
            continue
        if kind == REBASE or parent_base <= cursor < parent_top:
            pack_into(data, offset, (cursor + delta) & CURSOR_MASK,
                      intern(new_meta))
        else:
            invalidated.append(offset)
        relocated += 1
    if relocated:
        frame.rewrote_granules(relocated, invalidated)
        _charge_each(machine, machine.costs.cap_relocate_ns, relocated,
                     "reloc_cap")
    return relocated


def relocate_registers(machine: Any, registers: RegisterFile,
                       regions: RegionPair) -> int:
    """Relocate capability-valued registers for the child (§3.5 step 2).

    Tags extend to register values, so integers are left untouched.
    """
    relocated = 0
    for name, cap in list(registers.cap_registers()):
        moved = relocate_cap(cap, regions)
        if moved is not cap:
            registers.set(name, moved)
            machine.charge(machine.costs.cap_relocate_ns, "reloc_reg")
            relocated += 1
    if relocated:
        machine.emit(events.REGISTERS_RELOCATED, relocated)
    return relocated


# ---------------------------------------------------------------------------
# Capability-flow provenance log
# ---------------------------------------------------------------------------
#
# Every event that mints or re-mints a μprocess's region authority —
# spawn, fork (one relocate_cap sweep per strategy), snapshot restore —
# records a compact provenance tuple here.  The security auditor
# (repro.sec.auditor) uses the log to attribute a leaked capability to
# the μprocess it was minted for and to print the derivation chain that
# produced that μprocess's authority.

#: bounded history: old entries age out once a machine has seen this
#: many authority events (reaped μprocesses stop being attributable,
#: which is fine — their authority is dead too)
_FLOW_LOG_CAP = 1024

FlowEvent = Tuple[str, int, int, int, int, str]


def record_flow(machine: Any, event: str, src_pid: int, dst_pid: int,
                region_base: int, region_top: int, detail: str = "") -> None:
    """Append one authority event to the machine's capability-flow log.

    ``event`` is one of ``spawn``/``fork``/``restore``;
    ``src_pid`` is the μprocess the authority derives from (0 for the
    kernel root) and ``dst_pid`` the μprocess it was minted for.
    """
    log = getattr(machine, "_capflow", None)
    if log is None:
        log = deque(maxlen=_FLOW_LOG_CAP)
        machine._capflow = log
    log.append((event, src_pid, dst_pid, region_base, region_top, detail))


def flow_log(machine: Any) -> List[FlowEvent]:
    """The machine's authority events, oldest first."""
    return list(getattr(machine, "_capflow", ()))


def derivation_chain(machine: Any, pid: int, limit: int = 8) -> str:
    """Human-readable derivation chain for one μprocess's authority.

    Walks the flow log newest-first following ``src_pid`` links, e.g.
    ``spawn[0->1] -> fork:copa[1->3]`` — the relocate_cap sweeps that
    produced pid 3's region authority.
    """
    links = []
    cursor = pid
    events = flow_log(machine)
    for _ in range(limit):
        hit = next((e for e in reversed(events) if e[2] == cursor), None)
        if hit is None:
            break
        event, src, dst, _base, _top, detail = hit
        tag = f"{event}:{detail}" if detail else event
        links.append(f"{tag}[{src}->{dst}]")
        if src == 0 or src == cursor:
            break
        cursor = src
    if not links:
        return "unknown provenance"
    return " -> ".join(reversed(links))


def find_unrelocated(machine: Any, frame: Frame,
                     regions: RegionPair) -> list:
    """Debug/verification helper: capabilities in a frame that still
    point into the parent region (should be empty after relocation)."""
    leaks = []
    for offset in frame.tagged_granules():
        cap = frame.load_cap(offset, machine.codec)
        if cap.valid and not cap.is_sentry and regions.in_parent(cap.base):
            leaks.append((offset, cap))
    return leaks
