"""The capability-flow auditor: the one §4.2 isolation audit.

"The key security invariant the kernel must enforce to maintain
isolation (R3) is that all capabilities (pointers) available to a
μprocess only grant access to memory falling within the area of the
virtual address space allocated to this μprocess" (§4.2).

:func:`audit_cap_flow` checks it: at any trap or preemption point, no
live register and no tagged memory granule may hold a capability whose
*provenance* crosses a μprocess boundary.  Beyond a plain bounds check
it

* works on every OS kind — the walk goes through ``os.space_of``,
  so the monolithic baseline (per-process page tables) is audited with
  the same code as the SASOS kernels;
* sentry capabilities are *policed* rather than exempted: the only
  sanctioned sentry is the μprocess's own syscall gate, bit-equal in
  (base, length, cursor) — a sentry minted for some other entry point
  is exactly the forged-gate attack;
* every violation message is annotated with the capability's
  provenance: which μprocess the authority was minted for, and the
  derivation chain (spawn/fork/restore events, i.e. the
  ``relocate_cap`` sweeps) that produced it.

The conform explorer and farm run this at every scheduling step via
:func:`repro.conform.invariants.check_invariants`, so interleaving
search doubles as an isolation-violation hunt.

The memory half of the audit costs what changed since the last one.

* **Per process** (``Process.audit_cache``, :class:`_AuditCache`): the
  region's mappings as of a journal mark of the space
  (:meth:`~repro.hw.paging.AddressSpace.journal_mark`), their frame
  numbers and versions.  The next audit under the same region, gate
  and shm page count re-reads only the vpn ranges the journal names
  since (:meth:`~repro.hw.paging.AddressSpace.edits_since`,
  :func:`~repro.hw.paging.splice_edits`), reads every version straight
  from the column (:meth:`~repro.hw.phys.PhysicalMemory.versions`
  — a dangling mapping's freed frame raises nothing) and passes on only
  the pages that are new or whose version moved.  A page that held a
  violation, a granule naming a meta id not interned yet or a freed
  frame is stored with version ``None`` and passed on every time.
* **Per page** (``Machine._audit_memo``): of the pages passed on, only
  those :meth:`~repro.hw.phys.PhysicalMemory.tagged_frames` finds
  holding a tag are visited, and a page's *clean* verdict is memoised
  under ``(frame, lo, hi, region base, region top, gate triple)`` with
  the ``Frame.version`` it was audited at.  A verdict depends on
  nothing else: the page's granules (which change only with
  ``version``), the bound the page is held to (its ``ShareNote`` parent
  region or the μprocess region), the region and the syscall gate the
  sentries are matched against.  A page whose version still matches is
  skipped.

Any other page is judged on the interned metadata of its distinct
meta ids (:meth:`~repro.hw.phys.Frame.tagged_meta_ids`,
:meth:`CapabilityCodec.metas`): when every capability lies inside one of
the two bounds and none is a sentry, the page is clean; otherwise its
packed ``(cursor, meta id)`` granules are walked in offset order, and a
:class:`Capability` is decoded only to format a violation.  Violations
are never memoised: their text names the provenance, which reads the
live process table and the flow log, so it is rebuilt at every audit.
Registers are audited in full, against a gate key computed once per
process.  Both caches are host-side only and change no simulated state.
"""

from __future__ import annotations

import itertools
from operator import add, itemgetter, ne, not_
from typing import Any, List, Optional, Sequence

from repro.cheri.capability import OTYPE_SENTRY, Capability
from repro.cheri.codec import GRANULE
from repro.core.relocate import derivation_chain, flow_log
from repro.core.strategies import ShareNote
from repro.hw.paging import splice_edits

__all__ = ["audit_cap_flow", "provenance_of"]


def _confined(cap: Capability, base: int, top: int) -> bool:
    return base <= cap.base and cap.top <= top


def provenance_of(os_: Any, cap: Capability) -> str:
    """Attribute a capability to the μprocess its span was minted for.

    Resolution order: a live μprocess whose region covers the span,
    then the flow log (covers already-reaped μprocesses whose authority
    should be dead), then "no recorded mint" — the fingerprint of a
    forged or kernel-leaked capability.
    """
    if not cap.valid:
        return "no authority (invalid)"
    if cap.is_sentry:
        return "sealed kernel entry sentry"
    for proc in os_.procs.alive():
        if _confined(cap, proc.region_base, proc.region_top):
            chain = derivation_chain(os_.machine, proc.pid)
            return f"minted for pid {proc.pid} via {chain}"
    for event, _src, dst, base, top, _detail in reversed(flow_log(os_.machine)):
        if _confined(cap, base, top):
            return (f"minted for dead pid {dst} (last {event}); "
                    f"authority should have died with it")
    return "no recorded mint (forged or kernel-internal span)"


def _flow_ok(cap_base: int, length: int, otype: int, cursor: int,
             lo: int, hi: int, base: int, top: int,
             gate_key: Optional[tuple]) -> bool:
    """The audit rule for one valid capability, on its metadata and
    cursor: a sentry must be bit-equal in (base, length, cursor) to the
    μprocess's own syscall gate (``gate_key``; ``None`` when no gate was
    ever minted); anything else must lie inside ``[lo, hi)`` or the
    μprocess region ``[base, top)``."""
    if otype == OTYPE_SENTRY:
        return gate_key == (cap_base, length, cursor)
    cap_top = cap_base + length
    return (lo <= cap_base and cap_top <= hi
            or base <= cap_base and cap_top <= top)


#: fields of an interned metadata tuple ``(base, length, perms, otype)``
_BASE, _LENGTH, _OTYPE = itemgetter(0), itemgetter(1), itemgetter(3)


def _gate_key(proc: Any) -> Optional[tuple]:
    gate = getattr(proc, "syscall_gate", None)
    return None if gate is None else (gate.base, gate.length, gate.cursor)


def _audit_cap(os_: Any, proc: Any, cap: Capability, location: str,
               lo: int, hi: int, violations: List[str],
               gate_key: Optional[tuple]) -> None:
    """Append the violation, if any, of one capability held by ``proc``
    (``gate_key`` is :func:`_gate_key` of ``proc``)."""
    if not cap.valid or _flow_ok(cap.base, cap.length, cap.otype,
                                 cap.cursor, lo, hi, proc.region_base,
                                 proc.region_top, gate_key):
        return
    if not cap.is_sentry:
        violations.append(
            f"pid {proc.pid} @ {location}: capability escapes the μprocess "
            f"region [{cap}] — provenance: {provenance_of(os_, cap)}")
    elif gate_key is None:
        violations.append(
            f"pid {proc.pid} @ {location}: sentry capability on a "
            f"trap-entry kernel (no gate was ever minted) [{cap}]")
    else:
        violations.append(
            f"pid {proc.pid} @ {location}: sentry does not match the "
            f"μprocess's own syscall gate [{cap}]")


class _AuditCache:
    """What one μprocess's last memory audit saw (``Process.audit_cache``).

    ``mark`` is the space's :meth:`~repro.hw.paging.AddressSpace.journal_mark`
    at that audit and ``key`` the ``(region base, region top, gate
    triple, shm page count)`` it ran under; ``pages`` are the region's
    mappings outside the shm windows and ``frames`` their frame numbers.
    ``versions`` holds each frame's version, or ``None`` for a page that
    is audited again whatever its version: a violation, a granule naming
    a meta id not interned yet, or a freed frame.
    """

    __slots__ = ("mark", "key", "pages", "frames", "versions")

    def __init__(self, mark: tuple, key: tuple, pages: list, frames: list,
                 versions: list) -> None:
        self.mark = mark
        self.key = key
        self.pages = pages
        self.frames = frames
        self.versions = versions


def audit_cap_flow(os_: Any) -> List[str]:
    """Audit every live μprocess on any OS kind; returns violations.

    Fork-shared pages (a ``ShareNote`` is present) legitimately hold
    the donor's capabilities until the strategy's fault handler
    relocates them, so they are audited against the note's source
    region too.  ``MAP_SHARED`` windows are skipped: the window
    capability carries no LOAD_CAP/STORE_CAP, so tags can never appear
    there — if one does, the smuggling tests fail loudly instead.
    """
    machine = os_.machine
    page = machine.config.page_size
    phys = machine.phys
    violations: List[str] = []
    for proc in os_.procs.alive():
        space = os_.space_of(proc)
        base, top = proc.region_base, proc.region_top
        lo_vpn, hi_vpn = base // page, top // page
        shm_vpns = getattr(proc, "shm_vpns", ())
        gate_key = _gate_key(proc)
        key = (base, top, gate_key, len(shm_vpns))
        cache = proc.audit_cache
        edits = None
        if cache is not None and cache.key == key:
            edits = space.edits_since(cache.mark, lo_vpn, hi_vpn)
        if edits is None:
            pages, seen, edits = [], [], [(lo_vpn, hi_vpn)]
        else:
            pages, seen = cache.pages, cache.versions
        if edits:
            pages, seen = splice_edits(
                pages, edits,
                lambda lo, hi: _mappings(space, lo, hi, shm_vpns), seen)
            frames = [item[1] for item in pages]
        else:
            frames = cache.frames
        versions = phys.versions(frames)
        if versions != seen:
            for position in _audit_pages(
                    os_, proc, pages, versions,
                    list(itertools.compress(range(len(frames)),
                                            map(ne, versions, seen))),
                    gate_key, violations):
                versions[position] = None
        if edits or versions != seen:
            proc.audit_cache = _AuditCache(space.journal_mark(), key, pages,
                                           frames, versions)
        else:
            cache.mark = space.journal_mark()
        for task in proc.tasks:
            for name, cap in task.registers.cap_registers():
                if not _flow_ok(cap.base, cap.length, cap.otype, cap.cursor,
                                base, top, base, top, gate_key):
                    _audit_cap(os_, proc, cap, f"register {name}",
                               base, top, violations, gate_key)
    return violations


def _mappings(space: Any, lo_vpn: int, hi_vpn: int,
              shm_vpns: Any) -> list:
    """The mappings in ``[lo_vpn, hi_vpn)`` outside the shm windows."""
    items = space.mapped_items(lo_vpn, hi_vpn)
    if not shm_vpns:
        return items
    return [item for item in items if item[0] not in shm_vpns]


def _audit_pages(os_: Any, proc: Any, pages: list, versions: List[int],
                 positions: Sequence[int], gate_key: Optional[tuple],
                 violations: List[str]) -> List[int]:
    """Audit the pages of ``proc`` at ``positions`` (ascending) through
    the page memo, appending violations in vpn order; returns the
    positions that are not clean."""
    machine = os_.machine
    phys = machine.phys
    codec = machine.codec
    meta_of = codec.meta
    unpack_from = GRANULE.unpack_from
    memo = machine._audit_memo
    base, top = proc.region_base, proc.region_top
    live = phys.live_mask([pages[position][1] for position in positions])
    # a dangling mapping (its frame already freed) has no memory to
    # audit; on a fork-shared page the share-note check reports it
    unclean = [] if all(live) else list(itertools.compress(
        positions, map(not_, live)))
    positions = list(itertools.compress(positions, live))
    tagged = [positions[index] for index in
              phys.tagged_frames([pages[position][1]
                                  for position in positions])]
    for position in tagged:
        vpn, frame_no, _perms, _cow, raw_note = pages[position]
        version = versions[position]
        note = raw_note if isinstance(raw_note, ShareNote) else None
        if note is not None:
            lo, hi = note.regions.parent_base, note.regions.parent_top
        else:
            lo, hi = base, top
        key = (frame_no, lo, hi, base, top, gate_key)
        if memo.get(key) == version:
            continue
        frame = phys.frame(frame_no)
        # a verdict per distinct meta id from the metadata alone: a page
        # whose capabilities all lie in one of the two bounds and that
        # holds no sentry is clean; a granule naming a meta id not
        # interned yet decodes to an invalid capability now, but to a
        # real one once intern hands that id out, so such a page is
        # never memoised clean
        metas = codec.metas(frame.tagged_meta_ids())
        pending = None in metas
        if pending:
            metas = [meta for meta in metas if meta is not None]
        if metas:
            lowest = min(map(_BASE, metas))
            highest = max(map(add, map(_BASE, metas), map(_LENGTH, metas)))
            if OTYPE_SENTRY in map(_OTYPE, metas) or not (
                    base <= lowest and highest <= top
                    or lo <= lowest and highest <= hi):
                # walk the granules, in offset order, for the violations
                # (a sentry must match the gate on its cursor too)
                found = len(violations)
                data = frame.data
                for offset in frame.tagged_granules():
                    cursor, meta_id = unpack_from(data, offset)
                    meta = meta_of(meta_id)
                    if meta is None or _flow_ok(meta[0], meta[1], meta[3],
                                                cursor, lo, hi, base, top,
                                                gate_key):
                        continue
                    _audit_cap(os_, proc, frame.load_cap(offset, codec),
                               f"vpn {vpn:#x}+{offset:#x}", lo, hi,
                               violations, gate_key)
                pending = pending or len(violations) > found
        if pending:
            unclean.append(position)
        else:
            memo[key] = version
    return unclean
