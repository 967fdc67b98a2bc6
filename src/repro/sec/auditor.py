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
  derivation chain (spawn/fork/migrate/restore events, i.e. the
  ``relocate_cap`` sweeps) that produced it.

The conform explorer and farm run this at every scheduling step via
:func:`repro.conform.invariants.check_invariants`, so interleaving
search doubles as an isolation-violation hunt.

The memory half of the audit is incremental.  Only the pages
:meth:`~repro.hw.phys.PhysicalMemory.tagged_frames` finds holding a tag
are visited, and a page's *clean* verdict is memoised on the machine
(``Machine._audit_memo``) under ``(frame, lo, hi, region base, region
top, gate triple)`` with the ``Frame.version`` it was audited at.  A
verdict depends on nothing else: the page's granules (which change only
with ``version``), the bound the page is held to (its ``ShareNote``
parent region or the μprocess region), the region and the syscall gate
the sentries are matched against.  A page whose version still matches
is skipped; any other page is audited in full.  The page audit works on
packed ``(cursor, meta id)`` granules: confinement and the sentry/gate
match read the interned metadata (:meth:`CapabilityCodec.meta`), and a
:class:`Capability` is decoded only to format a violation.  Violations
are never memoised: their text names the provenance, which reads the
live process table and the flow log, so it is rebuilt at every audit.
The memo is host-side only and changes no simulated state.
"""

from __future__ import annotations

import itertools
from typing import Any, List, Optional

from repro.cheri.capability import OTYPE_SENTRY, Capability
from repro.cheri.codec import GRANULE
from repro.core.relocate import derivation_chain, flow_log
from repro.core.strategies import ShareNote

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


def _gate_key(proc: Any) -> Optional[tuple]:
    gate = getattr(proc, "syscall_gate", None)
    return None if gate is None else (gate.base, gate.length, gate.cursor)


def _audit_cap(os_: Any, proc: Any, cap: Capability, location: str,
               lo: int, hi: int, violations: List[str]) -> None:
    gate_key = _gate_key(proc)
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
    codec = machine.codec
    unpack_from = GRANULE.unpack_from
    memo = machine._audit_memo
    violations: List[str] = []
    for proc in os_.procs.alive():
        space = os_.space_of(proc)
        base, top = proc.region_base, proc.region_top
        shm_vpns = getattr(proc, "shm_vpns", set())
        gate_key = _gate_key(proc)
        pages = [item for item in
                 space.mapped_items(base // page, top // page)
                 if item[0] not in shm_vpns]
        # a dangling mapping (its frame already freed) has no memory to
        # audit; on a fork-shared page the share-note check reports it
        pages = list(itertools.compress(
            pages, phys.live_mask([item[1] for item in pages])))
        tagged = [pages[position] for position in
                  phys.tagged_frames([item[1] for item in pages])]
        versions = phys.versions([item[1] for item in tagged])
        for (vpn, frame_no, _perms, _cow, raw_note), version in \
                zip(tagged, versions):
            note = raw_note if isinstance(raw_note, ShareNote) else None
            if note is not None:
                lo, hi = note.regions.parent_base, note.regions.parent_top
            else:
                lo, hi = base, top
            key = (frame_no, lo, hi, base, top, gate_key)
            if memo.get(key) == version:
                continue
            found = len(violations)
            frame = phys.frame(frame_no)
            data = frame.data
            for offset in frame.tagged_granules():
                cursor, meta_id = unpack_from(data, offset)
                meta = codec.meta(meta_id)
                if meta is None:
                    continue
                cap_base, length, _perms, otype = meta
                if _flow_ok(cap_base, length, otype, cursor, lo, hi, base,
                            top, gate_key):
                    continue
                _audit_cap(os_, proc, frame.load_cap(offset, codec),
                           f"vpn {vpn:#x}+{offset:#x}", lo, hi, violations)
            if len(violations) == found:
                memo[key] = version
        for task in proc.tasks:
            for name, cap in task.registers.cap_registers():
                _audit_cap(os_, proc, cap, f"register {name}",
                           base, top, violations)
    return violations
