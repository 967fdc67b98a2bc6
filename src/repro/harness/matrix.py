"""The evaluation matrix every harness runner draws its cells from.

The paper's evaluation is one matrix: fork strategies (full copy, CoA,
CoPA and the CheriBSD-like monolithic baseline) crossed with workloads
and core counts.  The runners behind ``python -m repro.harness``
(chaos, smp, conform, conform-farm, sec, snapshot) share one
definition of it, kept here:

* the strategy names, their validation, and the clean/chaos modes;
* the default CPU counts;
* :func:`boot`, the one Machine → obs → chaos → OS → spawn sequence;
* :func:`kernel_state_digest`, the kernel fingerprint their reports
  carry;
* :func:`write_sidecars`, the one ``--obs-dir`` sidecar writer.

:class:`repro.api.Session` is the user-facing boot and keeps its own
order (obs after the OS, chaos not paused); the runners' order below
is pinned by the golden ledger (``tests/test_ledger.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Iterable, NamedTuple, Optional, Sequence, Tuple

#: the μFork copy strategies (one address space, §3.8)
SASOS_STRATEGIES = ("full", "coa", "copa")
#: the CheriBSD-like baseline (one address space per process)
MONOLITHIC = "monolithic"
#: every fork strategy, baseline last (the sec matrix's order)
STRATEGIES = SASOS_STRATEGIES + (MONOLITHIC,)
#: baseline first (the conformance and farm order: with the host
#: oracle off, the first cell is the reference the others diff against)
CONFORM_STRATEGIES = (MONOLITHIC,) + SASOS_STRATEGIES

#: run modes of a cell: no injection, or a seeded chaos engine
MODES = ("clean", "chaos")

#: default CPU counts of the conform and sec matrices
DEFAULT_CPUS = (1, 2, 4)
#: default CPU counts of the farm and the smp sweep
SWEEP_CPUS = (1, 2, 4, 8)


def check_names(kind: str, names: Iterable[str],
                allowed: Sequence[str]) -> Tuple[str, ...]:
    """``names`` as a tuple; ``ValueError`` naming every unknown one."""
    names = tuple(names)
    unknown = sorted(set(names) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {kind}: {unknown} "
                         f"(choose from {', '.join(allowed)})")
    return names


def check_cpus(counts: Iterable[int]) -> Tuple[int, ...]:
    """``counts`` as a tuple; ``ValueError`` unless every one is >= 1."""
    counts = tuple(counts)
    bad = [n for n in counts if n < 1]
    if bad:
        raise ValueError(f"CPU counts must be >= 1, got {bad}")
    return counts


class Booted(NamedTuple):
    """What :func:`boot` returns; ``ctx`` is ``None`` without an image."""
    machine: Any
    os: Any
    ctx: Any


def boot(strategy: str, *, seed: int, cpus: int, obs: bool = False,
         chaos_mix: Optional[str] = None, chaos_seed: Optional[int] = None,
         image: Any = None, name: Optional[str] = None) -> Booted:
    """Boot one matrix cell.

    Builds the machine, enables obs if asked, attaches a chaos engine
    when ``chaos_mix`` is not ``None`` (seeded with ``chaos_seed``,
    default ``seed``), then — with injection paused, since boot is not
    a chaos target — constructs the OS with its default isolation and,
    given an ``image``, spawns it as ``name``.
    """
    from repro.machine import Machine

    check_names("strategies", (strategy,), STRATEGIES)
    machine = Machine(seed=seed, num_cpus=cpus)
    if obs:
        machine.obs.enable()
    if chaos_mix is not None:
        from repro.chaos import ChaosEngine, FaultMix
        ChaosEngine(seed=seed if chaos_seed is None else chaos_seed,
                    mix=FaultMix.parse(chaos_mix)).attach(machine)
    with machine.chaos.paused():
        if strategy == MONOLITHIC:
            from repro.baselines.monolithic import MonolithicOS
            os_ = MonolithicOS(machine=machine)
        else:
            from repro.core import CopyStrategy, UForkOS
            os_ = UForkOS(machine=machine,
                          copy_strategy=CopyStrategy(strategy))
        ctx = None
        if image is not None:
            from repro.apps.guest import GuestContext
            ctx = GuestContext(os_, os_.spawn(image, name))
    return Booted(machine, os_, ctx)


def kernel_state_digest(os_: Any) -> str:
    """A stable fingerprint of the kernel's externally visible state.

    Covers exactly the state a leaked resource would perturb: the
    simulated clock, allocated frame count, the process table, the
    region reservation map, per-process fd counts, and the event
    counters.  Two same-seed runs must produce identical digests; a
    rollback that leaks anything changes the digest and fails the
    determinism tier.
    """
    machine = os_.machine
    procs = sorted(
        (proc.pid, proc.name, proc.alive, proc.region_base,
         len(getattr(proc.fdtable, "_slots", {})))
        for proc in os_.procs.all()
    )
    state = {
        "clock_ns": machine.clock.now_ns,
        "allocated_frames": machine.phys.allocated_frames,
        "procs": procs,
        "reserved": sorted(os_.vspace.reserved_areas()),
        "counters": machine.counters.snapshot(),
    }
    blob = json.dumps(state, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def write_sidecars(obs_dir: str, stem: str, **documents: Any) -> None:
    """Write each document as ``<obs_dir>/<stem>.<kind>.json`` in the
    canonical :mod:`repro.harness.reportio` form (``kind`` is the
    keyword: ``obs=export`` writes ``<stem>.obs.json``)."""
    from repro.harness.reportio import write_report

    for kind, document in documents.items():
        write_report(document, os.path.join(obs_dir, f"{stem}.{kind}.json"))


def sidecar_notice(obs_dir: str, stem: str, kinds: Sequence[str]) -> str:
    """The CLI line naming what :func:`write_sidecars` wrote."""
    first, *rest = kinds
    label = "sidecars" if rest else "sidecar"
    more = "".join(f" + .{kind}.json" for kind in rest)
    return f"[{label}: {obs_dir}/{stem}.{first}.json{more}]"
