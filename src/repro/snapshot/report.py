"""The snapshot demo runner behind ``python -m repro.harness snapshot``.

Checkpoints a warmed-up μprocess on a donor machine, restores the blob
into a *freshly booted* machine, and replays the same logical program
on both — the restored run must trace identically to the uninterrupted
one (the acceptance bar of docs/SNAPSHOT.md).  With ``--incremental``
the donor forks first and the blob carries only the child's
CoW-divergent pages, applied onto a fork twin via
:func:`repro.snapshot.restore_into` — the cluster-migration payload.

Everything is a pure function of ``seed``: the blob is byte-identical
across same-seed runs (its sha256 is part of the summary), so the
``*.snapshot.json`` sidecar is golden-comparable.

This module imports the full OS stack, so it is *not* re-exported from
:mod:`repro.snapshot` (whose core the kernel-facing tests import).
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Tuple

from repro.harness.matrix import boot, write_sidecars
from repro.snapshot.format import SCHEMA, decode

#: schema tag for the summary dict / ``*.snapshot.json`` sidecar
RUN_SCHEMA = "repro.snapshot.run/v1"


def _boot(strategy: str, seed: int, cpus: int):
    from repro.apps.hello import hello_world_image

    _machine, os_, ctx = boot(strategy, seed=seed, cpus=cpus, obs=True,
                              image=hello_world_image(), name="snapdemo")
    return os_, ctx


def _warm(ctx) -> None:
    """State worth snapshotting: heap bytes, a stored capability, a
    register-parked capability, a buffered pipe, a signal disposition."""
    from repro.kernel import signals

    cap = ctx.malloc(256)
    ctx.store(cap, b"snapshot demo state " + bytes(range(12)))
    ctx.store_cap(cap, cap.add(64), offset=96)
    ctx.set_reg("c19", cap)
    rfd, wfd = ctx.syscall("pipe")
    ctx.set_reg("x20", rfd)
    ctx.set_reg("x21", wfd)
    ctx.write_bytes(wfd, b"in-flight bytes")
    ctx.syscall("signal", signals.SIGUSR1, signals.SIG_IGN)


def _replay(ctx) -> List[Tuple[Any, ...]]:
    """The post-checkpoint program; records a purely *logical* trace
    (data bytes, capability geometry deltas, statuses — no addresses)."""
    trace: List[Tuple[Any, ...]] = []
    cap = ctx.reg("c19")
    trace.append(("heap", ctx.load(cap, 32)))
    inner = ctx.load_cap(cap, offset=96)
    trace.append(("inner", inner.offset, inner.length, inner.valid,
                  inner.cursor - cap.cursor))
    rfd = ctx.reg("x20")
    got = ctx.syscall("read", rfd, cap.add(128), 15)
    trace.append(("pipe", got, ctx.load(cap, got, offset=128)))
    child = ctx.fork()
    ccap = child.reg("c19")
    trace.append(("child_heap", child.load(ccap, 32)))
    child.exit(0)
    _pid, status = ctx.wait(child.proc.pid)
    trace.append(("wait", status))
    ctx.exit(0)
    return trace


def run_snapshot(seed: int = 7, cpus: int = 1, strategy: str = "copa",
                 incremental: bool = False,
                 obs_dir: Optional[str] = None) -> Dict[str, Any]:
    """Run the checkpoint/restore demo; returns the JSON-ready summary.

    With ``obs_dir`` set, writes two sidecars there:
    ``snapshot-<seed>.obs.json`` (the target machine's ``repro.obs/v1``
    export) and ``snapshot-<seed>.snapshot.json`` (the decoded
    ``repro.snapshot/v1`` manifest plus this summary).
    """
    from repro.apps.guest import GuestContext
    from repro.obs import to_json
    from repro.snapshot import checkpoint, restore, restore_into

    # the uninterrupted twin fixes the expected logical trace
    _os_t, twin = _boot(strategy, seed, cpus)
    _warm(twin)
    if incremental:
        twin_child = twin.fork()
        twin_child.store(twin_child.reg("c19"), b"diverged payload")
        expected = _replay(twin_child)
        twin.exit(0)
    else:
        expected = _replay(twin)

    # donor: same seed, checkpoint at the same syscall boundary
    os_a, donor = _boot(strategy, seed, cpus)
    _warm(donor)
    if incremental:
        worker = donor.fork()
        worker.store(worker.reg("c19"), b"diverged payload")
        blob = checkpoint(os_a, worker.proc, incremental=True)
        worker.exit(0)
        donor.wait(worker.proc.pid)
    else:
        blob = checkpoint(os_a, donor.proc)
    manifest, _payload = decode(blob)
    donor_ns = os_a.machine.clock.now_ns
    donor.exit(0)

    # target: a fresh machine (different seed — restore is seed-proof)
    os_b, resident = _boot(strategy, seed + 1, cpus)
    if incremental:
        _warm(resident)
        target = resident.fork()
        applied = restore_into(os_b, target.proc, blob)
        actual = _replay(target)
        resident.exit(0)
    else:
        applied = len(manifest["pages"])
        target = GuestContext(os_b, restore(os_b, blob))
        actual = _replay(target)
        resident.exit(0)

    export = os_b.machine.obs.export()
    buckets = dict(os_b.machine.clock.buckets)
    summary = {
        "schema": RUN_SCHEMA,
        "seed": seed,
        "cpus": cpus,
        "strategy": strategy,
        "incremental": incremental,
        "blob_bytes": len(blob),
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
        "pages": len(manifest["pages"]),
        "pages_applied": applied,
        "tagged_granules": sum(len(p["caps"])
                               for p in manifest["pages"]),
        "registers": len(manifest["registers"]),
        "dropped_fds": sum(1 for entry in manifest["fds"]
                           if entry[1] == "dropped"),
        "donor_clock_ns": donor_ns,
        "restore_clock_ns": os_b.machine.clock.now_ns,
        "restore_buckets": {name: ns for name, ns in sorted(buckets.items())
                            if name.startswith(("restore", "reloc",
                                                "fd_dup"))},
        "trace_events": len(actual),
        "verdict": ("identical" if actual == expected
                    else "DIVERGED"),
        "obs_export_sha256": hashlib.sha256(
            to_json(export).encode("utf-8")).hexdigest(),
    }
    if obs_dir is not None:
        write_sidecars(obs_dir, f"snapshot-{seed}", obs=export,
                       snapshot={"schema": SCHEMA, "manifest": manifest,
                                 "run": summary})
    return summary


def format_summary(summary: Dict[str, Any]) -> str:
    """Render a run summary for the CLI."""
    kind = "incremental" if summary["incremental"] else "full"
    lines = [
        f"snapshot run: seed={summary['seed']} "
        f"strategy={summary['strategy']} cpus={summary['cpus']} "
        f"mode={kind}",
        f"  blob: {summary['blob_bytes']} bytes, "
        f"{summary['pages']} pages, "
        f"{summary['tagged_granules']} tagged granules, "
        f"{summary['registers']} registers, "
        f"{summary['dropped_fds']} fds dropped by policy",
        f"  restore: {summary['pages_applied']} pages applied, "
        f"clock={summary['restore_clock_ns']} ns",
        f"  blob_sha256={summary['blob_sha256'][:16]}…",
        f"  verdict: {summary['verdict']} "
        f"({summary['trace_events']} logical trace events)",
    ]
    return "\n".join(lines)
