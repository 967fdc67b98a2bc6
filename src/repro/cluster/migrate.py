"""Cross-shard μprocess migration: rebalancing a hot shard.

Because every serving worker is a μFork fork of a shard-local zygote
(:mod:`repro.cluster.pool`), a worker's identity splits cleanly into
two parts: the warm runtime state it *shares* with the zygote — present
on every shard already — and the CoW-divergent pages it has written
since fork.  Migration therefore only puts the divergent pages on the
wire, and since this repo grew :mod:`repro.snapshot` those pages travel
as a real ``repro.snapshot/v1`` incremental blob, not an estimate:

1. the source shard checkpoints the worker incrementally — exactly its
   refcount-1 pages, capability tags recorded logically — and the blob
   is audited against the page set the pool reported *before* the
   checkpoint (the capture must neither resolve shared pages nor miss
   a divergent one);
2. the worker retires through the real exit/reap path (frames, PTEs
   and the PID are released by the kernel, verified by the leak
   auditor), and the blob's bytes are charged at the cluster wire rate
   on top of ``migration_fixed_ns`` (docs/COSTMODEL.md);
3. the target shard fast-forks a replacement from *its* zygote and
   applies the blob with :func:`repro.snapshot.restore_into` — every
   transferred capability re-minted by the same μFork relocation
   machinery as any fork, against the twin's region on the target
   machine.

This zygote-anchored scheme is the cluster-scale payoff of the paper's
fast-fork path: moving a worker costs one reap, one fork, and the wire
time of only its private state — and the replacement now *computes as*
the migrated worker, not merely as a fresh fork.
"""

from __future__ import annotations

from typing import Any, Dict

from repro import events
from repro.cluster.params import ClusterCosts


def migrate_worker(source: Any, target: Any,
                   costs: ClusterCosts) -> Dict[str, int]:
    """Move one worker from ``source`` to ``target`` shard.

    Returns the migration record for the ``repro.cluster/v1`` report:
    the divergent bytes transferred and the simulated cost
    ``migration_ns = migration_fixed_ns + bytes × wire_ns_per_byte``.
    The new worker is not serviceable until that cost has elapsed —
    the runner adds it to the target's capacity at ``now + ns``.
    """
    from repro.snapshot import checkpoint, decode, restore_into

    pool = source.pool
    worker = pool.workers[-1]
    expected_vpns = pool.divergent_vpns(worker)
    blob = checkpoint(source.session.os, worker.proc, incremental=True)
    manifest, _payload = decode(blob)
    captured = {page["vpn"] for page in manifest["pages"]}
    assert captured == expected_vpns, (
        f"incremental checkpoint drifted from the pool's divergence "
        f"audit on shard {source.index}: "
        f"{sorted(captured ^ expected_vpns)[:8]}")
    divergent = len(manifest["pages"]) * manifest["page_size"]

    pool.retire(worker)
    source.session.machine.emit(events.MIGRATE_OUT)

    twin = target.pool.fork_worker()
    applied = restore_into(target.session.os, twin.proc, blob)
    assert applied == len(manifest["pages"])
    target.session.machine.emit(events.MIGRATE_IN)
    return {
        "from": source.index,
        "to": target.index,
        "divergent_bytes": divergent,
        "ns": costs.migration_ns(divergent),
    }
