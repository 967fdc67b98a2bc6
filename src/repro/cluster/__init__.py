"""repro.cluster — a sharded multi-machine cluster of Session shards.

The scale-out layer above the stable facade: N independent
:class:`repro.api.Session` machines ("shards") behind a deterministic
consistent-hash load balancer with request batching, per-shard zygote
warm pools (μFork's fast fork as the capacity primitive), and
cross-shard worker migration for rebalancing hot shards.  Traffic comes
from a seed-deterministic planet-scale trace synthesizer (Zipf key
popularity, diurnal waves, flash crowds over millions of simulated
users); results merge every shard's ``repro.obs/v1`` export into one
``repro.cluster/v1`` report with p50/p99/p999 latency and makespan,
byte-identical across same-seed runs.

The full contract is ``docs/CLUSTER.md``; the cost constants are
documented in ``docs/COSTMODEL.md`` ("The cluster cost model")::

    from repro.cluster import run_cluster

    report = run_cluster(seed=42, shards=2, workers=2, requests=20_000)
    report["latency_ns"]["p99"], report["makespan_ns"]

This package's import surface is light (no OS stack): the heavy
machinery lives in :mod:`repro.cluster.runner` / ``.shard`` and is
imported lazily by :func:`run_cluster`.
"""

from repro.cluster.balancer import (
    Batcher,
    ConsistentHashRing,
    remap_fraction_ppm,
)
from repro.cluster.params import DEFAULT_CLUSTER_COSTS, ClusterCosts
from repro.cluster.trace import (
    CLASSES,
    RECORD,
    TraceConfig,
    slot_columns,
    slot_counts,
    synthesize,
    trace_digest,
)

__all__ = [
    "Batcher",
    "CLASSES",
    "ClusterCosts",
    "ConsistentHashRing",
    "DEFAULT_CLUSTER_COSTS",
    "RECORD",
    "TraceConfig",
    "format_summary",
    "remap_fraction_ppm",
    "run_cluster",
    "slot_columns",
    "slot_counts",
    "synthesize",
    "trace_digest",
]


def run_cluster(**kwargs):
    """Lazy forwarder to :func:`repro.cluster.runner.run_cluster` (keeps
    ``import repro.cluster`` free of the OS stack)."""
    from repro.cluster.runner import run_cluster as _run

    return _run(**kwargs)


def format_summary(report):
    """Lazy forwarder to :func:`repro.cluster.runner.format_summary`."""
    from repro.cluster.runner import format_summary as _format

    return _format(report)
