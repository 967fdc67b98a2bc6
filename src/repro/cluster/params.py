"""The cluster-layer cost model (simulated nanoseconds).

`repro.params.CostModel` prices everything that happens *inside* one
machine; this module prices what happens *between* machines — the
network hops, batching overheads and cross-shard migration costs the
cluster layer charges on top of per-shard service times.  Every
simulated-ns figure a ``repro.cluster/v1`` report contains is derivable
from these constants plus the per-shard calibration the runner performs
on real machines (see docs/COSTMODEL.md, "The cluster cost model").

All constants are integers so cluster arithmetic stays exact and the
reports stay byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class ClusterCosts:
    """Simulated-ns costs of the cluster fabric.

    The per-request latency decomposition (docs/COSTMODEL.md)::

        latency(r) = lb_route_ns
                   + wire_ns_per_byte * (request_bytes + response_bytes)
                   + (close(b) - arrival(r))          # batch hold
                   + net_hop_ns + batch_dispatch_ns   # amortized: 1/batch
                   + queue_wait(shard worker)
                   + service_ns(class)                # calibrated, per shard
                   + net_hop_ns                       # response hop

    and cross-shard migration::

        migration_ns(bytes) = migration_fixed_ns + bytes * wire_ns_per_byte
    """

    #: one network traversal between the balancer and a shard (median
    #: intra-datacenter RTT/2 for a small RPC)
    net_hop_ns: int = 50_000
    #: per-request balancer work: header parse + consistent-hash lookup
    lb_route_ns: int = 400
    #: per-dispatched-batch fixed cost (one sendmsg + NIC doorbell),
    #: amortized over every request in the batch
    batch_dispatch_ns: int = 8_000
    #: serialized payload cost on the wire (~1 GB/s effective)
    wire_ns_per_byte: int = 1
    #: request envelope size (headers + arguments)
    request_bytes: int = 512
    #: response envelope size
    response_bytes: int = 1_024
    #: the balancer holds an open batch at most this long before the
    #: flush timer fires
    batch_window_ns: int = 200_000
    #: a batch dispatches immediately once it holds this many requests
    max_batch: int = 32
    #: cross-shard μprocess migration fixed path: quiesce the worker,
    #: two control-plane round trips, re-fork from the target's zygote
    migration_fixed_ns: int = 2_000_000

    def __post_init__(self) -> None:
        # non-negative costs keep every request's latency non-negative
        for field in fields(self):
            if getattr(self, field.name) < 0:
                raise ValueError(f"{field.name} must be >= 0")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")

    def scaled(self, **overrides: int) -> "ClusterCosts":
        """Return a copy with individual constants overridden."""
        return replace(self, **overrides)

    # -- derived helpers ------------------------------------------------

    @property
    def per_request_overhead_ns(self) -> int:
        """The costs every request pays regardless of batching:
        balancer routing plus both payloads on the wire."""
        return self.lb_route_ns + self.wire_ns_per_byte * (
            self.request_bytes + self.response_bytes)

    @property
    def per_batch_overhead_ns(self) -> int:
        """The costs one dispatched batch pays exactly once: the
        request-path network hop plus the dispatch fixed cost."""
        return self.net_hop_ns + self.batch_dispatch_ns

    def migration_ns(self, divergent_bytes: int) -> int:
        """Cost of migrating one worker μprocess whose CoW-divergent
        state is ``divergent_bytes`` (docs/CLUSTER.md: everything else
        re-forks from the target shard's local zygote)."""
        return self.migration_fixed_ns + (divergent_bytes
                                          * self.wire_ns_per_byte)


DEFAULT_CLUSTER_COSTS = ClusterCosts()
