"""Deterministic consistent-hash load balancing and request batching.

The balancer is the cluster's front door: every request key maps to a
shard through a consistent-hash ring (:class:`ConsistentHashRing`), and
requests bound for the same shard are coalesced into batches
(:class:`Batcher`) so the per-dispatch network costs amortize
(docs/COSTMODEL.md, "The cluster cost model").

Hash positions come from BLAKE2b over the key bytes — never Python's
builtin ``hash``, whose per-process randomization would break the
byte-identical-report guarantee.  Same seed + same shard count ⇒ the
identical ring and the identical key→shard map, across processes and
platforms (tests/test_cluster_determinism.py); growing the ring by one
shard remaps only ~1/(N+1) of the key universe, the property that makes
resharding cheap.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Callable, List, Optional, Sequence, Tuple


def _position(data: bytes, seed: int) -> int:
    """A stable 64-bit ring position for ``data``."""
    digest = blake2b(data, digest_size=8,
                     salt=seed.to_bytes(8, "little", signed=False))
    return int.from_bytes(digest.digest(), "big")


class ConsistentHashRing:
    """A seeded consistent-hash ring over ``shards`` shards.

    Each shard contributes ``vnodes`` virtual nodes so load spreads
    evenly; lookups walk clockwise from the key's position to the next
    virtual node.
    """

    def __init__(self, shards: int, vnodes: int = 64, seed: int = 0) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.shards = shards
        self.vnodes = vnodes
        self.seed = seed
        points: List[Tuple[int, int]] = []
        for shard in range(shards):
            for vnode in range(vnodes):
                token = b"shard-%d-vnode-%d" % (shard, vnode)
                points.append((_position(token, seed), shard))
        points.sort()
        self._positions = [position for position, _ in points]
        self._owners = [shard for _, shard in points]

    def shard_of(self, key: int) -> int:
        """The shard owning ``key`` (clockwise successor on the ring)."""
        position = _position(key.to_bytes(8, "little", signed=False),
                             self.seed)
        index = bisect_right(self._positions, position)
        if index == len(self._positions):
            index = 0
        return self._owners[index]

    def shard_map(self, keys: int) -> List[int]:
        """Precomputed owner for every key in ``range(keys)`` — the hot
        path does one list index per request instead of one hash."""
        return [self.shard_of(key) for key in range(keys)]


# ---------------------------------------------------------------------------
# Request batching
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    """One open batch bound for one shard."""

    shard: int
    open_ns: int
    #: (arrival_ns, klass) per member, in arrival order
    members: List[Tuple[int, int]] = field(default_factory=list)


class Batcher:
    """Coalesce same-shard requests under a window/size policy.

    A batch dispatches when it reaches ``max_batch`` members (closing
    at the triggering arrival) or when its flush timer fires — modeled
    as closing at ``open_ns + window_ns`` the moment a later arrival
    observes the window has passed.  :meth:`route` walks a chunk of
    requests and hands every batch that closes to a callback, in
    dispatch order; ``add`` is the same walk over one request, and
    ``flush`` drains what is still open.
    """

    def __init__(self, shards: int, window_ns: int, max_batch: int) -> None:
        self.window_ns = window_ns
        self.max_batch = max_batch
        #: per shard, the open batch's members (None: no open batch);
        #: the first member's arrival is the batch's ``open_ns``
        self._open: List[Optional[List[Tuple[int, int]]]] = [None] * shards
        self.batches = 0
        self.max_size = 0
        self.held_requests = 0

    def route(self, shards: Sequence[int], arrivals: Sequence[int],
              klasses: Sequence[int],
              dispatch: Callable[[int, List[Tuple[int, int]], int], None]
              ) -> None:
        """Route a chunk of requests, given as equal-length columns, in
        arrival order.  Every batch a request causes to close is handed
        on at once, as ``dispatch(shard, members, close_ns)``."""
        open_batches = self._open
        window = self.window_ns
        max_batch = self.max_batch
        sizes: List[int] = []
        closed = sizes.append
        try:
            for shard, arrival, klass in zip(shards, arrivals, klasses):
                members = open_batches[shard]
                if members is not None:
                    open_ns = members[0][0]
                    if arrival - open_ns <= window:
                        members.append((arrival, klass))
                        size = len(members)
                        if size < max_batch:
                            continue
                        open_batches[shard] = None
                        closed(size)
                        dispatch(shard, members, arrival)
                        continue
                    # the open batch's timer fired before this arrival
                    open_batches[shard] = None
                    closed(len(members))
                    dispatch(shard, members, open_ns + window)
                members = [(arrival, klass)]
                if max_batch > 1:
                    open_batches[shard] = members
                else:
                    closed(1)
                    dispatch(shard, members, arrival)
        finally:
            self._account(sizes)

    def add(self, shard: int, arrival_ns: int,
            klass: int) -> List[Tuple[Batch, int]]:
        """Route one request; returns ``(batch, close_ns)`` for every
        batch this arrival caused to dispatch."""
        out: List[Tuple[Batch, int]] = []
        self.route((shard,), (arrival_ns,), (klass,),
                   lambda shard, members, close_ns: out.append(
                       (Batch(shard, members[0][0], members), close_ns)))
        return out

    def flush(self) -> List[Tuple[Batch, int]]:
        """Dispatch every still-open batch at its timer deadline."""
        out = [(Batch(shard, members[0][0], members),
                members[0][0] + self.window_ns)
               for shard, members in enumerate(self._open)
               if members is not None]
        self._open = [None] * len(self._open)
        self._account([len(batch.members) for batch, _ in out])
        return out

    def _account(self, sizes: List[int]) -> None:
        if sizes:
            self.batches += len(sizes)
            self.held_requests += sum(sizes)
            self.max_size = max(self.max_size, *sizes)

    def mean_size_ppm(self) -> int:
        """Mean batch size in parts-per-million (integer, so reports
        stay float-free)."""
        if not self.batches:
            return 0
        return (self.held_requests * 1_000_000) // self.batches


def remap_fraction_ppm(before: List[int], after: List[int]) -> int:
    """Fraction (ppm) of keys whose owner changed between two shard
    maps — the consistent-hashing stability metric the tests assert."""
    if len(before) != len(after) or not before:
        raise ValueError("shard maps must be same-length and non-empty")
    moved = sum(1 for a, b in zip(before, after) if a != b)
    return (moved * 1_000_000) // len(before)
