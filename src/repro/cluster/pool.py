"""Per-shard zygote warm pools — μFork's fast fork as the scale-out unit.

A :class:`WarmPool` is the cluster's capacity primitive: one *zygote*
μprocess is spawned and warmed once (imports, module tables — the
expensive part of a cold start), then every serving worker is a μFork
fork of it.  Adding capacity to a shard is therefore one fast fork
(``fork_worker``), and removing it is one exit+reap (``retire``) — the
paper's §U4/U5 prefork pattern operated as an elastic pool.

Constructed through the stable facade hook
:meth:`repro.api.Session.warm_pool`; see docs/API.md ("Cluster hooks")
and docs/CLUSTER.md.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional


class WarmPool:
    """A warmed zygote plus the workers forked from it on one session.

    ``image`` defaults to the session's default program image;
    ``warm`` is called once with the zygote's context before any worker
    is forked (build module tables, preload state, ...).
    """

    def __init__(self, session: Any, size: int, *,
                 image: Optional[Any] = None,
                 warm: Optional[Callable[[Any], None]] = None,
                 name: str = "zygote") -> None:
        if size < 1:
            raise ValueError("warm pool size must be >= 1")
        session.boot()
        self.session = session
        self.zygote = session.spawn(image, name=name)
        if warm is not None:
            warm(self.zygote)
        self.workers: List[Any] = []
        for _ in range(size):
            self.fork_worker()

    def __len__(self) -> int:
        return len(self.workers)

    def fork_worker(self) -> Any:
        """Fast-fork one more worker from the warm zygote."""
        worker = self.zygote.fork()
        self.workers.append(worker)
        self.session.machine.emit(metric="cluster.pool.forked")
        return worker

    def retire(self, worker: Any = None) -> int:
        """Exit and reap one worker (the most recently forked by
        default); returns its pid.  The kernel-side teardown is real —
        frames, PTEs and the PID are released through the normal
        exit/wait path."""
        if not self.workers:
            raise ValueError("warm pool has no workers to retire")
        if worker is None:
            worker = self.workers[-1]
        self.workers.remove(worker)
        pid = worker.pid
        worker.exit(0)
        self.zygote.wait(pid)
        self.session.machine.emit(metric="cluster.pool.retired")
        return pid

    def divergent_vpns(self, worker: Any = None) -> set:
        """The CoW-divergent (privately owned, refcount-1) virtual page
        numbers of ``worker`` (default: the worker ``retire`` would
        pick).

        A freshly forked worker shares almost everything with the
        zygote; only pages it has written since fork are private.  This
        is exactly the page set an incremental snapshot
        (:func:`repro.snapshot.checkpoint`) captures and a cross-shard
        migration must put on the wire — everything else re-forks from
        the target's own zygote (docs/CLUSTER.md, "Migration
        semantics")."""
        if worker is None:
            if not self.workers:
                return set()
            worker = self.workers[-1]
        os_ = self.session.os
        machine = self.session.machine
        page = machine.config.page_size
        proc = worker.proc
        items = os_.space.mapped_items(proc.region_base // page,
                                       proc.region_top // page)
        return {
            item[0] for item, count in zip(
                items, machine.phys.refcounts([item[1] for item in items]))
            if count == 1
        }

    def divergent_bytes(self, worker: Any = None) -> int:
        """Bytes of CoW-divergent pages of ``worker`` — the wire size of
        its migration payload (see :meth:`divergent_vpns`)."""
        page = self.session.machine.config.page_size
        return len(self.divergent_vpns(worker)) * page
