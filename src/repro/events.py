"""The event table: every instrumentation event, declared once.

An :class:`Event` is what one ``machine.emit`` call
(:meth:`repro.machine.EventSink.emit`) records, under up to three
names: ``trace``, the record an attached :class:`repro.trace.TraceLog`
receives (and the ``trace.<trace>`` obs counter); ``counter``, the
always-on ``machine.counters`` entry; and ``metric``, the obs counter.  Events whose names carry a run-time key
(a syscall, a fault kind, a chaos point, ...) form families declared
on first use, e.g. ``SYSCALL_NAMED["fork"]``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.obs.registry import check_metric_name

#: every declared event, in declaration order
EVENTS: List["Event"] = []
#: every counter name, by slot (``Event.slot``); events may share one
_COUNTER_NAMES: List[str] = []
_COUNTER_SLOTS: Dict[str, int] = {}


class Event:
    """One table entry; constructing it declares it.  Obs names pass
    :func:`check_metric_name` here, once."""

    __slots__ = ("trace", "counter", "metric", "trace_metric", "slot")

    def __init__(self, trace: Optional[str] = None,
                 counter: Optional[str] = None,
                 metric: Optional[str] = None) -> None:
        self.trace = trace
        self.counter = counter
        self.metric = metric if metric is None else check_metric_name(metric)
        self.trace_metric = None if trace is None else \
            check_metric_name("trace." + trace)
        self.slot = None
        if counter is not None:
            self.slot = _COUNTER_SLOTS.setdefault(counter, len(_COUNTER_NAMES))
            if self.slot == len(_COUNTER_NAMES):
                _COUNTER_NAMES.append(counter)
        EVENTS.append(self)


class _Family(dict):
    """Key → event, declared by ``make(key)`` on first use."""

    def __init__(self, make: Callable[..., Event]) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key) -> Event:
        entry = self[key] = self.make(key)
        return entry


class EventCounters:
    """Read view of one machine's always-on counters: ``machine.emit``
    adds into ``values`` by counter slot, so the view lists each
    counter from its first emit on (even one of amount 0), in
    first-emit order."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: Dict[int, int] = {}

    def get(self, name: str) -> int:
        return self.values.get(_COUNTER_SLOTS.get(name), 0)

    def snapshot(self) -> Dict[str, int]:
        return {_COUNTER_NAMES[slot]: value
                for slot, value in self.values.items()}

    def reset(self) -> None:
        self.values.clear()


#: carries a batch's ordered tracer records, counted by earlier emits
RECORDS = Event()

# -- hw ------------------------------------------------------------------
FRAMES_ALLOCATED = Event(None, "frames_allocated", "hw.phys.frames_allocated")
FRAMES_FREED = Event(None, "frames_freed", "hw.phys.frames_freed")
FRAMES_COPIED = Event(None, "frames_copied", "hw.phys.frames_copied")
TAG_GRANULES_SCANNED = Event(metric="hw.phys.tag_granules_scanned")
PAGE_FAULT = _Family(lambda kind: Event(
    "page_fault", f"fault_{kind}", f"hw.paging.fault.{kind}"))
TLB_FLUSH = Event(None, "tlb_flush", "hw.tlb.flush")
TLB_REMOTE_INVALIDATE = Event(None, "tlb_remote_invalidate",
                              "smp.tlb.remote_invalidate")
DOMAIN_SWITCH = Event(counter="context_switch")

# -- kernel --------------------------------------------------------------
SYSCALL = Event("syscall", "syscall", "kernel.syscall.entries")
SYSCALL_NAMED = _Family(lambda name: Event(counter=f"syscall_{name}"))
TOCTTOU_COPIES = Event(metric="kernel.syscall.tocttou_copies")
EXIT = Event("exit")
CONTEXT_SWITCH = Event(None, "context_switch", "kernel.sched.context_switch")
PIPE_BYTES_WRITTEN = Event(metric="kernel.ipc.pipe_bytes_written")
PIPE_BYTES_READ = Event(metric="kernel.ipc.pipe_bytes_read")
MQ_BYTES_SENT = Event(metric="kernel.ipc.mq_bytes_sent")
MQ_BYTES_RECEIVED = Event(metric="kernel.ipc.mq_bytes_received")
NET_PACKETS = Event(metric="kernel.net.packets")
NET_BYTES = Event(metric="kernel.net.bytes")
NET_CONNECTIONS = Event(metric="kernel.net.connections")

# -- core ----------------------------------------------------------------
FORK = Event("fork", "fork", "core.ufork.forks")
FORK_DEGRADED = Event("fork_degraded", metric="core.ufork.degraded_forks")
FORK_ROLLBACK = Event("fork_rollback", "fork_rollbacks",
                      "core.ufork.fork_rollbacks")
FORK_PAGE_COPY = Event("fork_page_copy", "fork_page_copies",
                       "core.strategies.eager_page_copies")
BREAK_PAGE_COPY = Event(counter="fork_page_copies")


def _cow_break(key) -> Event:
    strategy, side, kind = key
    counter = ("fork_parent_cow_break" if side == "parent"
               else f"fork_child_break_{kind}")
    return Event("cow_break", counter,
                 f"core.strategies.{strategy}.break.{side}.{kind}")


#: keyed by (strategy value, "parent" or "child", fault kind name)
COW_BREAK = _Family(_cow_break)
CAP_FAULT_STORM_REPEAT = Event(
    metric="core.strategies.cap_fault_storm_repeats")
RESOLVED_PENDING_PAGES = Event(metric="core.strategies.resolved_pending_pages")
DEMAND_ZERO_PAGE = Event(counter="demand_zero_pages")
RELOCATE_FRAME = Event("relocate_frame", "caps_relocated",
                       "core.relocate.caps_relocated")
FRAMES_SCANNED = Event(metric="core.relocate.frames_scanned")
REGISTERS_RELOCATED = Event(metric="core.relocate.registers_relocated")
LIBRARY_MAPPED = Event(counter="library_mapped")
UPROCESS_LOADED = Event(counter="uprocess_loaded")

# -- snapshot ------------------------------------------------------------
CHECKPOINT = Event("checkpoint", "checkpoint", "core.snapshot.checkpoints")
PAGES_CAPTURED = Event(metric="core.snapshot.pages_captured")
RESTORE = Event("restore", "restore", "core.snapshot.restores")
RESTORE_ROLLBACK = Event("restore_rollback", "restore_rollbacks",
                         "core.snapshot.restore_rollbacks")
PAGES_RESTORED = Event(metric="core.snapshot.pages_restored")
DROPPED_FDS = Event(metric="core.snapshot.dropped_fds")
RESTORE_INTO = Event("restore_into", "restore_into")
PAGES_APPLIED = Event(metric="core.snapshot.pages_applied")

# -- baselines -----------------------------------------------------------
MONOLITHIC_FORK = Event(None, "fork", "baselines.monolithic.forks")
MONOLITHIC_COW_BREAK = Event(metric="baselines.monolithic.cow_breaks")
COW_PAGE_COPY = Event(counter="cow_page_copies")
ALLOCATOR_TOUCH_PAGES = Event(
    None, "allocator_touch_pages",
    "baselines.monolithic.allocator_touch_pages")
VMCLONE_FORK = Event(None, "fork", "baselines.vmclone.forks")

# -- smp -----------------------------------------------------------------
LOCK_ACQUIRE = _Family(lambda name: Event(
    metric=f"smp.lock.{name}.acquire"))
IPI_SENT = Event(None, "ipi_sent", "smp.ipi.sent")
IPI_KIND = _Family(lambda kind: Event(metric=f"smp.ipi.{kind}"))
IPI_DROPPED = Event(metric="smp.ipi.dropped")
IPI_RESENT = Event(metric="smp.ipi.resent")
IPI_ACKED = Event(None, "ipi_acked", "smp.ipi.acked")
TLB_SHOOTDOWN = Event("tlb_shootdown", "tlb_shootdown_broadcast",
                      "smp.tlb.shootdowns")
TLB_SHOOTDOWN_IPIS = Event(counter="tlb_shootdown_ipis")
STALE_STORMS = Event(metric="smp.tlb.stale_storms")
WORK_STEAL = Event(None, "work_steal", "smp.sched.steals")
STEAL_ABORTS = Event(metric="smp.sched.steal_aborts")
REQUEST_FAILURES = Event(metric="smp.run.request_failures")

# -- chaos ---------------------------------------------------------------
CHAOS_INJECTED = _Family(lambda point: Event(
    "chaos_inject", metric=f"chaos.injected.{point}"))
CHAOS_RECOVERED = _Family(lambda point: Event(
    metric=f"chaos.recovered.{point}"))
RETRY_ATTEMPTS = Event(metric="chaos.retry.attempts")
RETRY_SUCCESSES = Event(metric="chaos.retry.successes")
RETRY_EXHAUSTED = Event(metric="chaos.retry.exhausted")
OP_FAILURES = Event(metric="chaos.run.op_failures")

# -- cluster -------------------------------------------------------------
POOL_FORKED = Event(metric="cluster.pool.forked")
POOL_RETIRED = Event(metric="cluster.pool.retired")
SHARD_CALIBRATIONS = Event(metric="cluster.shard.calibrations")
SHARD_AUDITED = Event(metric="cluster.shard.audited")
MIGRATE_OUT = Event(metric="cluster.migrate.out")
MIGRATE_IN = Event(metric="cluster.migrate.in")
