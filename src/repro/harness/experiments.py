"""One experiment function per table/figure of the paper's evaluation.

Every function boots fresh machines for each measured configuration
(hermetic, deterministic runs), drives the real kernel + workload
simulation, and returns a list of row dicts that the benchmarks print
and EXPERIMENTS.md records.

Default database sweeps are scaled down from the paper's 100 KB–100 MB
to keep benchmark wall time reasonable; pass ``FULL_DB_SIZES`` to
reproduce the paper's exact sweep.
"""

from __future__ import annotations

import gc
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.apps import unixbench
from repro.apps.faas import ZygoteRuntime, faas_image
from repro.apps.guest import GuestContext
from repro.apps.hello import hello_world_image
from repro.apps.nginx import MiniNginx, WrkClient, nginx_image
from repro.apps.redis import MiniRedis, populate, redis_image
from repro.baselines import MonolithicOS, VMCloneOS
from repro.core import CopyStrategy, IsolationConfig, UForkOS
from repro.machine import Machine
from repro.mem.layout import KiB, MiB

DEFAULT_DB_SIZES: Tuple[int, ...] = (100 * KiB, 1 * MiB, 10 * MiB)
FULL_DB_SIZES: Tuple[int, ...] = (100 * KiB, 1 * MiB, 10 * MiB, 100 * MiB)

NS_PER_US = 1_000
NS_PER_MS = 1_000_000


# ---------------------------------------------------------------------------
# Shared drivers
# ---------------------------------------------------------------------------

def _boot_redis(os_cls, db_bytes: int, value_size: int,
                **os_kwargs) -> Tuple[Any, MiniRedis]:
    # The previous run's machine is garbage by now, but every subsystem
    # holds its machine, so only the cycle collector frees it, whenever
    # it next runs a full pass.  Collect it here: a sweep then holds one
    # populated Redis machine at a time, and its peak memory no longer
    # depends on the collector's timing.
    gc.collect()
    os_ = os_cls(machine=Machine(), **os_kwargs)
    nbuckets = max(64, min(4096, db_bytes // value_size * 2))
    proc = os_.spawn(redis_image(db_bytes), "redis")
    store = MiniRedis(GuestContext(os_, proc), nbuckets=nbuckets)
    populate(store, db_bytes, value_size=value_size)
    return os_, store


def _redis_run(os_cls, db_bytes: int, value_size: int = 100 * KiB,
               **os_kwargs):
    """One BGSAVE measurement on a fresh machine."""
    _os, store = _boot_redis(os_cls, db_bytes, value_size, **os_kwargs)
    return store.bgsave("/dump.rdb")


# ---------------------------------------------------------------------------
# Figure 3: Redis DB overall save times (ms)
# ---------------------------------------------------------------------------

def fig3_redis_save(sizes: Sequence[int] = DEFAULT_DB_SIZES,
                    value_size: int = 100 * KiB) -> List[Dict[str, Any]]:
    rows = []
    for size in sizes:
        ufork = _redis_run(UForkOS, size, value_size,
                           copy_strategy=CopyStrategy.COPA,
                           isolation=IsolationConfig.fault())
        cheribsd = _redis_run(MonolithicOS, size, value_size)
        rows.append({
            "db_size": size,
            "ufork_ms": ufork.save_total_ns / NS_PER_MS,
            "cheribsd_ms": cheribsd.save_total_ns / NS_PER_MS,
            "speedup": cheribsd.save_total_ns / max(1, ufork.save_total_ns),
        })
    return rows


# ---------------------------------------------------------------------------
# Figure 4: Redis fork latency (μs), including the strategy ablation
# and the cost of TOCTTOU protection
# ---------------------------------------------------------------------------

def fig4_redis_fork_latency(sizes: Sequence[int] = DEFAULT_DB_SIZES,
                            value_size: int = 100 * KiB
                            ) -> List[Dict[str, Any]]:
    rows = []
    for size in sizes:
        copa = _redis_run(UForkOS, size, value_size,
                          copy_strategy=CopyStrategy.COPA,
                          isolation=IsolationConfig.fault())
        coa = _redis_run(UForkOS, size, value_size,
                         copy_strategy=CopyStrategy.COA,
                         isolation=IsolationConfig.fault())
        full = _redis_run(UForkOS, size, value_size,
                          copy_strategy=CopyStrategy.FULL_COPY,
                          isolation=IsolationConfig.fault())
        tocttou = _redis_run(UForkOS, size, value_size,
                             copy_strategy=CopyStrategy.COPA,
                             isolation=IsolationConfig.full())
        cheribsd = _redis_run(MonolithicOS, size, value_size)
        rows.append({
            "db_size": size,
            "ufork_copa_us": copa.fork_latency_ns / NS_PER_US,
            "ufork_coa_us": coa.fork_latency_ns / NS_PER_US,
            "ufork_full_us": full.fork_latency_ns / NS_PER_US,
            "ufork_tocttou_us": tocttou.fork_latency_ns / NS_PER_US,
            "cheribsd_us": cheribsd.fork_latency_ns / NS_PER_US,
        })
    return rows


# ---------------------------------------------------------------------------
# Figure 5: Redis forked-process memory consumption (MB)
# ---------------------------------------------------------------------------

def fig5_redis_memory(sizes: Sequence[int] = DEFAULT_DB_SIZES,
                      value_size: int = 100 * KiB) -> List[Dict[str, Any]]:
    rows = []
    for size in sizes:
        copa = _redis_run(UForkOS, size, value_size,
                          copy_strategy=CopyStrategy.COPA,
                          isolation=IsolationConfig.fault())
        coa = _redis_run(UForkOS, size, value_size,
                         copy_strategy=CopyStrategy.COA,
                         isolation=IsolationConfig.fault())
        full = _redis_run(UForkOS, size, value_size,
                          copy_strategy=CopyStrategy.FULL_COPY,
                          isolation=IsolationConfig.fault())
        cheribsd = _redis_run(MonolithicOS, size, value_size)
        rows.append({
            "db_size": size,
            "ufork_copa_mb": copa.child_extra_bytes / MiB,
            "ufork_coa_mb": coa.child_extra_bytes / MiB,
            "ufork_full_mb": full.child_extra_bytes / MiB,
            "cheribsd_mb": cheribsd.child_extra_bytes / MiB,
        })
    return rows


# ---------------------------------------------------------------------------
# Figure 6: FaaS function throughput (functions/s) on 1-3 cores
# ---------------------------------------------------------------------------

def _measure_faas_profile(os_cls, samples: int = 12,
                          **os_kwargs) -> Tuple[int, int]:
    """Measure (coordinator fork cost, child execute+exit cost) on the
    real kernel simulation; returns averages in ns."""
    os_ = os_cls(machine=Machine(), **os_kwargs)
    runtime = ZygoteRuntime(GuestContext(os_, os_.spawn(faas_image(),
                                                        "zygote")))
    runtime.warm()
    runtime.handle_request()  # warm the fork paths
    fork_total = child_total = 0
    clock = os_.machine.clock
    for _ in range(samples):
        with clock.measure() as fork_watch:
            child_ctx = runtime.ctx.fork()
        with clock.measure() as child_watch:
            child_runtime = ZygoteRuntime.attach(child_ctx)
            child_runtime.modules(limit=4)
            from repro.apps.faas import float_operation
            float_operation(child_ctx)
            child_ctx.exit(0)
        runtime.ctx.wait(child_ctx.pid)
        fork_total += fork_watch.elapsed_ns
        child_total += child_watch.elapsed_ns
    return fork_total // samples, child_total // samples


def fig6_faas_throughput(core_counts: Sequence[int] = (1, 2, 3),
                         window_s: float = 10.0) -> List[Dict[str, Any]]:
    from repro.sim import simulate_fork_pipeline
    window_ns = int(window_s * 1e9)
    profiles = {
        "ufork": _measure_faas_profile(
            UForkOS, copy_strategy=CopyStrategy.COPA,
            isolation=IsolationConfig.fault()),
        "ufork_tocttou": _measure_faas_profile(
            UForkOS, copy_strategy=CopyStrategy.COPA,
            isolation=IsolationConfig.full()),
        "cheribsd": _measure_faas_profile(MonolithicOS),
    }
    rows = []
    for cores in core_counts:
        row: Dict[str, Any] = {"cores": cores}
        for name, (fork_ns, child_ns) in profiles.items():
            result = simulate_fork_pipeline(fork_ns, child_ns, cores,
                                            duration_ns=window_ns)
            row[f"{name}_per_s"] = result.throughput_per_s
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 7: Nginx throughput (requests/s)
# ---------------------------------------------------------------------------

def _measure_nginx_profile(os_cls, samples: int = 30,
                           **os_kwargs) -> Tuple[int, int]:
    """Measure per-request (cpu_ns, io_ns) on the real kernel sim."""
    os_ = os_cls(machine=Machine(), **os_kwargs)
    master = GuestContext(os_, os_.spawn(nginx_image(), "nginx"))
    server = MiniNginx(master)
    server.fork_workers(1)
    wrk = WrkClient(GuestContext(os_, os_.spawn(nginx_image(), "wrk")))
    # warm-up
    fd = wrk.issue()
    server.serve_one(server.workers[0])
    wrk.complete(fd)
    cpu_total = io_total = 0
    for _ in range(samples):
        fd = wrk.issue()
        stats = server.serve_one(server.workers[0])
        wrk.complete(fd)
        cpu_total += stats.cpu_ns
        io_total += stats.io_wait_ns
    return cpu_total // samples, io_total // samples


def fig7_nginx_throughput(worker_counts: Sequence[int] = (1, 2, 3),
                          window_s: float = 10.0) -> List[Dict[str, Any]]:
    from repro.sim import simulate_closed_workers
    window_ns = int(window_s * 1e9)
    ufork = _measure_nginx_profile(
        UForkOS, copy_strategy=CopyStrategy.COPA,
        isolation=IsolationConfig.fault())
    ufork_tocttou = _measure_nginx_profile(
        UForkOS, copy_strategy=CopyStrategy.COPA,
        isolation=IsolationConfig.full())
    cheribsd = _measure_nginx_profile(MonolithicOS)

    rows = []
    for workers in worker_counts:
        row: Dict[str, Any] = {"workers": workers}
        # μFork: single core (immature SMP; big kernel lock, §4.5/§5.1)
        row["ufork_1core_per_s"] = simulate_closed_workers(
            ufork[0], ufork[1], workers, cores=1, duration_ns=window_ns,
            kernel_lock_fraction=0.35,
        ).throughput_per_s
        row["ufork_tocttou_1core_per_s"] = simulate_closed_workers(
            ufork_tocttou[0], ufork_tocttou[1], workers, cores=1,
            duration_ns=window_ns, kernel_lock_fraction=0.35,
        ).throughput_per_s
        # CheriBSD restricted to one core, and free to scale
        row["cheribsd_1core_per_s"] = simulate_closed_workers(
            cheribsd[0], cheribsd[1], workers, cores=1,
            duration_ns=window_ns,
        ).throughput_per_s
        row["cheribsd_multicore_per_s"] = simulate_closed_workers(
            cheribsd[0], cheribsd[1], workers, cores=workers,
            duration_ns=window_ns,
        ).throughput_per_s
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 8: hello-world fork latency and per-process memory
# ---------------------------------------------------------------------------

def fig8_hello_fork(samples: int = 10) -> List[Dict[str, Any]]:
    rows = []
    systems = (
        ("ufork", UForkOS, dict(copy_strategy=CopyStrategy.COPA,
                                isolation=IsolationConfig.fault())),
        ("cheribsd", MonolithicOS, {}),
        ("nephele", VMCloneOS, {}),
    )
    for name, os_cls, kwargs in systems:
        os_ = os_cls(machine=Machine(), **kwargs)
        parent = GuestContext(os_, os_.spawn(hello_world_image(), "hello"))
        # warm-up fork
        warm = parent.fork()
        warm.exit(0)
        parent.wait(warm.pid)
        total = 0
        memory = 0.0
        for _ in range(samples):
            with os_.machine.clock.measure() as watch:
                child = parent.fork()
            total += watch.elapsed_ns
            memory += os_.memory_of(child.proc)
            child.exit(0)
            parent.wait(child.pid)
        rows.append({
            "system": name,
            "fork_latency_us": total / samples / NS_PER_US,
            "memory_mb": memory / samples / MiB,
        })
    return rows


# ---------------------------------------------------------------------------
# Figure 9: Unixbench Spawn and Context1
# ---------------------------------------------------------------------------

def fig9_unixbench(spawn_iterations: int = 1000,
                   context1_target: int = 100_000,
                   measured_fraction: float = 0.1) -> List[Dict[str, Any]]:
    """Spawn and Context1 execution times.

    ``measured_fraction`` runs that fraction of the iterations on the
    real kernel simulation and scales linearly (both benchmarks are
    strictly linear in iteration count); pass 1.0 for a full run.
    """
    rows = []
    spawn_n = max(10, int(spawn_iterations * measured_fraction))
    ctx1_n = max(100, int(context1_target * measured_fraction))
    for name, os_cls, kwargs in (
        ("ufork", UForkOS, dict(copy_strategy=CopyStrategy.COPA,
                                isolation=IsolationConfig.fault())),
        ("cheribsd", MonolithicOS, {}),
    ):
        os_ = os_cls(machine=Machine(), **kwargs)
        ctx = GuestContext(os_, os_.spawn(hello_world_image(), "bench"))
        spawn_result = unixbench.spawn(ctx, iterations=spawn_n)
        spawn_ms = (spawn_result.total_ns / spawn_n * spawn_iterations
                    / NS_PER_MS)

        os2 = os_cls(machine=Machine(), **kwargs)
        ctx2 = GuestContext(os2, os2.spawn(hello_world_image(), "bench"))
        ctx1_result = unixbench.context1(ctx2, target=ctx1_n)
        ctx1_ms = (ctx1_result.total_ns / ctx1_n * context1_target
                   / NS_PER_MS)
        rows.append({
            "system": name,
            "spawn_ms": spawn_ms,
            "context1_ms": ctx1_ms,
        })
    return rows


# ---------------------------------------------------------------------------
# §5.2 CoPA vs CoA vs full copy (single-size ablation)
# ---------------------------------------------------------------------------

def copa_ablation(db_bytes: int = 10 * MiB,
                  value_size: int = 100 * KiB) -> List[Dict[str, Any]]:
    rows = []
    for name, strategy in (
        ("full_copy", CopyStrategy.FULL_COPY),
        ("coa", CopyStrategy.COA),
        ("copa", CopyStrategy.COPA),
    ):
        metrics = _redis_run(UForkOS, db_bytes, value_size,
                             copy_strategy=strategy,
                             isolation=IsolationConfig.fault())
        rows.append({
            "strategy": name,
            "fork_latency_us": metrics.fork_latency_ns / NS_PER_US,
            "memory_mb": metrics.child_extra_bytes / MiB,
            "save_ms": metrics.save_total_ns / NS_PER_MS,
            "page_copies": metrics.page_copies,
        })
    return rows
