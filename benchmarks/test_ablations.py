"""Ablations of μFork's individual design choices.

Each of these isolates one mechanism the paper argues for and measures
what it buys:

* **sealed-gate vs trap syscalls** (§4.4 principle 1, R1);
* **eager vs lazy GOT/metadata copy** (§3.5 step 1);
* **isolation level sweep** NONE/FAULT/FULL (§3.6, R4).
"""

from conftest import run_once

from repro.apps.guest import GuestContext
from repro.apps.hello import hello_world_image
from repro.apps.redis import MiniRedis, populate, redis_image
from repro.core import CopyStrategy, IsolationConfig, UForkOS
from repro.machine import Machine
from repro.mem.layout import KiB, MiB

NS_PER_US = 1_000


def _spawn(os_, image=None, name="app"):
    return GuestContext(os_, os_.spawn(image or hello_world_image(), name))


# ---------------------------------------------------------------------------
# Sealed-gate vs trap-based syscall entry
# ---------------------------------------------------------------------------

def run_syscall_entry_ablation():
    rows = []
    for name, trapless in (("sealed_gate", True), ("trap", False)):
        os_ = UForkOS(machine=Machine(), trapless_syscalls=trapless)
        ctx = _spawn(os_)
        samples = 200
        with os_.machine.clock.measure() as watch:
            for _ in range(samples):
                ctx.syscall("getpid")
        rows.append({
            "entry": name,
            "per_syscall_ns": watch.elapsed_ns / samples,
        })
    return rows


def test_ablation_syscall_entry(benchmark, record_figure):
    rows = run_once(benchmark, run_syscall_entry_ablation)
    record_figure("ablation_syscall_entry", rows,
                  "Ablation: sealed-gate vs trap syscall entry")
    by_entry = {row["entry"]: row for row in rows}
    # the exception-less path is the lightweightness win of §4.4
    assert by_entry["sealed_gate"]["per_syscall_ns"] < \
        0.5 * by_entry["trap"]["per_syscall_ns"]


# ---------------------------------------------------------------------------
# Eager vs lazy GOT/allocator-metadata copying
# ---------------------------------------------------------------------------

def run_eager_copy_ablation():
    rows = []
    for name, eager in (("eager", True), ("lazy", False)):
        os_ = UForkOS(machine=Machine(),
                      copy_strategy=CopyStrategy.COPA, eager_copy=eager)
        proc = os_.spawn(redis_image(1 * MiB), "redis")
        store = MiniRedis(GuestContext(os_, proc), nbuckets=128)
        populate(store, 512 * KiB, value_size=64 * KiB)

        with os_.machine.clock.measure() as fork_watch:
            child_ctx = store.ctx.fork()
        faults_before = os_.machine.counters.get("fault_cap_load")
        # the child's first real work: walk the store via its allocator
        # and GOT-resident state
        child_store = MiniRedis.attach(child_ctx)
        with os_.machine.clock.measure() as touch_watch:
            child_store.get(b"key:00000000")
            child_ctx.malloc(32)
        rows.append({
            "mode": name,
            "fork_latency_us": fork_watch.elapsed_ns / NS_PER_US,
            "first_touch_us": touch_watch.elapsed_ns / NS_PER_US,
            "cap_load_faults": os_.machine.counters.get("fault_cap_load")
            - faults_before,
        })
        child_ctx.exit(0)
        store.ctx.wait(child_ctx.pid)
    return rows


def test_ablation_eager_copy(benchmark, record_figure):
    rows = run_once(benchmark, run_eager_copy_ablation)
    record_figure("ablation_eager_copy", rows,
                  "Ablation: eager vs lazy GOT/metadata copy at fork")
    by_mode = {row["mode"]: row for row in rows}
    # eager copying front-loads cost into fork...
    assert by_mode["eager"]["fork_latency_us"] > \
        by_mode["lazy"]["fork_latency_us"]
    # ...and removes capability-load faults from the child's first work
    assert by_mode["lazy"]["cap_load_faults"] > \
        by_mode["eager"]["cap_load_faults"]
    assert by_mode["lazy"]["first_touch_us"] > \
        by_mode["eager"]["first_touch_us"]


# ---------------------------------------------------------------------------
# Isolation level sweep (R4)
# ---------------------------------------------------------------------------

def run_isolation_sweep():
    rows = []
    for name, config in (
        ("none", IsolationConfig.none()),
        ("fault", IsolationConfig.fault()),
        ("full", IsolationConfig.full()),
    ):
        os_ = UForkOS(machine=Machine(), isolation=config)
        proc = os_.spawn(redis_image(1 * MiB), "redis")
        store = MiniRedis(GuestContext(os_, proc), nbuckets=128)
        populate(store, 512 * KiB, value_size=64 * KiB)
        metrics = store.bgsave("/dump.rdb")
        rows.append({
            "isolation": name,
            "save_ms": metrics.save_total_ns / 1e6,
            "tocttou_us": os_.machine.clock.bucket_ns("tocttou") / 1e3,
        })
    return rows


def test_ablation_isolation_levels(benchmark, record_figure):
    rows = run_once(benchmark, run_isolation_sweep)
    record_figure("ablation_isolation", rows,
                  "Ablation: isolation level vs Redis save time")
    by_level = {row["isolation"]: row for row in rows}
    # each level adds cost on top of the previous
    assert by_level["none"]["save_ms"] <= by_level["fault"]["save_ms"]
    assert by_level["fault"]["save_ms"] < by_level["full"]["save_ms"]
    # only FULL pays TOCTTOU copies
    assert by_level["none"]["tocttou_us"] == 0
    assert by_level["fault"]["tocttou_us"] == 0
    assert by_level["full"]["tocttou_us"] > 0
    # and the total cost stays modest (paper: 2.6% on Redis)
    overhead = (by_level["full"]["save_ms"]
                / by_level["none"]["save_ms"]) - 1
    assert overhead < 0.15
