"""Extra Unixbench-style microbenchmark (beyond the paper's Fig 9).

The raw syscall rate isolates one SASOS lightweightness mechanism,
trapless (sealed-gate) kernel entry, in support of the paper's Fig 9
story.
"""

from conftest import run_once

from repro.apps import unixbench
from repro.apps.guest import GuestContext
from repro.apps.hello import hello_world_image
from repro.baselines import MonolithicOS
from repro.core import UForkOS
from repro.machine import Machine


def run_extra_microbench():
    rows = []
    for name, os_cls in (("ufork", UForkOS), ("cheribsd", MonolithicOS)):
        os_ = os_cls(machine=Machine())
        ctx = GuestContext(os_, os_.spawn(hello_world_image(), "bench"))
        rate_result = unixbench.syscall_rate(ctx, calls=500)

        rows.append({
            "system": name,
            "syscall_ns": rate_result.per_syscall_ns,
            "syscalls_per_s": rate_result.calls_per_s,
        })
    return rows


def test_extra_microbenchmarks(benchmark, record_figure):
    rows = run_once(benchmark, run_extra_microbench)
    record_figure(
        "extra_microbench", rows,
        "Extra microbenchmark: syscall rate",
    )
    by_system = {row["system"]: row for row in rows}
    ufork = by_system["ufork"]
    cheribsd = by_system["cheribsd"]

    # syscall entry: sealed gate vs trap — a wide per-call gap
    assert ufork["syscall_ns"] < 0.5 * cheribsd["syscall_ns"]
    assert ufork["syscalls_per_s"] > 2 * cheribsd["syscalls_per_s"]
