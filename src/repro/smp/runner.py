"""The SMP workload runner behind ``python -m repro.harness smp``.

Boots a machine with N online CPUs and drives one of three workloads
through the :class:`~repro.smp.exec.SmpExecutor`:

* ``faas`` — the Fig 6 zygote: per-CPU worker threads each fork the
  warm runtime, run ``float_operation`` in the child and reap it.  Pure
  CPU, so simulated throughput scales with cores until steal/IPI
  overhead bites.
* ``nginx`` — the Fig 7 server: ``2 × N`` forked worker μprocesses
  serve closed-loop requests; each step returns its device wait so
  workers overlap I/O even on one core.
* ``forkbench`` — the §2.2 lightweightness argument: back-to-back
  fork/exit cycles from a *single-threaded* parent on μFork vs the
  monolithic baseline.  μFork consults the μprocess CPU footprint and
  sends **zero** shootdown IPIs; the monolithic kernel conservatively
  broadcasts to every other online CPU, so its fork cost grows with
  ``num_cpus`` while μFork's stays flat (docs/COSTMODEL.md).

Everything is a pure function of ``(seed, num_cpus, workload,
requests, mix)``: dispatch order, steal victims and the chaos schedule
are all deterministic, so two same-parameter runs export byte-identical
``repro.obs/v1`` sidecars (tests/test_smp_determinism.py).

Like :mod:`repro.chaos.runner`, this module imports the full OS stack
and therefore is *not* re-exported from :mod:`repro.smp` (which
:mod:`repro.machine` imports).
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional

from repro import events
from repro.harness.matrix import boot, kernel_state_digest, write_sidecars

#: schema tag for the summary dict / ``*.smp.json`` sidecar
RUN_SCHEMA = "repro.smp.run/v1"

WORKLOADS = ("faas", "nginx", "forkbench")

#: forkbench times fork itself, so it takes no fault mix: an injected
#: fork failure would abort the cycle and skew ``per_fork_ns``
FORKBENCH_MIX_ERROR = ("--fault-mix does not apply to the forkbench "
                       "workload: injected faults would make its "
                       "per-fork times meaningless")


def run_smp(seed: int = 7, num_cpus: int = 4, requests: int = 64,
            workload: str = "faas", mix: Optional[str] = None,
            obs_dir: Optional[str] = None) -> Dict[str, Any]:
    """Run one SMP workload; returns the JSON-ready summary dict.

    With ``obs_dir`` set, writes two sidecars there:
    ``smp-<seed>-c<num_cpus>.obs.json`` (the merged ``repro.obs/v1``
    metrics export) and ``...smp.json`` (this summary).
    """
    from repro.obs import obs_session, to_json

    if workload not in WORKLOADS:
        raise ValueError(f"unknown SMP workload {workload!r}; "
                         f"choose from {WORKLOADS}")
    if num_cpus < 1:
        raise ValueError("num_cpus must be >= 1")
    if workload == "forkbench" and mix:
        raise ValueError(FORKBENCH_MIX_ERROR)

    with obs_session() as session:
        if workload == "forkbench":
            detail = _run_forkbench(seed, num_cpus, requests, mix)
        elif workload == "nginx":
            detail = _run_nginx(seed, num_cpus, requests, mix)
        else:
            detail = _run_faas(seed, num_cpus, requests, mix)
        export = session.export()

    summary: Dict[str, Any] = {
        "schema": RUN_SCHEMA,
        "seed": seed,
        "num_cpus": num_cpus,
        "workload": workload,
        "requests": requests,
        "mix": mix or "",
    }
    summary.update(detail)
    summary["obs_export_sha256"] = hashlib.sha256(
        to_json(export).encode("utf-8")).hexdigest()

    if obs_dir is not None:
        write_sidecars(obs_dir, f"smp-{seed}-c{num_cpus}", obs=export,
                       smp=summary)
    return summary


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------

def _machine_stats(machine: Any, ex: Any) -> Dict[str, Any]:
    """The per-run SMP bookkeeping every workload reports."""
    ex.export_cpu_metrics()
    counters = machine.counters
    per_cpu = [
        {"cpu": cpu.core_id, "busy_ns": cpu.busy_ns,
         "idle_ns": cpu.idle_ns, "steps": cpu.steps}
        for cpu in machine.cpus
    ]
    return {
        "makespan_ns": ex.makespan_ns,
        "steps_run": ex.steps_run,
        "steals": counters.get("work_steal"),
        "ipi": {
            "sent": machine.ipi.sent,
            "acked": machine.ipi.acked,
            "dropped": machine.ipi.dropped,
            "resent": machine.ipi.resent,
        },
        "shootdown_broadcasts": counters.get("tlb_shootdown_broadcast"),
        "shootdown_ipis": counters.get("tlb_shootdown_ipis"),
        "per_cpu": per_cpu,
    }


def _chaos_stats(engine: Any) -> Dict[str, Any]:
    fired = getattr(engine, "fired", {})
    recovered = getattr(engine, "recovered", {})
    return {
        "injected": sum(fired.values()),
        "injected_by_point": dict(sorted(fired.items())),
        "recovered": sum(recovered.values()),
    }


# ----------------------------------------------------------------------
# faas: per-CPU workers forking the warm zygote (Fig 6 under SMP)
# ----------------------------------------------------------------------

def _run_faas(seed: int, num_cpus: int, requests: int,
              mix: Optional[str]) -> Dict[str, Any]:
    from repro.apps.faas import ZygoteRuntime, faas_image
    from repro.errors import SimError
    from repro.smp.exec import SmpExecutor

    machine, os_, ctx = boot("copa", seed=seed, cpus=num_cpus,
                             chaos_mix=mix, image=faas_image(),
                             name="zygote")
    engine = machine.chaos
    with engine.paused():
        runtime = ZygoteRuntime(ctx)
        runtime.warm()

    ex = SmpExecutor(os_)
    remaining = [requests]
    completed = [0]
    failures = [0]

    def make_worker(worker_task):
        def step():
            if remaining[0] <= 0:
                return None
            remaining[0] -= 1
            try:
                result = runtime.handle_request()
                assert result.ok
                completed[0] += 1
            except SimError:
                # a fault escaped every recovery path; the kernel is
                # already consistent (rollback), the request is lost
                failures[0] += 1
                machine.emit(events.REQUEST_FAILURES)
            ex.submit(worker_task, step)
            return None
        return step

    zygote_regs = ctx.proc.main_task().registers
    for _ in range(num_cpus):
        worker = ctx.proc.add_task()
        worker.registers.copy_from(zygote_regs)
        ex.submit(worker, make_worker(worker))
    makespan = ex.run()

    stats = _machine_stats(machine, ex)
    stats.update(_chaos_stats(engine))
    stats["completed"] = completed[0]
    stats["request_failures"] = failures[0]
    stats["throughput_rps"] = (
        completed[0] / (makespan / 1e9) if makespan > 0 else 0.0
    )
    stats["kernel_state_digest"] = kernel_state_digest(os_)
    return stats


# ----------------------------------------------------------------------
# nginx: forked worker μprocesses overlapping I/O (Fig 7 under SMP)
# ----------------------------------------------------------------------

def _run_nginx(seed: int, num_cpus: int, requests: int,
               mix: Optional[str]) -> Dict[str, Any]:
    from repro.apps.nginx import MiniNginx, WrkClient, nginx_image
    from repro.errors import SimError
    from repro.smp.exec import SmpExecutor

    machine, os_, master = boot("copa", seed=seed, cpus=num_cpus,
                                chaos_mix=mix, image=nginx_image(),
                                name="nginx")
    engine = machine.chaos
    worker_count = 2 * num_cpus
    with engine.paused():
        server = MiniNginx(master)
        workers = server.fork_workers(worker_count)
        client_ctx = master.fork()
        client = WrkClient(client_ctx)

    ex = SmpExecutor(os_)
    remaining = [requests]
    completed = [0]
    failures = [0]
    io_wait_total = [0]

    def make_worker(worker_ctx, worker_task):
        def step():
            if remaining[0] <= 0:
                return None
            remaining[0] -= 1
            io_ns = 0.0
            try:
                fd = client.issue()
                stats = server.serve_one(worker_ctx)
                client.complete(fd)
                completed[0] += 1
                io_ns = float(stats.io_wait_ns)
                io_wait_total[0] += stats.io_wait_ns
            except SimError:
                failures[0] += 1
                machine.emit(events.REQUEST_FAILURES)
            ex.submit(worker_task, step)
            return io_ns
        return step

    for worker_ctx in workers:
        task = worker_ctx.proc.main_task()
        ex.submit(task, make_worker(worker_ctx, task))
    makespan = ex.run()

    with engine.paused():
        server.shutdown()
        if client_ctx.proc.alive:
            client_ctx.exit(0)
            master.wait(client_ctx.pid)

    stats = _machine_stats(machine, ex)
    stats.update(_chaos_stats(engine))
    stats["workers"] = worker_count
    stats["completed"] = completed[0]
    stats["request_failures"] = failures[0]
    stats["io_wait_ns"] = io_wait_total[0]
    stats["throughput_rps"] = (
        completed[0] / (makespan / 1e9) if makespan > 0 else 0.0
    )
    stats["kernel_state_digest"] = kernel_state_digest(os_)
    return stats


# ----------------------------------------------------------------------
# forkbench: single-threaded fork cost vs online CPUs (§2.2)
# ----------------------------------------------------------------------

def _run_forkbench(seed: int, num_cpus: int, requests: int,
                   mix: Optional[str]) -> Dict[str, Any]:
    from repro.apps.hello import hello_world_image

    systems: Dict[str, Any] = {}
    for name, strategy in (("ufork", "copa"), ("monolithic", "monolithic")):
        machine, _kernel, ctx = boot(strategy, seed=seed, cpus=num_cpus,
                                     chaos_mix=mix,
                                     image=hello_world_image(), name=name)
        before = machine.clock.now_ns
        for _ in range(requests):
            child = ctx.fork()
            child.exit(0)
            ctx.wait(child.pid)
        elapsed = machine.clock.now_ns - before
        systems[name] = {
            "fork_cycles": requests,
            "total_ns": elapsed,
            "per_fork_ns": elapsed / requests if requests else 0.0,
            "shootdown_ipis": machine.counters.get("tlb_shootdown_ipis"),
            "ipi_sent": machine.ipi.sent,
        }
    mono = systems["monolithic"]["per_fork_ns"]
    uf = systems["ufork"]["per_fork_ns"]
    return {
        "systems": systems,
        "fork_gap": mono / uf if uf else 0.0,
    }


# ----------------------------------------------------------------------
# CLI rendering
# ----------------------------------------------------------------------

def format_summary(summary: Dict[str, Any]) -> str:
    """Render a run summary for the CLI."""
    head = (f"smp run: workload={summary['workload']} "
            f"cpus={summary['num_cpus']} seed={summary['seed']} "
            f"requests={summary['requests']}")
    if summary["mix"]:
        head += f" mix={summary['mix']}"
    lines = [head]
    if summary["workload"] == "forkbench":
        for name, sys_stats in summary["systems"].items():
            lines.append(
                f"  {name}: {sys_stats['per_fork_ns'] / 1e3:.1f} us/fork, "
                f"{sys_stats['shootdown_ipis']} shootdown IPIs "
                f"({sys_stats['fork_cycles']} cycles)")
        lines.append(f"  fork gap (monolithic/ufork): "
                     f"{summary['fork_gap']:.2f}x")
        return "\n".join(lines)
    ipi = summary["ipi"]
    lines += [
        f"  completed={summary['completed']} "
        f"failures={summary['request_failures']} "
        f"makespan={summary['makespan_ns'] / 1e6:.2f} ms "
        f"throughput={summary['throughput_rps']:.0f} req/s",
        f"  steals={summary['steals']} "
        f"ipis sent={ipi['sent']} acked={ipi['acked']} "
        f"dropped={ipi['dropped']} "
        f"shootdowns={summary['shootdown_broadcasts']} "
        f"({summary['shootdown_ipis']} IPIs)",
    ]
    if summary.get("injected"):
        lines.append(f"  chaos: injected={summary['injected']} "
                     f"recovered={summary['recovered']}")
    for cpu in summary["per_cpu"]:
        lines.append(
            f"  cpu{cpu['cpu']}: busy={cpu['busy_ns'] / 1e6:.2f} ms "
            f"idle={cpu['idle_ns'] / 1e6:.2f} ms steps={cpu['steps']}")
    lines.append(f"  kernel_state_digest="
                 f"{summary['kernel_state_digest'][:16]}…")
    return "\n".join(lines)
