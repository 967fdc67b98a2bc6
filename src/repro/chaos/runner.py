"""The chaos workload runner behind ``python -m repro.harness chaos``.

Drives a randomized-but-deterministic guest workload (forks, pipes,
files, heap churn) on a μFork OS while a :class:`ChaosEngine` injects
faults on its seed-driven schedule.  The run must *survive*: every
injected fault is either retried, degraded around, or rolled back, and
the workload's own assertions (relocated heaps, byte-exact pipe and
file round-trips) check that survival never corrupts state.

Everything is a pure function of ``seed``: the op sequence comes from
``random.Random(seed)``, the fault schedule from the engine's keyed
hashes, and the final
:func:`~repro.harness.matrix.kernel_state_digest` fingerprints the
surviving kernel, so two same-seed runs must agree byte-for-byte
(tests/test_chaos_determinism.py).

This module imports the full OS stack, so it intentionally is *not*
re-exported from :mod:`repro.chaos` (which the kernel itself imports).
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, List, Optional

from repro.chaos.engine import ChaosEngine
from repro.harness.matrix import boot, kernel_state_digest, write_sidecars

#: schema tag for the summary dict / ``*.chaos.json`` sidecar
RUN_SCHEMA = "repro.chaos.run/v1"

#: default per-point probability when the CLI gets no ``--fault-mix``
DEFAULT_MIX = "default=0.02"


def run_chaos(seed: int = 7, iterations: int = 200,
              mix: str = DEFAULT_MIX,
              obs_dir: Optional[str] = None) -> Dict[str, Any]:
    """Run the chaos workload; returns the JSON-ready summary dict.

    With ``obs_dir`` set, writes two sidecars there:
    ``chaos-<seed>.obs.json`` (the ``repro.obs/v1`` metrics export) and
    ``chaos-<seed>.chaos.json`` (engine schedule + this summary).
    """
    from repro.apps.hello import hello_world_image
    from repro.errors import SimError
    from repro.obs import to_json

    machine, os_, parent = boot("copa", seed=seed, cpus=1, obs=True,
                                chaos_mix=mix, image=hello_world_image(),
                                name="chaos")
    engine = machine.chaos
    with engine.paused():
        parent.syscall("mkdir", "/chaos")

    rng = random.Random(seed)
    ops = {"fork": 0, "pipe": 0, "file": 0, "malloc": 0}
    failures: Dict[str, int] = {}
    for index in range(iterations):
        op = rng.choice(("fork", "pipe", "file", "malloc"))
        children: List[Any] = []
        try:
            if op == "fork":
                _op_fork(parent, children, rng)
            elif op == "pipe":
                _op_pipe(parent, children, rng, index)
            elif op == "file":
                _op_file(parent, rng, index)
            else:
                _op_malloc(parent, rng)
            ops[op] += 1
        except SimError as exc:
            # a fault escaped every recovery path (retry budget
            # exhausted, alloc failure, ...) — the *workload* absorbs
            # it, the kernel must already be consistent
            failures[type(exc).__name__] = \
                failures.get(type(exc).__name__, 0) + 1
            machine.emit(metric="chaos.run.op_failures")
        finally:
            _reap(parent, children, engine)

    export = machine.obs.export()
    summary = {
        "schema": RUN_SCHEMA,
        "seed": seed,
        "iterations": iterations,
        "mix": engine.mix.to_spec(),
        "ops": ops,
        "op_failures": dict(sorted(failures.items())),
        "injected": sum(engine.fired.values()),
        "injected_by_point": dict(sorted(engine.fired.items())),
        "recovered": sum(engine.recovered.values()),
        "degrade_tiers": engine.degrade_tiers(),
        "alive_processes": os_.process_count(),
        "allocated_frames": machine.phys.allocated_frames,
        "clock_ns": machine.clock.now_ns,
        "kernel_state_digest": kernel_state_digest(os_),
        "obs_export_sha256": hashlib.sha256(
            to_json(export).encode("utf-8")).hexdigest(),
    }
    if obs_dir is not None:
        write_sidecars(obs_dir, f"chaos-{seed}", obs=export,
                       chaos={"run": summary, "engine": engine.export()})
    return summary


# ----------------------------------------------------------------------
# Workload ops (each asserts its own end-to-end correctness)
# ----------------------------------------------------------------------

def _op_fork(parent: Any, children: List[Any], rng: random.Random) -> None:
    """Fork; the child proves its heap was copied *and* relocated."""
    marker = rng.randrange(2 ** 32)
    cap = parent.malloc(64)
    parent.store_u64(cap, marker)
    parent.store_cap(cap, cap, offset=16)  # a capability to relocate
    child = parent.fork()
    children.append(child)
    child_cap = cap.rebased(child.proc.region_base
                            - parent.proc.region_base)
    assert child.load_u64(child_cap) == marker
    loaded = child.load_cap(child_cap, offset=16)
    assert loaded.base == child_cap.base, "child capability not relocated"
    parent.free(cap)


def _op_pipe(parent: Any, children: List[Any], rng: random.Random,
             index: int) -> None:
    """fork + pipe round-trip; short writes must not lose bytes."""
    read_fd, write_fd = parent.syscall("pipe")
    payload = bytes(rng.randrange(256)
                    for _ in range(rng.randrange(64, 512)))
    child = parent.fork()
    children.append(child)
    child.write_bytes(write_fd, payload)
    got = parent.read_bytes(read_fd, len(payload))
    assert got == payload, f"pipe round-trip corrupted at op {index}"
    parent.syscall("close", read_fd)
    parent.syscall("close", write_fd)


def _op_file(parent: Any, rng: random.Random, index: int) -> None:
    """RAM-disk file round-trip under injected EINTR/short I/O."""
    from repro.kernel.vfs import O_CREAT, O_RDWR

    path = f"/chaos/f{index}"
    payload = bytes(rng.randrange(256)
                    for _ in range(rng.randrange(32, 256)))
    fd = parent.syscall("open", path, O_CREAT | O_RDWR)
    parent.write_bytes(fd, payload)
    parent.syscall("lseek", fd, 0, 0)
    got = parent.read_bytes(fd, len(payload))
    assert got == payload, f"file round-trip corrupted at op {index}"
    parent.syscall("close", fd)
    parent.syscall("unlink", path)


def _op_malloc(parent: Any, rng: random.Random) -> None:
    """Heap churn: allocate, fill, verify, free."""
    cap = parent.malloc(rng.randrange(32, 1024))
    value = rng.randrange(2 ** 32)
    parent.store_u64(cap, value)
    assert parent.load_u64(cap) == value
    parent.free(cap)


def _reap(parent: Any, children: List[Any], engine: ChaosEngine) -> None:
    """Tear down an op's children with injection paused (cleanup is
    bookkeeping, not a chaos target — it must not become a second
    failure)."""
    from repro.errors import SimError

    with engine.paused():
        for child in children:
            try:
                if child.proc.alive:
                    child.exit(0)
                if not child.proc.reaped:
                    parent.wait(child.proc.pid)
            except SimError:
                pass


def format_summary(summary: Dict[str, Any]) -> str:
    """Render a run summary for the CLI."""
    lines = [
        f"chaos run: seed={summary['seed']} "
        f"iterations={summary['iterations']} mix={summary['mix']}",
        f"  ops: " + ", ".join(f"{k}={v}"
                               for k, v in sorted(summary["ops"].items())),
        f"  injected={summary['injected']} "
        f"recovered={summary['recovered']} "
        f"op_failures={sum(summary['op_failures'].values())} "
        f"degrade_tiers={summary['degrade_tiers']}",
        f"  survivors: {summary['alive_processes']} processes, "
        f"{summary['allocated_frames']} frames, "
        f"clock={summary['clock_ns']} ns",
        f"  kernel_state_digest={summary['kernel_state_digest'][:16]}…",
    ]
    if summary["injected_by_point"]:
        lines.append("  fired points:")
        for point, count in summary["injected_by_point"].items():
            lines.append(f"    {point}: {count}")
    return "\n".join(lines)
