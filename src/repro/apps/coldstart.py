"""FaaS cold start three ways: boot, zygote fork, snapshot restore.

The serverless provisioning question behind μFork §U4/U5 and the
snapshot subsystem: when a request arrives and no warm worker exists,
how long until the first request is served?  Three answers, each run
for real on its own machine and measured in simulated nanoseconds:

* **cold boot** — spawn the runtime image and warm it from scratch
  (module loading/compilation), then serve.  The baseline every FaaS
  platform wants to avoid.
* **zygote fork** — a pre-warmed zygote already lives on the machine;
  serving is one μFork fast fork.  The paper's prefork pattern — but it
  needs a warm zygote *on this machine* already.
* **snapshot restore** — no warm process anywhere on the machine: a
  ``repro.snapshot/v1`` blob of a warmed zygote (checkpointed once,
  elsewhere, earlier) is restored, capabilities re-minted for this
  machine, then serving forks from the revived zygote.  Cold
  infrastructure plus one blob equals a warm start — the
  CRIU/Firecracker-style answer, built on :mod:`repro.snapshot`.

Used by the docs/SNAPSHOT.md walkthrough.
"""

from __future__ import annotations

from typing import Any, Dict

#: schema tag of the comparison dict
RUN_SCHEMA = "repro.apps.coldstart/v1"


def _boot(seed: int):
    from repro.core import CopyStrategy, UForkOS
    from repro.machine import Machine

    machine = Machine(seed=seed)
    return UForkOS(machine=machine, copy_strategy=CopyStrategy.COPA)


def _spawn(os_: Any, name: str):
    from repro.apps.faas import faas_image
    from repro.apps.guest import GuestContext

    return GuestContext(os_, os_.spawn(faas_image(), name))


def make_zygote_blob(seed: int = 7) -> bytes:
    """Checkpoint a freshly warmed zygote on a donor machine.

    The donor is torn down afterwards; only the blob survives — the
    artifact a FaaS platform would bake at deploy time and ship to
    every cold host.
    """
    from repro.apps.faas import ZygoteRuntime
    from repro.snapshot import checkpoint

    os_ = _boot(seed)
    ctx = _spawn(os_, "zygote-donor")
    ZygoteRuntime(ctx).warm()
    blob = checkpoint(os_, ctx.proc)
    ctx.exit(0)
    return blob


def coldstart_comparison(seed: int = 7,
                         function: str = "float_operation"
                         ) -> Dict[str, Any]:
    """Measure time-to-first-response for all three provisioning paths.

    Each path runs on its own fresh machine; the clock interval covers
    exactly the work a request's arrival would trigger (the zygote-fork
    path's warm zygote pre-exists by construction and is excluded).
    Every serve is asserted to have actually worked.
    """
    from repro.apps.faas import ZygoteRuntime
    from repro.snapshot import decode, restore

    blob = make_zygote_blob(seed)

    # -- cold boot: warm the runtime from nothing, then serve ----------
    os_cold = _boot(seed + 1)
    clock = os_cold.machine.clock
    started = clock.now_ns
    ctx = _spawn(os_cold, "cold")
    runtime = ZygoteRuntime(ctx)
    runtime.warm()
    assert runtime.handle_request(function=function).ok
    cold_ns = clock.now_ns - started

    # -- zygote fork: the warm zygote already exists, serve is a fork --
    os_fork = _boot(seed + 2)
    zygote = _spawn(os_fork, "zygote")
    warm_runtime = ZygoteRuntime(zygote)
    warm_runtime.warm()
    clock = os_fork.machine.clock
    started = clock.now_ns
    assert warm_runtime.handle_request(function=function).ok
    fork_ns = clock.now_ns - started

    # -- snapshot restore: cold machine + blob, then serve -------------
    from repro.apps.guest import GuestContext
    os_restore = _boot(seed + 3)
    clock = os_restore.machine.clock
    started = clock.now_ns
    revived = GuestContext(os_restore, restore(os_restore, blob))
    revived_runtime = ZygoteRuntime.attach(revived)
    assert revived_runtime.handle_request(function=function).ok
    restore_ns = clock.now_ns - started

    return {
        "schema": RUN_SCHEMA,
        "seed": seed,
        "function": function,
        "blob_bytes": len(blob),
        "blob_pages": len(decode(blob)[0]["pages"]),
        "cold_boot_ns": cold_ns,
        "zygote_fork_ns": fork_ns,
        "snapshot_restore_ns": restore_ns,
        #: restore pays page materialization but skips warm-up compute;
        #: the interesting ratios for docs/SNAPSHOT.md
        "restore_vs_cold": round(cold_ns / restore_ns, 3),
        "fork_vs_restore": round(restore_ns / fork_ns, 3),
    }
