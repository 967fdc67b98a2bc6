"""One cluster shard: a real simulated machine behind a warm pool.

A :class:`Shard` wraps one :class:`repro.api.Session` (its own hermetic
machine, kernel and observability) plus a zygote :class:`WarmPool` of
serving workers.  Two things on the shard are *measured on the real
machine*, never assumed:

* **Calibration** — at boot the shard executes one full
  fork→run→exit→reap cycle per request class on its machine and records
  the simulated nanoseconds each took.  These per-class service times
  are what the cluster's queueing model charges per request, so every
  cluster latency decomposes into documented cluster constants plus
  mechanically measured per-shard work (docs/COSTMODEL.md).
* **Audited requests** — the first ``audit`` requests routed to the
  shard are re-executed for real (same class mix), with the result
  asserted, so the serving model can never drift from what the machine
  actually does.  The shard's ``kernel_state_digest`` fingerprints the
  surviving kernel in the report.

This module imports the full OS stack and is therefore *not*
re-exported from :mod:`repro.cluster`'s light surface.
"""

from __future__ import annotations

from typing import Any, Dict

from repro import events
from repro.cluster.trace import CLASSES


class Shard:
    """One machine's worth of serving capacity."""

    def __init__(self, index: int, *, seed: int, workers: int,
                 cpus: int = 1, strategy: str = "copa",
                 audit: int = 0) -> None:
        from repro.api import Session
        from repro.apps.faas import ZygoteRuntime, faas_image

        self.index = index
        self.seed = seed
        self.session = Session(os="ufork", strategy=strategy, cpus=cpus,
                               seed=seed, obs=True).boot()
        self.runtime: Any = None

        def _warm(ctx: Any) -> None:
            runtime = ZygoteRuntime(ctx)
            runtime.warm()
            self.runtime = runtime

        self.pool = self.session.warm_pool(workers, image=faas_image(),
                                           warm=_warm, name=f"zygote{index}")
        self.service_ns: Dict[str, int] = self._calibrate()
        #: service time per klass index, for the runner's hot loop
        self.service_by_klass = [self.service_ns[name] for name in CLASSES]
        self.audit_left = audit
        self.audited = 0
        self.requests = 0

    def _calibrate(self) -> Dict[str, int]:
        """Measure one real request cycle per class, in simulated ns."""
        clock = self.session.machine.clock
        out: Dict[str, int] = {}
        for name in CLASSES:
            before = clock.now_ns
            result = self.runtime.handle_request(function=name)
            assert result.ok, f"calibration request failed on shard " \
                              f"{self.index}: {name}"
            out[name] = clock.now_ns - before
        self.session.machine.emit(events.SHARD_CALIBRATIONS, len(CLASSES))
        return out

    def observe(self, klass: int) -> None:
        """Account one routed request; re-execute it for real while the
        audit budget lasts."""
        self.requests += 1
        if self.audit_left > 0:
            self.audit_left -= 1
            result = self.runtime.handle_request(function=CLASSES[klass])
            assert result.ok, f"audited request failed on shard " \
                              f"{self.index}: {CLASSES[klass]}"
            self.audited += 1
            self.session.machine.emit(events.SHARD_AUDITED)

    def stats(self) -> Dict[str, Any]:
        """The per-shard section of the ``repro.cluster/v1`` report."""
        import hashlib

        from repro.harness.matrix import kernel_state_digest
        from repro.obs import to_json

        machine = self.session.machine
        return {
            "shard": self.index,
            "seed": self.seed,
            "requests": self.requests,
            "audited": self.audited,
            "workers": len(self.pool),
            "calibration_ns": dict(self.service_ns),
            "simulated_ns": machine.clock.now_ns,
            "forks": machine.counters.get("fork"),
            "kernel_state_digest": kernel_state_digest(self.session.os),
            "obs_export_sha256": hashlib.sha256(
                to_json(machine.obs.export()).encode("utf-8")).hexdigest(),
        }
