"""Golden-report drift guard: every ``repro.*/v1`` report the stack
emits must survive a trip through :mod:`repro.harness.reportio` —
serialize, write, load, re-serialize — byte-identically.

One parametrized test covers every schema with a real (tiny) run of its
producer, so adding a report field that is not JSON-canonical (an
unsorted dict rendered by insertion order, a tuple/set, a non-finite
float) fails here before it lands in a golden file or a CI artifact
diff."""

from __future__ import annotations

import pytest

from repro.harness.reportio import dumps_report, load_report, write_report


def _obs_report():
    from repro.apps.guest import GuestContext
    from repro.apps.hello import hello_world_image
    from repro.core import CopyStrategy, UForkOS
    from repro.machine import Machine
    machine = Machine(seed=7)
    machine.obs.enable()
    os_ = UForkOS(machine=machine, copy_strategy=CopyStrategy.COPA)
    ctx = GuestContext(os_, os_.spawn(hello_world_image(), "obs"))
    ctx.syscall("getpid")
    return machine.obs.export()


def _chaos_engine_report():
    from repro.chaos import ChaosEngine, FaultMix
    from repro.machine import Machine
    engine = ChaosEngine(seed=7,
                         mix=FaultMix.parse("kernel.syscall.eintr=1.0"))
    engine.attach(Machine(seed=7))
    engine.should_fire("kernel.syscall.eintr")
    return engine.export()


def _chaos_run_report():
    from repro.chaos.runner import DEFAULT_MIX, run_chaos
    return run_chaos(seed=7, iterations=10, mix=DEFAULT_MIX)


def _conform_report():
    from repro.conform.runner import run_conform
    return run_conform(seed=7, cpus=[1], strategies=["copa"],
                       depth_bound=2, budget=4,
                       scenario_names=["pipe-hello"], host=False)


def _cluster_report():
    from repro.cluster.runner import run_cluster
    return run_cluster(seed=7, shards=2, workers=2, requests=2000,
                       keys=256, users=10_000, cpus=1, audit=2,
                       max_migrations=2)


def _smp_report():
    from repro.smp.runner import run_smp
    return run_smp(seed=7, num_cpus=2, requests=8)


def _snapshot_report():
    from repro.snapshot.report import run_snapshot
    return run_snapshot(seed=7, cpus=1, strategy="copa")


def _sec_report():
    from repro.sec.runner import run_sec
    return run_sec(seed=3, strategies=("copa",), cpus_list=(1,),
                   modes=("clean",),
                   attacks=("bounds_widen", "snapshot_magic_tamper"))


FACTORIES = {
    "repro.obs/v1": _obs_report,
    "repro.chaos/v1": _chaos_engine_report,
    "repro.chaos.run/v1": _chaos_run_report,
    "repro.conform/v1": _conform_report,
    "repro.cluster/v1": _cluster_report,
    "repro.smp.run/v1": _smp_report,
    "repro.snapshot.run/v1": _snapshot_report,
    "repro.sec/v1": _sec_report,
}


@pytest.mark.parametrize("tag", sorted(FACTORIES))
def test_every_report_schema_roundtrips_byte_identically(tag, tmp_path):
    report = FACTORIES[tag]()
    assert report["schema"] == tag
    first = dumps_report(report)
    path = str(tmp_path / "report.json")
    write_report(report, path)
    with open(path, "rb") as fh:
        assert fh.read() == first.encode("utf-8"), \
            f"{tag}: write_report bytes differ from dumps_report"
    assert dumps_report(load_report(path)) == first, \
        f"{tag}: report does not round-trip through reportio"
