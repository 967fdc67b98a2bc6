"""Determinism tier: one seed fully determines a chaos run — the fault
schedule, the obs export, and the final kernel state — and a disabled
engine changes nothing at all."""

import json
import pathlib

from repro.chaos.runner import run_chaos
from repro.harness.matrix import kernel_state_digest

SEED = 7
ITERATIONS = 80
MIX = "default=0.05"


def test_same_seed_identical_everything(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    one = run_chaos(seed=SEED, iterations=ITERATIONS, mix=MIX,
                    obs_dir=str(dir_a))
    two = run_chaos(seed=SEED, iterations=ITERATIONS, mix=MIX,
                    obs_dir=str(dir_b))

    assert one == two                     # schedule, digest, counts: all of it
    assert one["injected"] > 0            # and the run was not trivially calm

    for name in (f"chaos-{SEED}.obs.json", f"chaos-{SEED}.chaos.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_sidecars_are_valid_and_self_consistent(tmp_path):
    summary = run_chaos(seed=SEED, iterations=ITERATIONS, mix=MIX,
                        obs_dir=str(tmp_path))
    obs_doc = json.loads(
        (tmp_path / f"chaos-{SEED}.obs.json").read_text())
    from repro.obs import validate_export
    validate_export(obs_doc)
    chaos_doc = json.loads(
        (tmp_path / f"chaos-{SEED}.chaos.json").read_text())
    assert chaos_doc["run"] == summary
    engine_record = chaos_doc["engine"]
    assert engine_record["schema"] == "repro.chaos/v1"
    assert engine_record["fired"] == summary["injected_by_point"]
    # every injection the engine logged is counted in the obs export
    counters = obs_doc["metrics"]["counters"]
    for point, fired in engine_record["fired"].items():
        assert counters[f"chaos.injected.{point}"] == fired


def test_different_seed_different_run():
    one = run_chaos(seed=SEED, iterations=ITERATIONS, mix=MIX)
    two = run_chaos(seed=SEED + 1, iterations=ITERATIONS, mix=MIX)
    assert one["kernel_state_digest"] != two["kernel_state_digest"]
    assert one["injected_by_point"] != two["injected_by_point"]


def test_workload_survives_every_iteration():
    summary = run_chaos(seed=SEED, iterations=ITERATIONS, mix=MIX)
    assert sum(summary["ops"].values()) \
        + sum(summary["op_failures"].values()) == ITERATIONS
    assert summary["alive_processes"] == 1          # only the parent remains
    assert summary["recovered"] > 0


def test_disabled_injection_is_invisible():
    """Acceptance: mix rate 0 (schedule never fires) must be
    indistinguishable from running the instrumented stack without any
    injected behaviour — same digest, same obs export hash."""
    calm = run_chaos(seed=SEED, iterations=40, mix="default=0.0")
    assert calm["injected"] == 0
    assert calm["op_failures"] == {}

    again = run_chaos(seed=SEED, iterations=40, mix="default=0.0")
    assert calm["kernel_state_digest"] == again["kernel_state_digest"]
    assert calm["obs_export_sha256"] == again["obs_export_sha256"]


def test_kernel_state_digest_sees_leaks():
    """The digest is the leak detector: it must change when kernel
    state differs (here: an extra allocated frame)."""
    from repro.core import IsolationConfig, UForkOS
    from repro.machine import Machine

    os_ = UForkOS(machine=Machine(), isolation=IsolationConfig.fault())
    before = kernel_state_digest(os_)
    assert before == kernel_state_digest(os_)       # stable when idle
    os_.machine.phys.alloc()                        # "leak" one frame
    assert kernel_state_digest(os_) != before
