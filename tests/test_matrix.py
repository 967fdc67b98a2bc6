"""The harness matrix: one strategy vocabulary, one boot, one sidecar
writer (:mod:`repro.harness.matrix`)."""

from __future__ import annotations

import itertools

import pytest

from repro.apps.hello import hello_world_image
from repro.baselines.monolithic import MonolithicOS
from repro.chaos import ChaosEngine
from repro.core import CopyStrategy, IsolationConfig, UForkOS
from repro.errors import SimError
from repro.harness import matrix
from repro.harness.reportio import dumps_report

#: every injection point fires at its first consultation
ALWAYS = "default=1.0"


def _reference(strategy):
    """The OS class, copy strategy and isolation the per-runner boot
    code built: ``MonolithicOS(machine=...)`` for the baseline, else
    ``UForkOS(machine=..., copy_strategy=CopyStrategy(strategy))``."""
    if strategy == "monolithic":
        return MonolithicOS, None, IsolationConfig.full()
    return UForkOS, CopyStrategy(strategy), IsolationConfig.fault()


def test_the_two_strategy_orders_share_one_definition():
    assert matrix.STRATEGIES == ("full", "coa", "copa", "monolithic")
    assert matrix.CONFORM_STRATEGIES == ("monolithic", "full", "coa",
                                         "copa")
    assert set(matrix.SASOS_STRATEGIES) == {s.value for s in CopyStrategy}
    assert matrix.MODES == ("clean", "chaos")
    assert matrix.DEFAULT_CPUS == (1, 2, 4)
    assert matrix.SWEEP_CPUS == (1, 2, 4, 8)


@pytest.mark.parametrize(
    "strategy,obs,chaos",
    list(itertools.product(matrix.STRATEGIES, (False, True),
                           (False, True))))
def test_boot_builds_what_the_runners_built(strategy, obs, chaos):
    machine, os_, ctx = matrix.boot(
        strategy, seed=5, cpus=2, obs=obs,
        chaos_mix=ALWAYS if chaos else None,
        image=hello_world_image(), name="cell")
    os_cls, copy_strategy, isolation = _reference(strategy)
    assert type(os_) is os_cls
    assert getattr(os_, "copy_strategy", None) == copy_strategy
    assert os_.isolation == isolation
    assert os_.machine is machine and machine.num_cpus == 2
    assert machine.obs.enabled is obs
    assert ctx.proc.alive and ctx.proc.name == "cell"
    engine = machine.chaos
    assert isinstance(engine, ChaosEngine) is chaos
    if chaos:
        # boot and spawn ran paused: nothing was even consulted, yet
        # the engine is live again once boot returns
        assert engine.hits == {} and engine.fired == {}
        assert engine.enabled and engine.seed == 5
        with pytest.raises(SimError):
            for _ in range(8):
                ctx.fork().exit(0)
        assert engine.fired


def test_boot_without_image_spawns_nothing():
    machine, os_, ctx = matrix.boot("copa", seed=1, cpus=1)
    assert ctx is None and os_.process_count() == 0
    assert not machine.obs.enabled and not machine.chaos.enabled


def test_chaos_seed_overrides_the_machine_seed():
    machine = matrix.boot("coa", seed=1, cpus=1, chaos_mix="default=0",
                          chaos_seed=99).machine
    assert machine.chaos.seed == 99


def test_boot_rejects_an_unknown_strategy():
    with pytest.raises(ValueError, match="unknown strategies"):
        matrix.boot("cow", seed=1, cpus=1)


def test_checks_name_every_bad_value():
    assert matrix.check_names("modes", ["chaos"], matrix.MODES) == ("chaos",)
    with pytest.raises(ValueError, match=r"\['bogus', 'x'\]"):
        matrix.check_names("modes", ["x", "clean", "bogus"], matrix.MODES)
    assert matrix.check_cpus([1, 8]) == (1, 8)
    with pytest.raises(ValueError, match=r"\[0, -2\]"):
        matrix.check_cpus([0, 4, -2])


def test_kernel_state_digest_is_stable_and_sees_a_spawn():
    os_ = matrix.boot("copa", seed=3, cpus=1).os
    before = matrix.kernel_state_digest(os_)
    assert before == matrix.kernel_state_digest(os_)
    os_.spawn(hello_world_image(), "late")
    assert matrix.kernel_state_digest(os_) != before


def test_sidecars_are_canonical_and_named_by_stem_and_kind(tmp_path):
    matrix.write_sidecars(str(tmp_path / "out"), "demo-7",
                          obs={"b": 1, "a": [2]}, demo={"z": "é"})
    names = sorted(path.name for path in (tmp_path / "out").iterdir())
    assert names == ["demo-7.demo.json", "demo-7.obs.json"]
    assert (tmp_path / "out" / "demo-7.obs.json").read_text(
        encoding="utf-8") == dumps_report({"a": [2], "b": 1})
    assert matrix.sidecar_notice("d", "demo-7", ("obs", "demo")) == \
        "[sidecars: d/demo-7.obs.json + .demo.json]"
    assert matrix.sidecar_notice("d", "sec-7", ("sec",)) == \
        "[sidecar: d/sec-7.sec.json]"
