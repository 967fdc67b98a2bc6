"""Guards for the traced run (``bench/layers.py``)."""

import sys

import pytest

from layers import BOUNDARIES, LAYERS, Tracer, layer_of, resolve
from workloads import WORKLOADS


@pytest.fixture
def tracer():
    installed = Tracer()
    installed.install()
    try:
        yield installed
    finally:
        installed.uninstall()


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_every_boundary_resolves_to_a_layer(boundary):
    owner, attr, fn = resolve(boundary)
    assert getattr(owner, attr) is fn
    assert layer_of(boundary) in LAYERS


def test_every_layer_but_the_driver_has_a_boundary():
    assert {layer_of(b) for b in BOUNDARIES} == set(LAYERS) - {"bench"}


def test_install_replaces_every_from_import_binding(tracer):
    originals = {id(fn): fn for _, _, fn in tracer.installed}
    left = [f"{name}.{alias}"
            for name, module in list(sys.modules.items())
            if module is not None and name.split(".")[0] == "repro"
            for alias, value in vars(module).items()
            if id(value) in originals and originals[id(value)] is value]
    assert left == []
    # a binding made by ``from repro.smp.ipi import tlb_shootdown``
    import repro.machine
    import repro.smp.ipi
    assert repro.machine.tlb_shootdown is repro.smp.ipi.tlb_shootdown
    assert hasattr(repro.machine.tlb_shootdown, "__wrapped__")


def test_uninstall_restores_every_original():
    before = {boundary: resolve(boundary)[2] for boundary in BOUNDARIES}
    import repro.core.ufork
    bound = repro.core.ufork.relocate_copied_frames
    installed = Tracer()
    installed.install()
    assert repro.core.ufork.relocate_copied_frames is not bound
    installed.uninstall()
    assert repro.core.ufork.relocate_copied_frames is bound
    assert {boundary: resolve(boundary)[2]
            for boundary in BOUNDARIES} == before


def test_decref_is_never_wrapped(tracer):
    from repro.hw import phys
    assert "repro.hw.phys:PhysicalMemory.decref" not in BOUNDARIES
    # decref_many compares decref with the pristine function and takes
    # its per-frame path when they differ
    assert phys.PhysicalMemory.decref is phys._BASE_DECREF


def test_traced_run_keeps_obs_tracer_and_bulk_paths(short_run):
    workload, result = short_run("fork_full", trace=True)
    machine = workload.session.machine
    assert machine.obs.enabled is False
    assert machine.tracer is None
    layers = result["layers"]
    assert layers["hw.bulk_copy_share"] == 1.0
    assert layers["core.relocate_bulk_share"] == 1.0
    assert layers["hw.copy_frames.pages_per_call"] > 1
    assert layers["core.write_run.calls"] == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_digest_equals_untraced(name, short_run):
    _, plain = short_run(name)
    workload, traced = short_run(name, trace=True)
    assert traced["digest"] == plain["digest"]
    session = getattr(workload, "session", None)
    if session is not None:
        assert session.machine.tracer is None
        assert session.machine.obs.enabled is session.obs_enabled
    shares = [traced["layers"][f"{layer}.share"] for layer in LAYERS]
    assert min(shares) >= 0
    assert sum(shares) == pytest.approx(1.0)
