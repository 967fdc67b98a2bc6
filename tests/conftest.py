"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.machine import Machine, live_machines
from repro.params import CostModel, MachineConfig


def pytest_collection_modifyitems(config, items):
    """Keep tier-1 fast: ``farm``-marked torture runs only execute in
    their own CI job (``REPRO_FARM_TESTS=1``) or when selected
    explicitly with ``-m farm``."""
    if os.environ.get("REPRO_FARM_TESTS") == "1":
        return
    if "farm" in (config.option.markexpr or ""):
        return
    skip_farm = pytest.mark.skip(
        reason="farm tier: set REPRO_FARM_TESTS=1 or run -m farm")
    for item in items:
        if "farm" in item.keywords:
            item.add_marker(skip_farm)


@pytest.fixture(autouse=True)
def _no_kernel_leaks():
    """Fail any test that leaves kernel bookkeeping inconsistent.

    After each test, every machine still alive is audited with the
    conformance leak checks (:func:`repro.conform.invariants.leak_report`):
    exited tasks may not sit in run queues, exited processes may not
    hold fds, share notes may not outlive their frames, and physical
    memory's allocated count, refcounts and free list must agree.
    Tests that legitimately leave processes *running* pass — the audit
    flags inconsistent state, not live state.
    """
    yield
    from repro.conform.invariants import leak_report

    problems = []
    for machine in live_machines():
        for os_ in machine.kernels():
            for line in leak_report(os_):
                problems.append(f"{type(os_).__name__}: {line}")
    if problems:
        pytest.fail("kernel state leaked by this test:\n" +
                    "\n".join(sorted(set(problems))), pytrace=False)


@pytest.fixture
def machine() -> Machine:
    """A fresh default machine per test."""
    return Machine()


@pytest.fixture
def small_machine() -> Machine:
    """A machine with tiny DRAM, handy for out-of-memory paths."""
    config = MachineConfig(dram_bytes=64 * 4096)
    return Machine(config=config, costs=CostModel.morello())
