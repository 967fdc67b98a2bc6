"""Differential conformance: the whole corpus against the host kernel.

Every scenario runs once on the real host (``os.fork`` in a sandboxed
subprocess, serialized child-subtree-first) and then on the simulated
kernel under each fork strategy at 1, 2 and 4 CPUs; the logical traces
must be identical.  This is the repo's external ground truth — a diff
here means the simulated kernel's POSIX semantics drifted from POSIX,
not from our own expectations of it.
"""

from __future__ import annotations

import pytest

from repro.conform.dsl import diff_traces
from repro.conform.host import run_host
from repro.conform.scenarios import corpus
from repro.conform.simrun import run_sim
from repro.harness.matrix import CONFORM_STRATEGIES

SCENARIOS = corpus()
_HOST_CACHE = {}


def host_trace(scenario):
    """One host-oracle subprocess per scenario for the whole module."""
    if scenario.name not in _HOST_CACHE:
        _HOST_CACHE[scenario.name] = run_host(scenario)
    return _HOST_CACHE[scenario.name]


def test_corpus_is_large_enough():
    assert len(SCENARIOS) >= 25
    names = [scenario.name for scenario in SCENARIOS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("strategy", CONFORM_STRATEGIES)
@pytest.mark.parametrize("scenario", SCENARIOS,
                         ids=lambda s: s.name)
def test_scenario_matches_host(scenario, strategy):
    reference = host_trace(scenario)
    for cpus in (1, 2, 4):
        trace, _meta = run_sim(scenario, strategy=strategy,
                               num_cpus=cpus, seed=1)
        diffs = diff_traces(trace, reference)
        assert not diffs, (
            f"{scenario.name} [{strategy} c{cpus}] diverges from host:\n"
            + "\n".join(diffs))


def test_sim_traces_identical_across_seeds():
    """The sim side is deterministic: the seed feeds the machine, not
    the scenario semantics."""
    scenario = SCENARIOS[0]
    first, _ = run_sim(scenario, strategy="copa", num_cpus=2, seed=1)
    second, _ = run_sim(scenario, strategy="copa", num_cpus=2, seed=99)
    assert first == second
