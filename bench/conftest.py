"""pytest set-up for the benchmark's self-tests: the simulator sources
and the benchmark modules import without installing anything."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import workloads  # noqa: E402
from worker import run_workload  # noqa: E402

#: ops per workload in the in-process self-tests
SHORT_CALLS = {"fork_full": 3, "bgsave_obs": 3, "nginx": 3,
               "explore_chaos": 3, "paper": 2, "cluster": 2}


@pytest.fixture
def short_run(monkeypatch):
    """``short_run(name, trace=False) -> (workload, result)``: a few
    timed ops in this process, run the way the worker runs them.
    Cluster calls serve 2,000 requests instead of a million."""
    monkeypatch.setattr(workloads.Cluster, "REQUESTS", 2_000)

    def run(name, trace=False):
        return run_workload(name, 7, 0, SHORT_CALLS[name], 0.00052,
                            trace=trace)

    return run
