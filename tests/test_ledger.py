"""The golden simulated ledger: the figures sweep and the seed-7 reports.

Every number the reproduction reports is simulated, so host-side
changes (a faster page table, a batched copy path, a deleted code path,
a shared boot or sidecar writer) must leave all of them byte-identical.
This test pins that through the harness command line itself:

* ``tests/golden/figures.txt`` is the stdout of
  ``python -m repro.harness figures`` with the ``[N s host time]`` line
  removed;
* ``tests/golden/ledger.json`` maps each command of :data:`REPORTS`
  (run at ``--seed 7``) to the sha256 of its ``--json`` report
  (``"json"``) and to the file names plus sha256 of everything its
  ``--obs-dir`` receives (``"obs_dir"``).  One run produces both: the
  report bytes do not depend on whether sidecars are written.

To regenerate after an intentional change to simulated output::

    PYTHONPATH=src python - <<'PY'
    from repro.harness.reportio import write_report
    from tests.test_ledger import FIGURES, LEDGER, figures_text, ledger
    FIGURES.write_text(figures_text(), encoding="utf-8")
    write_report(ledger(), str(LEDGER))
    PY
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import os
import pathlib
import re
import tempfile
from typing import Any, Dict

import pytest

from repro.harness.__main__ import main
from repro.harness.reportio import load_report

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
FIGURES = GOLDEN_DIR / "figures.txt"
LEDGER = GOLDEN_DIR / "ledger.json"

#: the pinned reports, as harness argument strings (the ledger's keys)
REPORTS = (
    "sec",
    "cluster --requests 50000",
    "snapshot",
    "snapshot --incremental",
    "snapshot --strategy monolithic",
    "chaos --iterations 50",
    "smp --cpus 4",
    "smp --cpus 4 --fault-mix default=0.02,smp.*=0.2",
    "smp --cpus 2 --workload forkbench",
    "conform-farm --workers 1 --depth 3 --budget 4 --strategies copa "
    "--cpus-list 2 --chaos",
)

_HOST_TIME = re.compile(r"^\[[0-9.]+s host time\]\n", re.MULTILINE)


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def figures_text() -> str:
    """The figures sweep's stdout without its host-time line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["figures"]) == 0
    return _HOST_TIME.sub("", out.getvalue())


@functools.lru_cache(maxsize=None)
def ledger_entry(command: str) -> Dict[str, Any]:
    """Run ``command`` once at seed 7 with ``--json`` and ``--obs-dir``;
    the sha256 of the report and of every file in the obs dir."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        obs_dir = os.path.join(tmp, "obs")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(command.split() + ["--seed", "7", "--json", path,
                                           "--obs-dir", obs_dir]) == 0
        return {
            "json": _sha256(path),
            "obs_dir": {name: _sha256(os.path.join(obs_dir, name))
                        for name in sorted(os.listdir(obs_dir))},
        }


def ledger() -> Dict[str, Dict[str, Any]]:
    return {command: ledger_entry(command) for command in REPORTS}


def test_figures_match_golden_byte_for_byte():
    assert figures_text() == FIGURES.read_text(encoding="utf-8"), (
        "the figures sweep drifted from tests/golden/figures.txt — if "
        "the change is intentional, regenerate it (see module docstring)")


def test_ledger_pins_exactly_the_listed_reports():
    assert sorted(load_report(str(LEDGER))) == sorted(REPORTS)


@pytest.mark.parametrize("command", REPORTS)
def test_report_digest_matches_ledger(command):
    assert ledger_entry(command)["json"] == \
        load_report(str(LEDGER))[command]["json"], (
            f"the seed-7 `{command}` report drifted from tests/golden/"
            f"ledger.json — if the change is intentional, regenerate it "
            f"(see module docstring)")


@pytest.mark.parametrize("command", REPORTS)
def test_obs_dir_sidecars_match_ledger(command):
    assert ledger_entry(command)["obs_dir"] == \
        load_report(str(LEDGER))[command]["obs_dir"], (
            f"the seed-7 `{command} --obs-dir` sidecar set drifted from "
            f"tests/golden/ledger.json — if the change is intentional, "
            f"regenerate it (see module docstring)")
