"""The golden simulated ledger: the figures sweep and three seed-7 reports.

Every number the reproduction reports is simulated, so host-side
changes (a faster page table, a batched copy path, a deleted code path)
must leave all of them byte-identical.  This test pins that through the
harness command line itself:

* ``tests/golden/figures.txt`` is the stdout of
  ``python -m repro.harness figures`` with the ``[N s host time]`` line
  removed;
* ``tests/golden/ledger.json`` holds the sha256 of the canonical
  :mod:`repro.harness.reportio` bytes of the ``sec``,
  ``cluster --requests 50000`` and ``snapshot`` reports at seed 7.

To regenerate after an intentional change to simulated output::

    PYTHONPATH=src python - <<'PY'
    from repro.harness.reportio import write_report
    from tests.test_ledger import FIGURES, LEDGER, figures_text, report_digests
    FIGURES.write_text(figures_text(), encoding="utf-8")
    write_report(report_digests(), str(LEDGER))
    PY
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import pathlib
import re
import tempfile
from typing import Dict

import pytest

from repro.harness.__main__ import main
from repro.harness.reportio import load_report

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
FIGURES = GOLDEN_DIR / "figures.txt"
LEDGER = GOLDEN_DIR / "ledger.json"

#: the pinned reports, as harness argument strings (the ledger's keys)
REPORTS = ("sec", "cluster --requests 50000", "snapshot")

_HOST_TIME = re.compile(r"^\[[0-9.]+s host time\]\n", re.MULTILINE)


def figures_text() -> str:
    """The figures sweep's stdout without its host-time line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["figures"]) == 0
    return _HOST_TIME.sub("", out.getvalue())


def report_digest(command: str) -> str:
    """sha256 of the seed-7 JSON report ``command`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(command.split() + ["--seed", "7",
                                           "--json", path]) == 0
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()


def report_digests() -> Dict[str, str]:
    return {command: report_digest(command) for command in REPORTS}


def test_figures_match_golden_byte_for_byte():
    assert figures_text() == FIGURES.read_text(encoding="utf-8"), (
        "the figures sweep drifted from tests/golden/figures.txt — if "
        "the change is intentional, regenerate it (see module docstring)")


def test_ledger_pins_exactly_the_listed_reports():
    assert sorted(load_report(str(LEDGER))) == sorted(REPORTS)


@pytest.mark.parametrize("command", REPORTS)
def test_report_digest_matches_ledger(command):
    assert report_digest(command) == load_report(str(LEDGER))[command], (
        f"the seed-7 `{command}` report drifted from tests/golden/"
        f"ledger.json — if the change is intentional, regenerate it "
        f"(see module docstring)")
