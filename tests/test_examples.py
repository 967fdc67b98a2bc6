"""Smoke tests: every shipped example runs to completion.

Run as subprocesses so each example's __main__ path, imports, and
assertions are exercised exactly as a user would run them.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def test_examples_directory_populated():
    names = {path.name for path in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 3  # deliverable (b): at least three


@pytest.mark.slow
@pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.name)
def test_example_runs_clean(example):
    result = subprocess.run(
        [sys.executable, str(example)],
        capture_output=True, text=True, timeout=240,
    )
    assert result.returncode == 0, (
        f"{example.name} failed:\n{result.stdout}\n{result.stderr}"
    )
    assert result.stdout.strip(), f"{example.name} produced no output"


def test_fork_anatomy_matches_golden():
    """The one tracer-driven example: its eager page-copy and relocated
    capability counts come from a :class:`~repro.trace.TraceLog`, so
    its stdout pins what the tracer sees of a CoPA fork."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "fork_anatomy.py")],
        capture_output=True, text=True, timeout=240,
    )
    assert result.returncode == 0, result.stderr
    golden = (GOLDEN_DIR / "fork_anatomy.txt").read_text(encoding="utf-8")
    assert result.stdout == golden
