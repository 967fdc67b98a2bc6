"""The harness CLI surface: pinned byte for byte, and validated.

``tests/golden/cli_help.txt`` holds the ``--help`` output of
``python -m repro.harness`` and of every subcommand, rendered at 80
columns.  Any change to a flag's name, default, metavar, choices or
help text shows up as a diff here, so a refactor of the parser cannot
drop or re-default an option silently.  The golden is argparse's
rendering on Python 3.10-3.12 (the versions CI runs); 3.13 changed the
layout.

Every list, CPU, name and fault-mix option is validated while parsing:
a bad value is an argparse usage error (exit 2) that runs and writes
nothing, so CI can tell a typo from a breach or a non-conformant verdict
(exit 1).

To regenerate after an intentional change to the CLI::

    PYTHONPATH=src python - <<'PY'
    from tests.test_cli_help import CLI_HELP, help_text
    CLI_HELP.write_text(help_text(), encoding="utf-8")
    PY
"""

from __future__ import annotations

import contextlib
import io
import os
import pathlib
from typing import Iterator, List

import pytest

from repro.harness.__main__ import SUBCOMMANDS, main

CLI_HELP = pathlib.Path(__file__).parent / "golden" / "cli_help.txt"


@contextlib.contextmanager
def _columns(width: int) -> Iterator[None]:
    previous = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = str(width)
    try:
        yield
    finally:
        if previous is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = previous


def _help(argv: List[str]) -> str:
    out = io.StringIO()
    with _columns(80), contextlib.redirect_stdout(out):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
    assert exit_info.value.code == 0
    return out.getvalue()


def help_text() -> str:
    """Every help page, each under a ``$ <command line>`` header."""
    pages = [["--help"]] + [[command, "--help"] for command in SUBCOMMANDS]
    return "".join(f"$ python -m repro.harness {' '.join(argv)}\n"
                   f"{_help(argv)}\n" for argv in pages)


def test_cli_help_matches_golden_byte_for_byte():
    assert help_text() == CLI_HELP.read_text(encoding="utf-8"), (
        "the harness CLI surface drifted from tests/golden/cli_help.txt "
        "— if the change is intentional, regenerate it (see module "
        "docstring)")


#: one bad value per list, CPU, name or fault-mix option
USAGE_ERRORS = (
    "sec --modes bogus",
    "sec --cpus 0",
    "sec --cpus-list 1,x",
    "sec --cpus-list 2,0",
    "sec --strategies bogus",
    "conform --strategies copa,bogus",
    "conform --cpus 0",
    "conform-farm --cpus 0",
    "conform-farm --cpus-list 1,x",
    "conform-farm --strategies bogus",
    "cluster --cpus 0",
    "snapshot --cpus 0",
    "smp --cpus -1",
    "sec --attack bogus",
    "conform --scenario bogus --no-host",
    "conform-farm --workers 1 --depth 1 --budget 1 --scenario bogus",
    "chaos --fault-mix garbage",
    "chaos --fault-mix default=2",
    "smp --fault-mix garbage",
    "smp --fault-mix default=2",
    "sec --fault-mix garbage",
    "sec --fault-mix default=2",
    "conform-farm --chaos-mix garbage",
)


@pytest.mark.parametrize("command", USAGE_ERRORS)
def test_bad_list_or_cpu_value_is_a_usage_error(command, tmp_path, capsys):
    report = tmp_path / "report.json"
    obs_dir = tmp_path / "obs"
    with pytest.raises(SystemExit) as exit_info:
        main(command.split() + ["--json", str(report),
                                "--obs-dir", str(obs_dir)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage: python -m repro.harness" in err
    assert "error: argument --" in err
    assert not report.exists() and not obs_dir.exists()


def test_smp_forkbench_with_fault_mix_is_a_usage_error(tmp_path, capsys):
    """Injected faults would make forkbench's per-fork times
    meaningless, so the combination is refused before anything runs."""
    report = tmp_path / "report.json"
    obs_dir = tmp_path / "obs"
    with pytest.raises(SystemExit) as exit_info:
        main(["smp", "--cpus", "2", "--workload", "forkbench",
              "--fault-mix", "default=0.05", "--json", str(report),
              "--obs-dir", str(obs_dir)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage: python -m repro.harness" in err
    assert "forkbench" in err
    assert not report.exists() and not obs_dir.exists()
