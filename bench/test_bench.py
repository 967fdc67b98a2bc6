"""Self-tests of the benchmark: ``python -m pytest bench -q``."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import measure
import run
from layers import metric_units
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _benchmark_json():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_short_runs_repeat_their_digest(name, short_run):
    _, first = short_run(name)
    _, second = short_run(name)
    assert first["failed"] == 0 and not first["errors"]
    assert first["digest"] == second["digest"]


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        metric_units()


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section, monkeypatch,
                                              capsys):
    monkeypatch.setattr(run, "DEFAULT_SECONDS", 0.05)  # a few nginx ops
    assert run.main(["--workload", "nginx", "--seed", "3",
                     "--trace", trace]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == expected


def test_run_refuses_another_run_length(capsys):
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "nginx", "--seconds", "5"])
    assert exc.value.code != 0
    assert capsys.readouterr().out == ""


def test_run_refuses_a_tree_without_the_simulator(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (bench / "pins.json").write_text((ROOT / "bench" / "pins.json")
                                     .read_text())
    out = subprocess.run([sys.executable, str(bench / "run.py"),
                          "--workload", "nginx"], cwd=str(tmp_path),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_local_factors_average_the_samples_around_each_interval():
    nominal = 0.0004
    # (end time, slice seconds): nominal speed until t=1, half after
    samples = [(0.5, 0.0004), (0.9, 0.0004), (1.1, 0.0008), (1.5, 0.0008)]
    factors = measure.local_factors(
        [(0.45, 0.55),   # one sample inside: nominal speed
         (0.95, 1.05),   # one sample each side: mean speed 0.75
         (1.2, 1.3),     # none within the window: nearest, half speed
         (3.0, 4.0)],    # after every sample: the last one
        samples, nominal, window_s=0.06)
    assert factors == [1.0, 0.75, 0.5, 0.5]
    assert measure.local_factors([(0.0, 0.1)], samples, nominal) == [1.0]
    with pytest.raises(ValueError):
        measure.local_factors([(0.0, 1.0)], [], nominal)


def test_percentiles_and_tail_choice():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 99) == 99
    assert measure.percentile(range(1, 10_001), 99.9) == 9990
    assert measure.tail_quantile(10_000) == 99.9
    assert measure.tail_quantile(1_000) == 99.0
    assert measure.tail_quantile(100) == 90.0
    assert measure.tail_quantile(99) is None


def test_sampler_samples_and_accounts_its_own_time():
    sampler = measure.SpeedSampler(interval_s=0.005).start()
    try:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    finally:
        sampler.stop()
    count = len(sampler.samples)
    assert count >= 5
    ends = [end for end, _ in sampler.samples]
    assert ends == sorted(ends)
    assert sampler.spent_s == pytest.approx(
        sum(seconds for _, seconds in sampler.samples))
    time.sleep(0.02)
    assert len(sampler.samples) == count  # stopped: no more samples


def test_work_is_whole_rounds_of_the_pinned_rate():
    pins = {"calls_per_s": {"fork_full": 400, "paper": 1.0}}
    assert run.work_calls("fork_full", 10, pins) == 4000
    assert run.work_calls("paper", 10, pins) == 10
    assert run.work_calls("paper", 3, pins) == 10
