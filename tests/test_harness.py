"""Tests for the experiment harness: report rendering, Table 1 data,
and fast smoke runs of the per-figure experiment functions."""

import pytest

from repro.harness.experiments import (
    copa_ablation,
    fig3_redis_save,
    fig4_redis_fork_latency,
    fig6_faas_throughput,
    fig8_hello_fork,
    fig9_unixbench,
)
from repro.harness.report import format_table, human_size
from repro.harness.table1 import TABLE1, satisfies_all_goals, table1_rows
from repro.mem.layout import KiB, MiB


class TestReport:
    def test_format_table_alignment(self):
        rows = [
            {"name": "a", "value": 1.5},
            {"name": "long-name", "value": 123456.0},
        ]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows equally wide

    def test_format_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_column_subset_and_order(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["c", "a"])
        header = text.splitlines()[0]
        assert header.index("c") < header.index("a")
        assert "b" not in header

    def test_number_formatting(self):
        text = format_table([{"x": 123456.789, "y": 0.00123, "z": 12.34}])
        assert "123,457" in text
        assert "0.00123" in text
        assert "12.3" in text

    def test_human_size(self):
        assert human_size(512) == "512B"
        assert human_size(100 * KiB) == "100KB"
        assert human_size(100 * MiB) == "100MB"


class TestTable1:
    def test_only_ufork_satisfies_all(self):
        winners = [r.system for r in TABLE1 if satisfies_all_goals(r)]
        assert winners == ["uFork"]

    def test_row_count_matches_paper(self):
        assert len(TABLE1) == 10

    def test_rendered_rows_use_yes_no(self):
        rows = table1_rows()
        assert rows[-1]["System"] == "uFork"
        assert rows[-1]["SAS"] == "Yes"
        assert rows[-1]["Seg"] == "No"

    def test_segment_relative_systems_are_the_early_sasoses(self):
        seg = {r.system for r in TABLE1 if r.segment_relative}
        assert seg == {"Angel", "Mungi"}


@pytest.mark.slow
class TestExperimentSmoke:
    """Tiny-size runs of each experiment: structure + invariants."""

    SIZES = (100 * KiB, 512 * KiB)

    def test_fig3_rows(self):
        rows = fig3_redis_save(sizes=self.SIZES, value_size=50 * KiB)
        assert [row["db_size"] for row in rows] == list(self.SIZES)
        for row in rows:
            assert row["ufork_ms"] < row["cheribsd_ms"]

    def test_fig4_rows(self):
        rows = fig4_redis_fork_latency(sizes=self.SIZES,
                                       value_size=50 * KiB)
        for row in rows:
            assert row["ufork_copa_us"] <= row["ufork_coa_us"]
            assert row["ufork_full_us"] > row["ufork_coa_us"]

    def test_fig6_rows(self):
        rows = fig6_faas_throughput(core_counts=(1, 2))
        assert [row["cores"] for row in rows] == [1, 2]
        for row in rows:
            assert row["ufork_per_s"] >= row["cheribsd_per_s"] * 0.95

    def test_fig8_rows(self):
        rows = fig8_hello_fork(samples=3)
        systems = [row["system"] for row in rows]
        assert systems == ["ufork", "cheribsd", "nephele"]

    def test_fig9_rows(self):
        rows = fig9_unixbench(spawn_iterations=100, context1_target=1000,
                              measured_fraction=0.2)
        by_system = {row["system"]: row for row in rows}
        assert by_system["ufork"]["spawn_ms"] < \
            by_system["cheribsd"]["spawn_ms"]

    def test_copa_ablation_rows(self):
        rows = copa_ablation(db_bytes=1 * MiB, value_size=50 * KiB)
        assert [row["strategy"] for row in rows] == \
            ["full_copy", "coa", "copa"]

    def test_experiments_deterministic(self):
        first = fig8_hello_fork(samples=2)
        second = fig8_hello_fork(samples=2)
        assert first == second
