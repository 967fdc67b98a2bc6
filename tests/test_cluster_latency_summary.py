"""The cluster report's latency summary, from latencies kept by octave.

:func:`repro.cluster.runner.run_cluster` files every request's latency
by its bit length (:func:`latency_octaves`) and
:func:`summarize_latencies` sorts only the octaves that hold a reported
rank.  The reference here sorts every latency and reads nearest-rank
percentiles off the sorted list, as the runner once did; hypothesis
compares the two over non-negative integer lists, and the edges that
matter get explicit examples: no latencies, zeros, duplicates, a single
octave, values of 2**32 and beyond, and ranks that land on the first
or last entry of an octave.

A small seed-7 run's latency, batch and makespan figures are pinned to
the values the sort-everything summary produced, and ``tracemalloc``
holds the summary's peak to under half of what sorting every latency
peaks at.
"""

from __future__ import annotations

import random
import tracemalloc
from array import array
from typing import Dict, List

from hypothesis import example, given, settings, strategies as st

from repro.cluster.runner import (
    latency_octaves,
    run_cluster,
    summarize_latencies,
)


def octaves_of(latencies: List[int]) -> List[array]:
    octaves = latency_octaves()
    for latency in latencies:
        octaves[latency.bit_length()].append(latency)
    return octaves


def reference_summary(latencies: List[int]) -> Dict[str, int]:
    """Sort everything; nearest-rank percentiles off the sorted list."""
    ordered = sorted(latencies)
    count = len(ordered)

    def percentile(q_ppm: int) -> int:
        if not count:
            return 0
        rank = (q_ppm * count + 999_999) // 1_000_000
        return ordered[max(0, rank - 1)]

    return {
        "p50": percentile(500_000),
        "p99": percentile(990_000),
        "p999": percentile(999_000),
        "mean": (sum(ordered) // count) if count else 0,
        "min": ordered[0] if count else 0,
        "max": ordered[-1] if count else 0,
    }


latency_lists = st.lists(
    st.one_of(st.integers(0, 2 ** 12), st.integers(0, 2 ** 40),
              st.sampled_from([0, 1, 2 ** 31, 2 ** 32 - 1, 2 ** 32,
                               2 ** 63 - 1])),
    max_size=3_000)


@settings(max_examples=300, deadline=None)
@given(latencies=latency_lists)
@example(latencies=[])
@example(latencies=[0])
@example(latencies=[0] * 5)
@example(latencies=[7] * 1_000)
@example(latencies=[2 ** 32 - 1, 2 ** 32, 2 ** 33, 2 ** 63 - 1])
# p50 is the last entry of octave 1
@example(latencies=[1] * 50 + [2] * 50)
# p99 is the first entry of octave 2 and p999 its last
@example(latencies=[1] * 98 + [2, 3])
# p50 is the first entry of the top octave
@example(latencies=[5] * 499 + [2 ** 40] * 501)
# p999 is the first entry of octave 3 (rank 999 of 1000)
@example(latencies=[0] * 998 + [4, 5])
def test_octave_summary_matches_sorted_nearest_rank(latencies):
    assert summarize_latencies(octaves_of(latencies)) == \
        reference_summary(latencies)


def test_octave_storage_is_four_bytes_to_bit_length_32():
    octaves = latency_octaves()
    assert len(octaves) == 64
    assert {octave.itemsize for octave in octaves[:33]} == {4}
    assert {octave.itemsize for octave in octaves[33:]} == {8}
    octaves[32].append(2 ** 32 - 1)
    octaves[63].append(2 ** 63 - 1)


def test_small_run_figures_are_pinned():
    """Seed 7, 2 shards, 20k requests, as the sort-everything summary
    reported them."""
    report = run_cluster(seed=7, shards=2, requests=20_000)
    assert report["latency_ns"] == {
        "p50": 1_334_299, "p99": 132_540_169, "p999": 148_375_244,
        "mean": 23_453_100, "min": 885_125, "max": 149_943_561}
    assert report["batches"] == {
        "count": 13_641, "mean_size_ppm": 1_466_168, "max_size": 9}
    assert report["makespan_ns"] == 3_388_404_177


def _peak_bytes(work) -> int:
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_summary_peaks_below_half_of_sorting_everything():
    rng = random.Random(7)
    latencies = [int(rng.lognormvariate(14.0, 1.0)) for _ in range(200_000)]
    flat = array("q", latencies)
    octaves = octaves_of(latencies)
    del latencies
    sorting = _peak_bytes(lambda: sorted(flat))
    summary = _peak_bytes(lambda: summarize_latencies(octaves))
    assert summary < sorting // 2, (summary, sorting)
