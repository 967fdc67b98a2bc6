"""Tests for the concurrency models (Figs 6/7 machinery).

The event-by-event engine the models were first written on lives here
as the oracle: :class:`EventSim`, :class:`_Cores` and the two plain
schedules.  The period-jumping models in :mod:`repro.sim` must give
exactly the oracle's completion count for every input.
"""

import heapq
import itertools
import textwrap
from typing import Callable, List, Optional, Tuple

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.conform.isolated import run_isolated
from repro.sim import simulate_closed_workers, simulate_fork_pipeline

SECOND = 1_000_000_000


class EventSim:
    """A minimal discrete-event engine."""

    def __init__(self) -> None:
        self._queue: List[Tuple[int, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self.now = 0

    def schedule(self, at: int, action: Callable[[], None]) -> None:
        if at < self.now:
            raise ValueError("cannot schedule in the past")
        heapq.heappush(self._queue, (at, next(self._seq), action))

    def run_until(self, deadline: int) -> None:
        while self._queue and self._queue[0][0] <= deadline:
            at, _seq, action = heapq.heappop(self._queue)
            self.now = at
            action()
        self.now = max(self.now, deadline)


class _Cores:
    """A pool of cores tracked by their busy-until times."""

    def __init__(self, count: int) -> None:
        self.busy_until = [0] * count

    def acquire(self, at: int, duration: int) -> int:
        """Run ``duration`` on the earliest-available core; returns the
        completion time."""
        index = min(range(len(self.busy_until)),
                    key=lambda i: self.busy_until[i])
        start = max(at, self.busy_until[index])
        end = start + duration
        self.busy_until[index] = end
        return end


def oracle_fork_pipeline(fork_ns: int, child_ns: int, worker_cores: int,
                         duration_ns: int,
                         queue_depth: Optional[int] = None) -> int:
    """The zygote pipeline, one fork at a time over the whole window."""
    if queue_depth is None:
        queue_depth = worker_cores * 2
    cores = _Cores(worker_cores)
    t_coordinator = 0
    completions = 0
    completion_times: List[int] = []
    while True:
        # backpressure: wait until the backlog drains below the cap
        pending = [t for t in completion_times if t > t_coordinator]
        if len(pending) >= queue_depth:
            t_coordinator = min(pending)
        t_coordinator += fork_ns
        if t_coordinator > duration_ns:
            break
        end = cores.acquire(t_coordinator, child_ns)
        completion_times.append(end)
        if end <= duration_ns:
            completions += 1
        # keep the list small
        if len(completion_times) > 4 * queue_depth:
            completion_times = [
                t for t in completion_times if t > t_coordinator
            ]
    return completions


def oracle_closed_workers(cpu_ns: int, io_ns: int, workers: int, cores: int,
                          duration_ns: int,
                          kernel_lock_fraction: float = 0.0) -> int:
    """Closed-loop workers, one heap event per request."""
    sim = EventSim()
    core_busy = [0] * cores
    lock_free_at = 0
    completions = 0

    def worker_step(worker_id: int) -> None:
        nonlocal completions, lock_free_at
        locked_ns = int(cpu_ns * kernel_lock_fraction)
        unlocked_ns = cpu_ns - locked_ns
        index = min(range(cores), key=lambda i: core_busy[i])
        start = max(sim.now, core_busy[index])
        end_cpu = start + unlocked_ns
        if locked_ns:
            lock_start = max(end_cpu, lock_free_at)
            end_cpu = lock_start + locked_ns
            lock_free_at = end_cpu
        core_busy[index] = end_cpu  # the core is held through the lock
        done = end_cpu + io_ns
        if done <= duration_ns:
            completions += 1
            sim.schedule(done, lambda: worker_step(worker_id))

    for worker_id in range(workers):
        sim.schedule(0, lambda wid=worker_id: worker_step(wid))
    sim.run_until(duration_ns)
    return completions


class TestEventSim:
    def test_events_run_in_time_order(self):
        sim = EventSim()
        order = []
        sim.schedule(30, lambda: order.append("c"))
        sim.schedule(10, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("b"))
        sim.run_until(100)
        assert order == ["a", "b", "c"]
        assert sim.now == 100

    def test_same_time_fifo(self):
        sim = EventSim()
        order = []
        sim.schedule(5, lambda: order.append(1))
        sim.schedule(5, lambda: order.append(2))
        sim.run_until(10)
        assert order == [1, 2]

    def test_events_past_deadline_not_run(self):
        sim = EventSim()
        ran = []
        sim.schedule(50, lambda: ran.append(True))
        sim.run_until(40)
        assert not ran

    def test_schedule_in_past_rejected(self):
        sim = EventSim()
        sim.schedule(10, lambda: sim.schedule(5, lambda: None))
        with pytest.raises(ValueError):
            sim.run_until(20)

    def test_cascading_events(self):
        sim = EventSim()
        count = []

        def tick():
            count.append(sim.now)
            if sim.now < 50:
                sim.schedule(sim.now + 10, tick)

        sim.schedule(0, tick)
        sim.run_until(100)
        assert count == [0, 10, 20, 30, 40, 50]


class TestForkPipeline:
    def test_fork_bound_regime(self):
        """When fork is slow, throughput ~ 1/fork regardless of cores."""
        result = simulate_fork_pipeline(
            fork_ns=1_000_000, child_ns=100_000, worker_cores=3,
            duration_ns=SECOND,
        )
        assert result.throughput_per_s == pytest.approx(1000, rel=0.05)

    def test_worker_bound_regime(self):
        """When fork is fast, throughput ~ cores / child time."""
        result = simulate_fork_pipeline(
            fork_ns=10_000, child_ns=1_000_000, worker_cores=3,
            duration_ns=SECOND,
        )
        assert result.throughput_per_s == pytest.approx(3000, rel=0.05)

    def test_scales_with_cores_until_fork_bound(self):
        results = [
            simulate_fork_pipeline(200_000, 500_000, cores,
                                   duration_ns=SECOND).throughput_per_s
            for cores in (1, 2, 3)
        ]
        assert results[1] > 1.8 * results[0]
        # at 3 cores the 200 us fork caps the rate at ~5000/s
        assert results[2] == pytest.approx(5000, rel=0.1)

    def test_zero_duration(self):
        result = simulate_fork_pipeline(1000, 1000, 1, duration_ns=0)
        assert result.completions == 0
        assert result.throughput_per_s == 0.0


class TestClosedWorkers:
    def test_single_worker_rate(self):
        result = simulate_closed_workers(
            cpu_ns=50_000, io_ns=50_000, workers=1, cores=1,
            duration_ns=SECOND,
        )
        assert result.throughput_per_s == pytest.approx(10_000, rel=0.02)

    def test_workers_overlap_io_on_one_core(self):
        """The Fig 7 effect: extra workers fill the I/O gaps."""
        one = simulate_closed_workers(80_000, 20_000, workers=1, cores=1,
                                      duration_ns=SECOND)
        three = simulate_closed_workers(80_000, 20_000, workers=3, cores=1,
                                        duration_ns=SECOND)
        assert three.throughput_per_s > one.throughput_per_s
        # but bounded by the CPU: at most 1/cpu
        assert three.throughput_per_s <= 1e9 / 80_000 * 1.01

    def test_scales_with_cores(self):
        one = simulate_closed_workers(100_000, 10_000, workers=1, cores=1,
                                      duration_ns=SECOND)
        three = simulate_closed_workers(100_000, 10_000, workers=3, cores=3,
                                        duration_ns=SECOND)
        assert three.throughput_per_s == pytest.approx(
            3 * one.throughput_per_s, rel=0.05
        )

    def test_big_kernel_lock_limits_multicore(self):
        """Unikraft's big kernel lock (§4.5): serialized kernel time caps
        multicore scaling."""
        free = simulate_closed_workers(100_000, 0, workers=4, cores=4,
                                       duration_ns=SECOND,
                                       kernel_lock_fraction=0.0)
        locked = simulate_closed_workers(100_000, 0, workers=4, cores=4,
                                         duration_ns=SECOND,
                                         kernel_lock_fraction=1.0)
        assert locked.throughput_per_s < 0.35 * free.throughput_per_s
        # fully-serialized kernel ~ single-core rate
        assert locked.throughput_per_s == pytest.approx(10_000, rel=0.1)

    def test_lock_irrelevant_on_one_core(self):
        base = simulate_closed_workers(50_000, 5_000, workers=2, cores=1,
                                       duration_ns=SECOND)
        locked = simulate_closed_workers(50_000, 5_000, workers=2, cores=1,
                                         duration_ns=SECOND,
                                         kernel_lock_fraction=0.9)
        assert locked.throughput_per_s >= 0.9 * base.throughput_per_s


@pytest.mark.parametrize("call, argument", [
    (lambda: simulate_closed_workers(0, 0, 1, 1, duration_ns=1000),
     "cpu_ns \\+ io_ns"),
    (lambda: simulate_fork_pipeline(0, 0, 1, duration_ns=1000),
     "fork_ns \\+ child_ns"),
    (lambda: simulate_closed_workers(-5, 10, 1, 1, duration_ns=1000),
     "cpu_ns"),
    (lambda: simulate_closed_workers(5, -10, 1, 1), "io_ns"),
    (lambda: simulate_fork_pipeline(-1, 10, 1), "fork_ns"),
    (lambda: simulate_fork_pipeline(1, -10, 1), "child_ns"),
    (lambda: simulate_closed_workers(5, 5, 1, 0), "cores"),
    (lambda: simulate_closed_workers(5, 5, -1, 1), "workers"),
    (lambda: simulate_fork_pipeline(5, 5, 0), "worker_cores"),
    (lambda: simulate_fork_pipeline(5, 5, 1, queue_depth=0), "queue_depth"),
    (lambda: simulate_closed_workers(5, 5, 1, 1, kernel_lock_fraction=1.5),
     "kernel_lock_fraction"),
    (lambda: simulate_closed_workers(5, 5, 1, 1, kernel_lock_fraction=-0.1),
     "kernel_lock_fraction"),
    (lambda: simulate_closed_workers(5, 5, 1, 1, duration_ns=-1),
     "duration_ns"),
    (lambda: simulate_fork_pipeline(5, 5, 1, duration_ns=-1), "duration_ns"),
])
def test_degenerate_inputs_are_rejected(call, argument):
    with pytest.raises(ValueError, match=f"^{argument} must"):
        call()


def test_no_workers_complete_nothing():
    assert simulate_closed_workers(5, 5, 0, 1).completions == 0


# the cost tuples of the 21 model calls in the default Figs 6/7 sweep,
# as measured on the kernel simulation (fig6_faas_throughput and
# fig7_nginx_throughput); tests/golden/figures.txt pins their 10 s rows
FIG6_CALLS = [
    (fork_ns, child_ns, cores)
    for cores in (1, 2, 3)
    for fork_ns, child_ns in ((71315, 503724), (71315, 503724),
                              (215280, 509498))
]
FIG7_CALLS = [
    call
    for workers in (1, 2, 3)
    for call in ((35146, 5200, workers, 1, 0.35),
                 (37900, 5200, workers, 1, 0.35),
                 (39260, 5200, workers, 1, 0.0),
                 (39260, 5200, workers, workers, 0.0))
]
#: long enough for dozens of periods, short enough for the oracle
FIG_WINDOW_NS = 50_000_000


def _examples(calls, tail):
    def decorate(test):
        for call in reversed(calls):
            test = example(*call, *tail)(test)
        return test
    return decorate


costs = st.one_of(st.integers(0, 50), st.integers(0, 20_000))
windows = st.integers(0, 500_000)


@_examples(FIG7_CALLS, (FIG_WINDOW_NS,))
@given(cpu_ns=costs, io_ns=st.one_of(st.just(0), costs),
       workers=st.integers(0, 4), cores=st.integers(1, 4),
       kernel_lock_fraction=st.one_of(
           st.sampled_from([0.0, 0.35, 1.0]), st.floats(0.0, 1.0)),
       duration_ns=windows)
@settings(max_examples=200, deadline=None)
def test_closed_workers_match_the_oracle(cpu_ns, io_ns, workers, cores,
                                         kernel_lock_fraction, duration_ns):
    assume(cpu_ns + io_ns > 0)
    # cap the oracle at a few thousand requests per worker
    duration_ns = min(duration_ns, (cpu_ns + io_ns) * 2000)
    got = simulate_closed_workers(cpu_ns, io_ns, workers, cores,
                                  duration_ns=duration_ns,
                                  kernel_lock_fraction=kernel_lock_fraction)
    assert got.completions == oracle_closed_workers(
        cpu_ns, io_ns, workers, cores, duration_ns, kernel_lock_fraction)


@_examples(FIG6_CALLS, (FIG_WINDOW_NS, None))
@given(fork_ns=costs, child_ns=costs, worker_cores=st.integers(1, 4),
       duration_ns=windows,
       queue_depth=st.sampled_from([None, 1, 2, 5]))
@settings(max_examples=200, deadline=None)
def test_fork_pipeline_matches_the_oracle(fork_ns, child_ns, worker_cores,
                                          duration_ns, queue_depth):
    assume(fork_ns + child_ns > 0)
    duration_ns = min(duration_ns, (fork_ns + child_ns) * 2000)
    got = simulate_fork_pipeline(fork_ns, child_ns, worker_cores,
                                 duration_ns=duration_ns,
                                 queue_depth=queue_depth)
    assert got.completions == oracle_fork_pipeline(
        fork_ns, child_ns, worker_cores, duration_ns, queue_depth)


def test_long_windows_jump_whole_periods():
    """A 10^15 ns window is 10^14 requests: only the period jump can
    finish it within the deadline."""
    code = textwrap.dedent("""
        from repro.sim import simulate_closed_workers, simulate_fork_pipeline
        window = 10**15
        print(simulate_closed_workers(7, 3, 1, 1, duration_ns=window)
              .completions)
        print(simulate_closed_workers(7, 3, 3, 2, duration_ns=window,
                                      kernel_lock_fraction=0.35)
              .completions)
        print(simulate_fork_pipeline(7, 3, 1, duration_ns=window)
              .completions)
    """)
    result = run_isolated(code, timeout=20)
    assert result.returncode == 0, result.crash_reason + result.stderr
    one, locked, pipeline = map(int, result.stdout.split())
    assert one == 10**15 // 10
    # two cores, each held 7 ns per request, bound the rate at 2/7 per ns
    assert 2 * 10**15 // 7 - 3 <= locked <= 2 * 10**15 // 7
    # fork-bound: the k-th child forks at 7k and completes at 7k + 3
    assert pipeline == (10**15 - 3) // 7
