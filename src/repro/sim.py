"""Exact period-jumping concurrency models for the multicore experiments.

The kernel simulation is single-threaded and charges one global clock,
which is exact for latency experiments but cannot express Figs 6 and 7,
where work overlaps across cores.  The approach (mirroring how the
paper's own numbers arise): **measure** per-request cost components on
the real kernel simulation — fork latency on the coordinator, child
execution time, request CPU vs device-wait time — then feed them into
the small schedule models here to get steady-state throughput on N
cores / N workers.

Two models:

* :func:`simulate_fork_pipeline` — the FaaS zygote (Fig 6): one
  coordinator core forks sequentially; children execute on worker cores.
* :func:`simulate_closed_workers` — Nginx (Fig 7): W blocking workers on
  C cores; each request holds a core for its CPU phase and releases it
  during device I/O (why extra workers help even on one core), with an
  optional big-kernel-lock fraction serializing kernel-side CPU time.

Both schedules are integer and deterministic, so their state relative
to the current time repeats within a few events.  Each model steps
event by event while Brent's cycle detection (one saved checkpoint,
moved at power-of-two steps) watches for the first repeat; it then
jumps as many whole periods as fit before the last stretch of the
window, and steps that stretch event by event.  The completion counts
are exactly those of a plain event-by-event run over the whole window.
That run is the oracle in ``tests/test_sim.py``, and a hypothesis
differential holds the two equal.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple


@dataclass
class Throughput:
    completions: int
    duration_ns: int

    @property
    def throughput_per_s(self) -> float:
        if self.duration_ns == 0:
            return 0.0
        return self.completions * 1_000_000_000 / self.duration_ns


def _validate(duration_ns: int, costs: Dict[str, int],
              counts: Dict[str, int]) -> None:
    """Raise ``ValueError`` naming the first argument no schedule can
    run on: a negative time, an all-zero request (time would never
    advance) or a pool with no member."""
    for name, value in {**costs, "duration_ns": duration_ns}.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if not sum(costs.values()):
        raise ValueError(f"{' + '.join(costs)} must be > 0")
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


class _Cycle:
    """Brent's cycle detection over a model's relative state."""

    def __init__(self) -> None:
        self._saved: Optional[Tuple[Hashable, int, int]] = None
        self._steps = 0
        self._next_save = 1

    def repeat(self, key: Hashable, now: int,
               completions: int) -> Optional[Tuple[int, int]]:
        """The ``(period_ns, completions)`` since the saved state if
        ``key`` repeats it, else ``None``."""
        if self._saved is not None and self._saved[0] == key:
            return now - self._saved[1], completions - self._saved[2]
        self._steps += 1
        if self._steps == self._next_save:
            self._saved = (key, now, completions)
            self._next_save *= 2
        return None


def _whole_periods(now: int, period: int, horizon: int,
                   duration_ns: int) -> int:
    """How many periods fit before the last ``horizon`` of the window:
    every event they hold ends by ``duration_ns``, so none is cut."""
    return max(0, (duration_ns - horizon - now) // period)


def _offsets(times: List[int], now: int) -> Tuple[int, ...]:
    """``times`` relative to ``now``, sorted, with the past as ``0``."""
    return tuple(sorted(max(0, t - now) for t in times))


def simulate_fork_pipeline(fork_ns: int, child_ns: int, worker_cores: int,
                           duration_ns: int = 10_000_000_000,
                           queue_depth: Optional[int] = None) -> Throughput:
    """The zygote pipeline (Fig 6).

    The coordinator thread forks children back-to-back (each fork
    occupies the coordinator for ``fork_ns``); each child then occupies
    a worker core for ``child_ns`` (function execution + exit).  The
    coordinator stops issuing when the backlog reaches ``queue_depth``
    (default: two in flight per worker core, like a request queue).

    Throughput is therefore ``min(1/fork, cores/child)`` shaped, with
    the exact crossover emerging from the event schedule.
    """
    if queue_depth is None:
        queue_depth = worker_cores * 2
    _validate(duration_ns, {"fork_ns": fork_ns, "child_ns": child_ns},
              {"worker_cores": worker_cores, "queue_depth": queue_depth})
    busy = [0] * worker_cores  # min-heap of core busy-until times
    backlog: List[int] = []  # min-heap of child completions not yet due
    t_coordinator = 0
    completions = 0
    cycle: Optional[_Cycle] = _Cycle()
    while True:
        while backlog and backlog[0] <= t_coordinator:
            heapq.heappop(backlog)
        if cycle is not None:
            key = (_offsets(backlog, t_coordinator),
                   _offsets(busy, t_coordinator))
            repeat = cycle.repeat(key, t_coordinator, completions)
            if repeat is not None:
                period, per = repeat
                horizon = max(key[0] + key[1]) + fork_ns + child_ns
                k = _whole_periods(t_coordinator, period, horizon,
                                   duration_ns)
                t_coordinator += k * period
                backlog = [t + k * period for t in backlog]
                busy = [t + k * period for t in busy]
                completions += k * per
                cycle = None
        # backpressure: wait until the backlog drains below the cap
        if len(backlog) >= queue_depth:
            t_coordinator = backlog[0]
        t_coordinator += fork_ns
        if t_coordinator > duration_ns:
            break
        end = max(t_coordinator, busy[0]) + child_ns
        heapq.heapreplace(busy, end)
        heapq.heappush(backlog, end)
        if end <= duration_ns:
            completions += 1
        else:
            cycle = None  # a period is only measured while nothing is cut
    return Throughput(completions=completions, duration_ns=duration_ns)


def simulate_closed_workers(cpu_ns: int, io_ns: int, workers: int,
                            cores: int,
                            duration_ns: int = 10_000_000_000,
                            kernel_lock_fraction: float = 0.0) -> Throughput:
    """Closed-loop blocking workers (Fig 7).

    Each worker repeats: run ``cpu_ns`` on a core (of which
    ``kernel_lock_fraction`` additionally requires the global kernel
    lock — Unikraft's big kernel lock, §4.5), then wait ``io_ns`` off
    the core (device latency), then complete one request.
    """
    _validate(duration_ns, {"cpu_ns": cpu_ns, "io_ns": io_ns},
              {"cores": cores})
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if not 0.0 <= kernel_lock_fraction <= 1.0:
        raise ValueError("kernel_lock_fraction must be in [0, 1], "
                         f"got {kernel_lock_fraction}")
    locked_ns = int(cpu_ns * kernel_lock_fraction)
    unlocked_ns = cpu_ns - locked_ns
    # workers are interchangeable: only when each next wants a core
    pending = [0] * workers
    busy = [0] * cores  # min-heap of core busy-until times
    lock_free_at = 0
    completions = 0
    cycle: Optional[_Cycle] = _Cycle()
    while pending and pending[0] <= duration_ns:
        now = pending[0]
        if cycle is not None:
            key = (_offsets(pending, now), _offsets(busy, now),
                   max(0, lock_free_at - now))
            repeat = cycle.repeat(key, now, completions)
            if repeat is not None:
                period, per = repeat
                horizon = max(key[0] + key[1] + key[2:]) + cpu_ns + io_ns
                k = _whole_periods(now, period, horizon, duration_ns)
                now += k * period
                pending = [t + k * period for t in pending]
                busy = [t + k * period for t in busy]
                lock_free_at += k * period
                completions += k * per
                cycle = None
        end_cpu = max(now, busy[0]) + unlocked_ns
        if locked_ns:
            end_cpu = max(end_cpu, lock_free_at) + locked_ns
            lock_free_at = end_cpu
        heapq.heapreplace(busy, end_cpu)  # the core is held through the lock
        done = end_cpu + io_ns
        if done <= duration_ns:
            completions += 1
            heapq.heapreplace(pending, done)
        else:
            heapq.heappop(pending)
            cycle = None  # a period is only measured while nothing is cut
    return Throughput(completions=completions, duration_ns=duration_ns)
