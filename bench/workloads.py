"""The six benchmark workloads.

Each workload is a closed loop with one client: the driver issues op
``i`` only after op ``i - 1`` has returned.  Constructing a workload is
its set-up (imports, boot, populate); :meth:`op` runs one timed op and
raises on any wrong output; :meth:`final` returns the simulated state
folded into the run digest last.  Every input derives from the seed.
Workloads reach the simulator only through its public entry points:
:class:`repro.api.Session`, :mod:`repro.apps`,
:mod:`repro.harness.experiments`, :func:`repro.conform.explorer.explore`
and :func:`repro.cluster.runner.run_cluster`.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

KiB = 1024


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Workload:
    """Interface shared by the six workloads."""

    name = ""
    #: whether the inputs depend on the seed at all
    seeded = True
    #: calls the run length is rounded to (one full sweep for ``paper``)
    round_ops = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def warmup(self) -> None:
        """One untimed op that pays one-time host costs (lazy imports,
        first-call caches) before the clock starts."""
        self.op(0)

    def op(self, index: int) -> Any:
        """Run op ``index``; returns a JSON-able result to fold into the
        run digest, or None when :meth:`final` covers it."""
        raise NotImplementedError

    def final(self) -> Any:
        raise NotImplementedError

    def ops_in(self, result: Any) -> int:
        """Elementary ops one :meth:`op` call served, given its result
        (None when the call failed): the call's time is spread over
        them."""
        return 1


class _SessionWorkload(Workload):
    """A workload on one booted :class:`repro.api.Session`; the digest
    material is the session's report (clock, buckets, counters, and the
    obs export when obs is on)."""

    def final(self) -> Any:
        return self.session.report()


class ForkFull(_SessionWorkload):
    name = "fork_full"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.api import Session
        from repro.apps.redis import MiniRedis, populate, redis_image

        self.session = Session(strategy="full", cpus=1, seed=seed).boot()
        self.parent = self.session.spawn(redis_image(1024 * KiB), "redis")
        populate(MiniRedis(self.parent, nbuckets=256), 1024 * KiB,
                 value_size=4 * KiB)

    def op(self, index: int) -> Any:
        child = self.parent.fork()
        child.exit(0)
        pid, status = self.parent.wait(child.pid)
        _check(pid == child.pid and status == 0,
               f"wait returned ({pid}, {status}) for child {child.pid}")


class BgsaveObs(_SessionWorkload):
    name = "bgsave_obs"

    DB_BYTES = 512 * KiB
    VALUE_SIZE = 4 * KiB
    WRITES_PER_SAVE = 8
    PATH = "/dump.rdb"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.api import Session
        from repro.apps.redis import MiniRedis, populate, redis_image

        self.MiniRedis = MiniRedis
        self.session = Session(strategy="copa", cpus=1, seed=seed,
                               obs=True).boot()
        self.ctx = self.session.spawn(redis_image(self.DB_BYTES), "redis")
        self.store = MiniRedis(self.ctx, nbuckets=256)
        count = populate(self.store, self.DB_BYTES,
                         value_size=self.VALUE_SIZE)
        #: host-side model of the database, for checking every dump
        self.model: Dict[bytes, bytes] = {
            b"key:%08d" % index: bytes([index % 251]) * self.VALUE_SIZE
            for index in range(count)}
        self.keys = sorted(self.model)
        self.rng = random.Random(seed)

    def _value(self, index: int, slot: int) -> bytes:
        tag = b"%d:%d:%d|" % (self.seed, index, slot)
        return tag + bytes([(index + slot) % 251]) * (self.VALUE_SIZE
                                                      - len(tag))

    def op(self, index: int) -> Any:
        from repro.kernel.vfs import O_RDONLY

        at_fork = dict(self.model)
        child = self.ctx.fork()
        # the parent keeps serving writes while the child saves: each
        # first write to a shared page is a CoW break in the parent
        for slot, key in enumerate(self.rng.sample(self.keys,
                                                   self.WRITES_PER_SAVE)):
            value = self._value(index, slot)
            self.store.set(key, value)
            self.model[key] = value
        self.MiniRedis.attach(child).save_to(self.PATH)
        child.exit(0)
        pid, status = self.ctx.wait(child.pid)
        _check(pid == child.pid and status == 0,
               f"wait returned ({pid}, {status}) for child {child.pid}")
        size = self.ctx.syscall("stat", self.PATH)
        fd = self.ctx.syscall("open", self.PATH, O_RDONLY)
        raw = self.ctx.read_bytes(fd, size)
        self.ctx.syscall("close", fd)
        _check(self.MiniRedis.parse_dump(raw) == at_fork,
               "the child's dump differs from the database at fork")


class Nginx(_SessionWorkload):
    name = "nginx"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.api import Session
        from repro.apps.nginx import (RESPONSE_BODY, MiniNginx, WrkClient,
                                      nginx_image)

        self.body = RESPONSE_BODY
        self.session = Session(strategy="copa", cpus=1, seed=seed).boot()
        self.server = MiniNginx(self.session.spawn(nginx_image(), "nginx"))
        self.workers = self.server.fork_workers(2)
        self.client = WrkClient(self.session.spawn(nginx_image(), "wrk"))

    def op(self, index: int) -> Any:
        fd = self.client.issue()
        self.server.serve_one(self.workers[index % len(self.workers)])
        response = self.client.complete(fd)
        _check(response.startswith(b"HTTP/1.1 200")
               and response.endswith(self.body),
               f"bad response {response[:32]!r}")


class ExploreChaos(Workload):
    name = "explore_chaos"
    #: one pass over the units of ``plan_units(cpus=[2])``
    round_ops = 180

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.conform import farm
        from repro.conform.explorer import explore
        from repro.conform.scenarios import by_name

        self.explore = explore
        self.by_name = by_name
        # the farm's own exploration settings
        self.depth, self.budget = farm.DEFAULT_DEPTH, farm.DEFAULT_BUDGET
        self.mix = farm.DEFAULT_CHAOS_MIX
        self.units = farm.plan_units(cpus=[2])

    def op(self, index: int) -> Any:
        unit = self.units[index % len(self.units)]
        # a seed per op: a chaos death of a unit's canonical schedule
        # ends the unit early, and one seed for all would end all four
        # strategies of a scenario together
        result = self.explore(self.by_name(unit["scenario"]),
                              strategy=unit["strategy"],
                              num_cpus=unit["cpus"],
                              seed=self.seed * 1000 + index,
                              depth_bound=self.depth, budget=self.budget,
                              chaos_mix=self.mix)
        _check(not result["violations"],
               f"{unit}: {len(result['violations'])} violation(s), first "
               f"{result['violations'][:1]}")
        _check(result["schedules"] >= 1, f"{unit}: no schedule ran")
        return result

    def ops_in(self, result: Any) -> int:
        # a unit explores one schedule up to its budget, and the seed's
        # chaos decides how many: per schedule, the unit times no longer
        # cluster by size
        return 1 if result is None else result["schedules"]

    def final(self) -> Any:
        return {"units": self.units, "chaos_mix": self.mix}


class Paper(Workload):
    name = "paper"
    #: the figure functions take no seed: same rows for every seed
    seeded = False
    round_ops = 10

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.harness import experiments as exp
        from repro.harness.compat import matrix_rows
        from repro.harness.table1 import table1_rows

        sizes = exp.DEFAULT_DB_SIZES
        # the arguments `python -m repro.harness figures` passes
        self.experiments: List[Tuple[str, Callable[[], Any]]] = [
            ("table1", table1_rows),
            ("fig3", lambda: exp.fig3_redis_save(sizes=sizes)),
            ("fig4", lambda: exp.fig4_redis_fork_latency(sizes=sizes)),
            ("fig5", lambda: exp.fig5_redis_memory(sizes=sizes)),
            ("fig6", exp.fig6_faas_throughput),
            ("fig7", exp.fig7_nginx_throughput),
            ("fig8", exp.fig8_hello_fork),
            ("fig9", lambda: exp.fig9_unixbench(measured_fraction=0.05)),
            ("ablation", lambda: exp.copa_ablation(db_bytes=10 * 1024 * KiB)),
            ("compat", matrix_rows),
        ]
        self.fig8 = exp.fig8_hello_fork

    def warmup(self) -> None:
        self.fig8()

    def op(self, index: int) -> Any:
        name, experiment = self.experiments[index % len(self.experiments)]
        rows = experiment()
        _check(bool(rows), f"{name} returned no rows")
        return {"experiment": name, "rows": rows}

    def final(self) -> Any:
        return [name for name, _ in self.experiments]


class Cluster(Workload):
    name = "cluster"

    REQUESTS = 1_000_000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.cluster.runner import run_cluster

        self.run_cluster = run_cluster

    def warmup(self) -> None:
        self.run_cluster(seed=self.seed, requests=1_000)

    def op(self, index: int) -> Any:
        report = self.run_cluster(seed=self.seed * 100 + index,
                                  requests=self.REQUESTS)
        served = sum(report["balancer"]["shard_load"])
        _check(report["requests"] == self.REQUESTS
               and served == self.REQUESTS,
               f"served {served} of {self.REQUESTS} requests")
        _check(0 < report["latency_ns"]["p50"] <= report["latency_ns"]["p99"],
               f"bad latency summary {report['latency_ns']}")
        return report

    def final(self) -> Any:
        return {"requests": self.REQUESTS}

    def ops_in(self, result: Any) -> int:
        return self.REQUESTS


WORKLOADS: Dict[str, Type[Workload]] = {
    cls.name: cls
    for cls in (ForkFull, BgsaveObs, Nginx, ExploreChaos, Paper, Cluster)
}


def make(name: str, seed: int) -> Workload:
    cls: Optional[Type[Workload]] = WORKLOADS.get(name)
    if cls is None:
        raise KeyError(f"unknown workload {name!r}; choose from "
                       f"{list(WORKLOADS)}")
    return cls(seed)
