"""Property suite: the bulk memory paths and the per-page paths agree.

Fork, CoW break, relocation and frame copy each have a vectorized bulk
path (batched ``copy_frames``, ``map_run`` sharing, the bulk
write-break hook, memoised relocation sweeps with sum-equal charges)
and a per-page path that handles one page at a time.  The per-page
path is what runs whenever batching could be observable: an attached
tracer, an enabled chaos engine, SMP or a clock observer.  Bulk copy
paths are where tag bugs hide ("Pitfalls in VM Implementation on
CHERI"), so the per-page paths serve as the reference.

Hypothesis drives random map/unmap (malloc + exit teardown), fork, CoW
break (parent and child stores, single and batched runs) and
tag-store/tag-clear programs through the public facade twice:

* the **bulk** side is a plain session;
* the **per-page** side is selected only through existing switches —
  a tracer attached to the machine plus a zero-rate chaos engine
  (``FaultMix.parse("default=0")``), which fires nothing but sends
  every copy down the per-page fallbacks.

Both must end byte-identical in every simulated observable: clock,
attribution buckets, event counters, page bytes, granule tags,
refcounts and permissions.  Shrinking hands back the minimal divergent
program.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import Session

PAGE = 4096
PAGES = 4  # per-process scratch buffer driven by the operations
MAX_PROCS = 4
STRATEGIES = ("full", "coa", "copa")

#: the chaos spec that enables the engine without injecting anything
ZERO_RATE = "default=0"

_op = st.one_of(
    st.tuples(st.just("store"), st.integers(0, MAX_PROCS - 1),
              st.integers(0, PAGES - 1), st.integers(0, 255),
              st.integers(0, 15)),
    st.tuples(st.just("store_run"), st.integers(0, MAX_PROCS - 1),
              st.integers(0, 255)),
    st.tuples(st.just("store_cap"), st.integers(0, MAX_PROCS - 1),
              st.integers(0, PAGES - 1), st.integers(0, 15)),
    st.tuples(st.just("map"), st.integers(0, MAX_PROCS - 1)),
    st.tuples(st.just("fork")),
    st.tuples(st.just("exit")),
)


class _Recorder:
    def __init__(self):
        self.events = []

    def record(self, event, **fields):
        self.events.append((event, tuple(sorted(fields.items()))))


def _boot(strategy, per_page):
    """A fresh session on the bulk or the per-page paths."""
    sim = Session(strategy=strategy, seed=5,
                  chaos=ZERO_RATE if per_page else None).boot()
    machine = sim.machine
    if per_page:
        machine.tracer = _Recorder()
    assert machine.chaos.enabled is per_page
    assert (machine.tracer is not None) is per_page
    return sim


def _run_ops(sim, ops):
    """Apply ``ops``; return the live contexts and any (index, error)
    pairs — errors must occur identically on both paths."""
    root = sim.spawn(name="root")
    root.set_reg("c19", root.malloc(PAGES * PAGE))
    stack = [root]
    errors = []
    for index, op in enumerate(ops):
        kind = op[0]
        try:
            if kind == "fork":
                if len(stack) < MAX_PROCS:
                    stack.append(stack[-1].fork())
            elif kind == "exit":
                if len(stack) > 1:
                    dying = stack.pop()
                    parent = stack[-1]
                    dying.exit(0)
                    parent.wait(dying.proc.pid)
            elif kind == "map":
                stack[op[1] % len(stack)].malloc(PAGE)
            else:
                ctx = stack[op[1] % len(stack)]
                cap = ctx.reg("c19")
                if kind == "store":
                    ctx.store(cap, bytes([op[3]]),
                              offset=op[2] * PAGE + op[4] * 16)
                elif kind == "store_run":
                    ctx.store_run(cap, bytes([op[2]] * 16),
                                  [page * PAGE for page in range(PAGES)])
                elif kind == "store_cap":
                    ctx.store_cap(cap, cap.add(op[3]),
                                  offset=op[2] * PAGE + op[3] * 16)
        except Exception as exc:  # noqa: BLE001 - must match across paths
            errors.append((index, type(exc).__name__, str(exc)))
    return stack, errors


def _drive(strategy, ops, per_page):
    """Run ``ops`` in a fresh session; return every simulated observable."""
    sim = _boot(strategy, per_page)
    stack, errors = _run_ops(sim, ops)
    machine = sim.machine
    dumps = []
    for ctx in stack:
        space = ctx.space
        lo = ctx.proc.region_base // PAGE
        hi = (ctx.proc.region_top + PAGE - 1) // PAGE
        pages = []
        for vpn, frame, perms_int, cow, _note in space.mapped_items(lo, hi):
            frame_obj = machine.phys.frame(frame)
            pages.append((vpn - lo, perms_int, bool(cow),
                          machine.phys.refcount(frame),
                          frame_obj.read(0, PAGE),
                          tuple(frame_obj.tagged_granules())))
        dumps.append(pages)
    return {
        "errors": errors,
        "now_ns": machine.clock.now_ns,
        "buckets": dict(machine.clock.buckets),
        "counters": machine.counters.snapshot(),
        "allocated_frames": machine.phys.allocated_frames,
        "dumps": dumps,
    }


@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(ops=st.lists(_op, max_size=24))
def test_bulk_and_per_page_paths_are_byte_identical(strategy, ops):
    assert _drive(strategy, ops, per_page=False) == \
        _drive(strategy, ops, per_page=True)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_the_two_sides_take_different_copy_paths(strategy):
    """The comparison above is only a differential if the sides really
    diverge in code: the per-page side copies frames one
    ``copy_frame`` call at a time, the bulk side never calls it."""
    ops = [("fork",), ("store", 0, 0, 7, 0), ("store", 1, 1, 9, 0),
           ("store_run", 1, 3), ("exit",)]
    calls = {}
    for per_page in (False, True):
        sim = _boot(strategy, per_page)
        phys = sim.machine.phys
        count = [0]
        layered = phys.copy_frame

        def counting(*args, _layered=layered, _count=count, **kwargs):
            _count[0] += 1
            return _layered(*args, **kwargs)

        phys.copy_frame = counting
        _run_ops(sim, ops)
        calls[per_page] = count[0]
    assert calls[False] == 0 and calls[True] > 0


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(_op, max_size=16))
def test_zero_rate_chaos_keeps_the_traced_event_stream(ops):
    """A traced run keeps the bulk frame copies unless chaos is on; the
    ordered event stream must not depend on which copy path ran."""
    streams = []
    for chaos in (None, ZERO_RATE):
        sim = Session(strategy="copa", seed=5, chaos=chaos).boot()
        recorder = _Recorder()
        sim.machine.tracer = recorder
        _run_ops(sim, ops)
        streams.append(recorder.events)
    assert streams[0] == streams[1]
