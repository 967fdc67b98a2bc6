"""Property suite: the bulk memory paths and the per-page paths agree.

Fork, CoW break, relocation and frame copy each have a vectorized bulk
path (batched ``copy_frames``, ``map_run`` sharing, the bulk
write-break hook, memoised relocation sweeps with sum-equal charges)
and a per-page path that handles one page at a time.  The per-page
path runs under an enabled chaos engine or SMP; watching a run (a
tracer, observability) never selects it.  Bulk copy paths are where
tag bugs hide ("Pitfalls in VM Implementation on CHERI"), so the
per-page paths serve as the reference.

Hypothesis drives random map/unmap (malloc + exit teardown), fork, CoW
break (parent and child stores, single and batched runs) and
tag-store/tag-clear programs through the public facade three times:

* **bulk**: a plain session;
* **bulk, watched**: a plain session with a tracer attached and
  observability enabled;
* **per-page, watched**: the same watchers plus a zero-rate chaos
  engine (``FaultMix.parse("default=0")``), which fires nothing but
  sends every copy down the per-page fallbacks.

All three must end byte-identical in every simulated observable:
clock, attribution buckets, event counters, page bytes, granule tags,
refcounts and permissions.  The two watched runs must also give the
same ordered ``(event, fields)`` trace stream and the same obs
counters.  Shrinking hands back the minimal divergent program.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

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


def _boot(strategy, per_page=False, watched=False):
    """A fresh session on the bulk or the per-page paths, optionally
    watched by a tracer and observability."""
    sim = Session(strategy=strategy, seed=5, obs=watched,
                  chaos=ZERO_RATE if per_page else None).boot()
    machine = sim.machine
    if watched:
        machine.tracer = _Recorder()
    assert machine.chaos.enabled is per_page
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


def _drive(strategy, ops, per_page=False, watched=False):
    """Run ``ops`` in a fresh session; return every simulated
    observable, plus what the watchers saw when ``watched``."""
    sim = _boot(strategy, per_page, watched)
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
    state = {
        "errors": errors,
        "now_ns": machine.clock.now_ns,
        "buckets": dict(machine.clock.buckets),
        "counters": machine.counters.snapshot(),
        "allocated_frames": machine.phys.allocated_frames,
        "dumps": dumps,
    }
    seen = None
    if watched:
        seen = {"stream": machine.tracer.events,
                "metrics": machine.obs.registry.counters()}
    return state, seen


@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(ops=st.lists(_op, max_size=24))
# a batched CoW break of child pages whose capabilities must relocate,
# then of the parent's pages
@example(ops=[("store_cap", 0, 0, 0), ("fork",), ("store_run", 1, 0),
              ("store_run", 0, 0)])
def test_bulk_and_per_page_paths_are_byte_identical(strategy, ops):
    bulk, _ = _drive(strategy, ops)
    watched, bulk_seen = _drive(strategy, ops, watched=True)
    per_page, per_page_seen = _drive(strategy, ops, per_page=True,
                                     watched=True)
    assert bulk == watched == per_page
    assert bulk_seen == per_page_seen


def _count_calls(obj, name):
    """Wrap ``obj.name`` (instance attribute) with a call counter."""
    count = [0]
    layered = getattr(obj, name)

    def counting(*args, **kwargs):
        count[0] += 1
        return layered(*args, **kwargs)

    setattr(obj, name, counting)
    return count


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_the_two_sides_take_different_copy_paths(strategy):
    """The comparison above is only a differential if the sides really
    diverge in code: the per-page side copies frames one
    ``copy_frame`` call at a time, while both bulk sides — watched or
    not — never call it and make the same ``copy_frames`` calls."""
    ops = [("fork",), ("store", 0, 0, 7, 0), ("store", 1, 1, 9, 0),
           ("store_run", 1, 3), ("exit",)]
    calls = {}
    for side in ("bulk", "watched", "per_page"):
        sim = _boot(strategy, per_page=side == "per_page",
                    watched=side != "bulk")
        phys = sim.machine.phys
        single = _count_calls(phys, "copy_frame")
        bulk = _count_calls(phys, "copy_frames")
        _run_ops(sim, ops)
        calls[side] = (single[0], bulk[0])
    assert calls["bulk"][0] == calls["watched"][0] == 0
    assert calls["watched"][1] == calls["bulk"][1]
    if strategy == "full":
        assert calls["bulk"][1] > 0  # the fork's eager copy is one batch
    assert calls["per_page"][0] > 0


def test_observed_store_run_keeps_the_batched_writes():
    """A watched ``store_run`` across pages CoW-shared with a child is
    still one batched ``write_run``: no per-call ``write``, one bulk
    break of all eight pages."""
    sim = _boot("copa", watched=True)
    root = sim.spawn(name="root")
    buf = root.malloc(8 * PAGE)
    child = root.fork()
    writes = _count_calls(root.space, "write")
    breaks = _count_calls(sim.machine.phys, "copy_frames")
    root.store_run(buf, bytes(16), [page * PAGE for page in range(8)])
    assert writes[0] == 0
    assert breaks[0] == 1
    assert sim.machine.tracer.events[-1][0] == "cow_break"
    child.exit(0)
    root.wait(child.proc.pid)
