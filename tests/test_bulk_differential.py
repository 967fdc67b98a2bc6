"""Property suite: fork's bulk page copy and the write-run CoW break
agree with a page-at-a-time reference.

Fork, CoW break, relocation and frame copy run as batches (run-copied
``copy_frames``, ``map_run`` sharing, the bulk write-break hook,
memoised relocation sweeps with sum-equal charges), in every mode:
chaos, mid-copy frame exhaustion and non-integral costs included.
Bulk copy paths are where tag bugs hide ("Pitfalls in VM
Implementation on CHERI"), so the reference handles one page at a
time: :func:`_reference_copy_pages` is fork's page-duplication phase
written as a per-page loop (``copy_frame``, ``relocate_frame``,
``map_page`` and per-page sharing setup), patched onto the OS, and
the write-break hook is removed so write runs fault page by page.

Hypothesis drives random map/unmap (malloc + exit teardown), fork, CoW
break (parent and child stores, single and batched runs) and
tag-store/tag-clear programs through the public facade on one of
several machines (:data:`ENVS`): the default one, a chaos mix that
injects frame-allocation failures and tag clears, a small-DRAM machine
that runs out of frames mid-fork, and two cost models with
non-integral PTE and fault costs.  Each program runs on these sides:

* **bulk**: a plain session;
* **watched**: the same with a tracer attached and observability on;
* **reference**: watched, on the per-page reference paths;
* **zero-rate** (machines without a chaos mix): watched, with a chaos
  engine that is enabled but fires nothing
  (``FaultMix.parse("default=0")``) — still the bulk paths.

All sides must end byte-identical in every simulated observable:
raised errors, clock, attribution buckets, event counters, page
bytes, granule tags, refcounts and permissions; the sides sharing a
chaos engine also in its ``hits``, ``fired``, ``recovered`` and
``injections``.  The watched sides must give the same obs counters
and, without an injecting mix, the same ordered ``(event, fields)``
trace stream — under injection a batch emits its ``chaos_inject``
records inside the batch, not between its pages.  Shrinking hands
back the minimal divergent program.
"""

import functools

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import events
from repro.api import Session
from repro.chaos import ChaosEngine, FaultMix
from repro.core import CopyStrategy
from repro.core.relocate import relocate_frame
from repro.core.strategies import (
    ShareNote,
    child_share_perms,
    parent_share_perms,
)
from repro.core.ufork import UForkOS
from repro.hw.paging import PagePerm
from repro.machine import Machine
from repro.params import CostModel, MachineConfig

PAGE = 4096
PAGES = 4  # per-process scratch buffer driven by the operations
MAX_PROCS = 4
STRATEGIES = ("full", "coa", "copa")

#: the chaos spec that enables the engine without injecting anything
ZERO_RATE = "default=0"

#: machine variants: name -> (config, costs, chaos spec); the default
#: machine boots with 96 frames in use and a full-copy fork adds 32,
#: so 140 frames run out in the middle of the second one.  The
#: half-way costs round half to even per charge; the others tell a
#: truncated charge from a rounded one.
ENVS = {
    "default": (None, None, None),
    "chaos": (None, None, "hw.phys.alloc_fail=0.2,hw.phys.tag_clear=0.2"),
    "small_dram": (MachineConfig(dram_bytes=140 * PAGE), None, None),
    "non_integral": (None, CostModel.morello().scaled(
        pte_bulk_share_ns=2.5, pte_protect_ns=0.5, pte_coa_extra_ns=1.5,
        page_fault_ns=550.5), None),
    "fractional": (None, CostModel.morello().scaled(
        pte_bulk_share_ns=2.7, pte_protect_ns=0.6, pte_coa_extra_ns=1.3,
        page_fault_ns=550.8), None),
}

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


def _reference_copy_pages(os_, strategy, regions, delta_pages, eager,
                          shm_vpns, lo, hi, newly_shared):
    """``UForkOS._copy_pages`` one page at a time, in ascending vpn
    order: the reference the bulk phase must reproduce, including the
    state it leaves when a frame allocation fails part-way."""
    machine = os_.machine
    costs = machine.costs
    phys = machine.phys
    space = os_.space
    for vpn in range(lo, hi):
        found = space.mapped_items(vpn, vpn + 1)
        if not found:
            continue
        _vpn, frame, perms_int, _cow, note = found[0]
        perms = PagePerm(perms_int)
        child_vpn = vpn + delta_pages
        if vpn in shm_vpns:
            space.map_page(child_vpn, frame, perms, incref=True)
            machine.charge(costs.pte_bulk_share_ns, "fork_map")
            continue
        shared = isinstance(note, ShareNote)
        orig = note.orig_perms if shared else perms
        if vpn in eager or strategy is CopyStrategy.FULL_COPY:
            copy = phys.copy_frame(frame, preserve_tags=True)
            relocate_frame(machine, phys.frame(copy), regions)
            space.map_page(child_vpn, copy, orig)
            machine.charge(costs.pte_bulk_share_ns, "fork_map")
            machine.emit(events.FORK_PAGE_COPY, vpn=child_vpn, eager=True)
            continue
        space.map_page(child_vpn, frame,
                       child_share_perms(strategy, orig), incref=True,
                       note=ShareNote("child", strategy, regions, orig))
        machine.charge(costs.pte_bulk_share_ns, "fork_map")
        if strategy is CopyStrategy.COA:
            machine.charge(costs.pte_coa_extra_ns, "fork_map")
        space.protect_page(vpn, parent_share_perms(orig))
        if not shared:
            space.set_note(vpn, ShareNote("parent", strategy, regions, orig))
            newly_shared.append(vpn)
        machine.charge(costs.pte_protect_ns, "fork_protect")


def _sides(env):
    sides = ["bulk", "watched", "reference"]
    if ENVS[env][2] is None:
        sides.append("zero_rate")
    return sides


def _boot(strategy, env="default", side="bulk"):
    """A fresh session on machine ``env`` for one side of the
    comparison."""
    config, costs, chaos = ENVS[env]
    if side == "zero_rate":
        chaos = ZERO_RATE
    watched = side != "bulk"
    machine = Machine(config=config, costs=costs, seed=5)
    sim = Session(strategy=strategy, seed=5, obs=watched)
    sim.machine = machine
    sim.os = UForkOS(machine=machine, copy_strategy=CopyStrategy(strategy))
    if chaos is not None:
        ChaosEngine(seed=5, mix=FaultMix.parse(chaos)).attach(machine)
    if watched:
        machine.obs.enable()
        machine.tracer = _Recorder()
    if side == "reference":
        sim.os._copy_pages = functools.partial(_reference_copy_pages, sim.os)
        sim.os.space.write_break_hook = None
    assert machine.chaos.enabled is (chaos is not None)
    return sim


def _run_ops(sim, ops):
    """Apply ``ops``; return the live contexts and any (index, error)
    pairs — errors must occur identically on every side."""
    with sim.machine.chaos.paused():
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


def _drive(strategy, ops, env, side):
    """Run ``ops`` on one side; return every simulated observable, plus
    what the watchers saw on a watched side."""
    sim = _boot(strategy, env, side)
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
                          bytes(frame_obj.data[:PAGE]),
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
    if machine.chaos.enabled and side != "zero_rate":
        state["chaos"] = machine.chaos.export()
    seen = None
    if side != "bulk":
        seen = {"stream": machine.tracer.events,
                "metrics": machine.obs.registry.counters()}
    return state, seen


@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(ops=st.lists(_op, max_size=24), env=st.sampled_from(list(ENVS)))
# a batched CoW break of child pages whose capabilities must relocate,
# then of the parent's pages
@example(ops=[("store_cap", 0, 0, 0), ("fork",), ("store_run", 1, 0),
              ("store_run", 0, 0)], env="default")
# frames run out part-way through a fork (full copy) or a write run
@example(ops=[("store_cap", 0, 1, 3), ("fork",), ("fork",),
              ("store_run", 2, 5), ("fork",)], env="small_dram")
# injected allocation failures and tag clears inside fork's batch and
# a write run's
@example(ops=[("store_cap", 0, 0, 2), ("fork",), ("store_run", 1, 4),
              ("fork",), ("store_run", 0, 1)], env="chaos")
def test_bulk_and_per_page_paths_are_byte_identical(strategy, ops, env):
    runs = {side: _drive(strategy, ops, env, side) for side in _sides(env)}
    states = {side: state for side, (state, _seen) in runs.items()}
    zero_rate = states.pop("zero_rate", None)
    assert states["bulk"] == states["watched"] == states["reference"]
    if zero_rate is not None:
        bulk = {key: value for key, value in states["bulk"].items()
                if key != "chaos"}
        assert zero_rate == bulk
    views = [seen for side, (_state, seen) in runs.items() if side != "bulk"]
    assert all(view["metrics"] == views[0]["metrics"] for view in views)
    if ENVS[env][2] is None:
        assert all(view["stream"] == views[0]["stream"] for view in views)


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
    diverge in code: during fork only the reference side copies frames
    one ``copy_frame`` call at a time; the bulk sides — watched, or
    under an enabled chaos engine — never call it there and make the
    same ``copy_frames`` calls over the whole run."""
    ops = [("fork",), ("store", 0, 0, 7, 0), ("store", 1, 1, 9, 0),
           ("store_run", 1, 3), ("exit",)]
    in_fork = {}
    batches = {}
    for side in _sides("default"):
        sim = _boot(strategy, side=side)
        phys = sim.machine.phys
        single = _count_calls(phys, "copy_frame")
        bulk = _count_calls(phys, "copy_frames")
        forks = []
        layered = sim.os.fork

        def fork(proc, layered=layered, single=single, forks=forks):
            before = single[0]
            try:
                return layered(proc)
            finally:
                forks.append(single[0] - before)

        sim.os.fork = fork
        _run_ops(sim, ops)
        assert forks, "the program forks"
        in_fork[side] = sum(forks)
        batches[side] = bulk[0]
    assert in_fork["reference"] > 0
    assert in_fork["bulk"] == in_fork["watched"] == in_fork["zero_rate"] == 0
    assert batches["bulk"] == batches["watched"] == batches["zero_rate"] > 0
    assert batches["reference"] == 0


def test_observed_store_run_keeps_the_batched_writes():
    """A watched ``store_run`` across pages CoW-shared with a child is
    still one batched ``write_run``: no per-call ``write``, one bulk
    break of all eight pages."""
    sim = _boot("copa", side="watched")
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
