"""Differential: μprocess migration on fork's bulk page path against a
per-page reference.

``repro.core.migrate.migrate`` copies the pages a forked child still
shares with one ``copy_frames``, relocates the copies and the mover's
own frames (in place) with ``relocate_copied_frames``, and maps the
new area in ``map_run`` runs.  Bulk copy and relocation paths are
where tags get stripped ("Pitfalls in VM Implementation on CHERI"),
so this module keeps migration as it was — one ``copy_frame``, one
``relocate_frame`` and one ``map_page`` per page — as the reference,
patches it in, and runs the same programs both ways.

Each program boots a μFork kernel (FULL, CoA or CoPA), spawns a root
μprocess (optionally linked against shared libraries, optionally with
a shared-memory window), and runs a sequence of stores, capability
stores, forks, exits, migrations and compactions.  Both sides must
agree on every outcome: errors raised, the clock and its attribution
buckets, event counters, obs counters, the trace stream, the
capability-flow log, the allocated frame count, and after every
migration or compaction each mapped page's vpn, permissions, CoW
mark, refcount, bytes and granule tags.  Frame numbers may differ:
the bulk copy pairs sources with destinations in ascending order.
Trace timestamps may differ too: a batch records its events when it
settles.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.apps.guest import GuestContext
from repro.apps.hello import hello_world_image
from repro.cheri.capability import Perm
from repro.core import CopyStrategy, UForkOS
from repro.core import migrate as migrate_mod
from repro.core.relocate import (RegionPair, flow_log, record_flow,
                                 relocate_frame, relocate_registers)
from repro.core.strategies import ShareNote, resolve_all_pending
from repro.machine import Machine
from repro.mem.layout import KiB, ProgramImage
from repro.trace import attach_tracer

PAGE = 4096
PAGES = 4  # per-process scratch buffer driven by the operations
MAX_PROCS = 4
STRATEGIES = ("full", "coa", "copa")
BUF = "c9"


# ---------------------------------------------------------------------------
# The per-page reference
# ---------------------------------------------------------------------------

def reference_migrate(os, proc):
    """Migration one page at a time, as it was before the bulk path."""
    machine = os.machine
    page = machine.config.page_size
    machine.charge(machine.costs.ufork_fixed_ns, "migrate_fixed")
    resolve_all_pending(os.space, proc.region_base, proc.region_top)

    old_base, old_top = proc.region_base, proc.region_top
    size = old_top - old_base
    new_base = os.vspace.reserve(size)
    regions = RegionPair(parent_base=old_base, parent_top=old_top,
                         child_base=new_base, child_top=new_base + size)
    delta_pages = (new_base - old_base) // page
    shm_vpns = getattr(proc, "shm_vpns", set())

    lo, hi = old_base // page, old_top // page
    items = os.space.mapped_items(lo, hi)
    for vpn, frame, perms_int, _cow, note in items:
        new_vpn = vpn + delta_pages
        if vpn in shm_vpns:
            os.space.map_page(new_vpn, frame, perms_int, incref=True)
            machine.charge(machine.costs.pte_copy_ns, "migrate_pte")
            continue
        shared = machine.phys.refcount(frame) > 1
        perms = note.orig_perms if isinstance(note, ShareNote) \
            else perms_int
        if shared:
            new_frame = machine.phys.copy_frame(frame, preserve_tags=True)
            machine.emit(counter="migrate_page_copies")
        else:
            new_frame = frame
            machine.phys.incref(new_frame)
            machine.charge(machine.costs.pte_copy_ns, "migrate_pte")
        relocate_frame(machine, machine.phys.frame(new_frame), regions)
        os.space.map_page(new_vpn, new_frame, perms)

    os.space.unmap_range(lo, hi)
    os.vspace.release(old_base)

    proc.layout = proc.layout.rebased(new_base)
    proc.region_base = new_base
    proc.region_top = new_base + size
    proc.shm_vpns = {vpn + delta_pages for vpn in shm_vpns}
    delta = new_base - old_base
    proc.lib_caps = {
        name: cap.rebased(delta)
        for name, cap in getattr(proc, "lib_caps", {}).items()
    }
    for task in proc.tasks:
        relocate_registers(machine, task.registers, regions)

    heap_cap = (
        os.kernel_root
        .set_bounds(proc.layout.base("heap"), proc.layout.size("heap"))
        .with_cursor(proc.layout.base("heap"))
        .and_perms(Perm.data_rw())
    )
    proc.allocator = type(proc.allocator)(
        machine, os.space, heap_cap, max_blocks=proc.allocator.max_blocks,
    )
    proc.allocator.attach_lazy()
    machine.emit("migrate", counter="migrations", pid=proc.pid,
                 old_base=old_base, new_base=new_base, pages=len(items))
    record_flow(machine, "migrate", proc.pid, proc.pid,
                proc.region_base, proc.region_top)
    return new_base


# ---------------------------------------------------------------------------
# Driving one side
# ---------------------------------------------------------------------------

def _image(libs):
    if libs:
        return ProgramImage("app", heap_size=128 * KiB, mmap_size=512 * KiB,
                            shared_libs=("libc", "libm"))
    return hello_world_image()


def _dump(machine, space):
    out = []
    for vpn, frame, perms, cow, _note in space.mapped_items(0, 1 << 40):
        data, tags = machine.phys.frame(frame).snapshot_content()
        out.append((vpn, perms, cow, machine.phys.refcount(frame), data,
                    tags))
    return out


def run_side(strategy, libs, shm, program, seed=3):
    """Boot, spawn the root (with a scratch buffer in ``c9`` and, with
    ``shm``, a shared window in ``c10``), run ``program``; returns every
    observable."""
    machine = Machine(seed=seed)
    machine.obs.enable()
    tracer = attach_tracer(machine)
    os_ = UForkOS(machine=machine, copy_strategy=CopyStrategy(strategy))
    root = GuestContext(os_, os_.spawn(_image(libs), "root"))
    root.set_reg(BUF, root.malloc(PAGES * PAGE))
    if shm:
        window = root.syscall("shm_map", root.syscall("shm_open", "/w",
                                                      2 * PAGE))
        root.store(window, b"shared window")
        root.set_reg("c10", window)
    live = [root]
    errors = []
    dumps = []
    for op in program:
        kind, args = op[0], op[1:]
        try:
            if kind == "store":
                ctx = live[args[0] % len(live)]
                ctx.store(ctx.reg(BUF), bytes([args[2]]) * 16,
                          offset=args[1] * PAGE + 32)
            elif kind == "store_cap":
                ctx = live[args[0] % len(live)]
                buf = ctx.reg(BUF)
                ctx.store_cap(buf, buf.add(args[1] * PAGE), offset=args[1]
                              * PAGE)
            elif kind == "fork":
                if len(live) < MAX_PROCS:
                    live.append(live[args[0] % len(live)].fork())
            elif kind == "exit":
                if len(live) > 1:
                    live.pop(1 + args[0] % (len(live) - 1)).exit(0)
            elif kind == "migrate":
                os_.migrate(live[args[0] % len(live)].proc)
                dumps.append(_dump(machine, os_.space))
            elif kind == "compact":
                os_.compact()
                dumps.append(_dump(machine, os_.space))
        except Exception as exc:  # noqa: BLE001 - must match
            errors.append((len(dumps), type(exc).__name__, str(exc)))
    # every survivor still reads its buffer and window through its
    # relocated registers
    reads = []
    for ctx in live:
        reads.append(ctx.load(ctx.reg(BUF), PAGES * PAGE))
        if shm:
            reads.append(ctx.load(ctx.reg("c10"), 13))
    return {
        "errors": errors,
        "dumps": dumps,
        "final": _dump(machine, os_.space),
        "reads": reads,
        "flow": flow_log(machine),
        "counters": machine.counters.snapshot(),
        "obs": machine.obs.registry.counters(),
        # a batch records its events when it settles, so only the order
        # of (event, fields) is the reference's, not the timestamps
        "trace": [(event.event, event.fields) for event in tracer.events],
        "now_ns": machine.clock.now_ns,
        "buckets": dict(machine.clock.buckets),
        "allocated_frames": machine.phys.allocated_frames,
        "reserved": sorted(os_.vspace.reserved_areas()),
    }


def compare(strategy, libs, shm, program, monkeypatch):
    bulk = run_side(strategy, libs, shm, program)
    with monkeypatch.context() as patch:
        patch.setattr(migrate_mod, "migrate", reference_migrate)
        reference = run_side(strategy, libs, shm, program)
    assert bulk.keys() == reference.keys()
    for key in bulk:
        assert bulk[key] == reference[key], key
    return bulk


#: fork twice, diverge on both sides, migrate the parent with both
#: children live, migrate a child, then exit one and compact
SCENARIO = (
    ("store_cap", 0, 1), ("store", 0, 2, 7), ("fork", 0),
    ("store", 1, 2, 9), ("store_cap", 1, 3), ("fork", 0),
    ("store", 0, 0, 3), ("migrate", 0), ("store", 0, 3, 5),
    ("migrate", 2), ("exit", 0), ("compact",),
)


@pytest.mark.parametrize("shm", [False, True], ids=["private", "shm"])
@pytest.mark.parametrize("libs", [False, True], ids=["static", "libs"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_scenario_matches_reference(strategy, libs, shm, monkeypatch):
    state = compare(strategy, libs, shm, SCENARIO, monkeypatch)
    assert not state["errors"]
    assert state["counters"].get("migrations", 0) >= 3
    if strategy != "full":
        # the live children kept pages the movers had to copy
        assert state["counters"].get("migrate_page_copies", 0) > 0


_op = st.one_of(
    st.tuples(st.just("store"), st.integers(0, MAX_PROCS - 1),
              st.integers(0, PAGES - 1), st.integers(0, 255)),
    st.tuples(st.just("store_cap"), st.integers(0, MAX_PROCS - 1),
              st.integers(0, PAGES - 1)),
    st.tuples(st.just("fork"), st.integers(0, MAX_PROCS - 1)),
    st.tuples(st.just("exit"), st.integers(0, MAX_PROCS - 1)),
    st.tuples(st.just("migrate"), st.integers(0, MAX_PROCS - 1)),
    st.tuples(st.just("compact")),
)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(strategy=st.sampled_from(STRATEGIES), libs=st.booleans(),
       shm=st.booleans(), program=st.lists(_op, max_size=14))
@example(strategy="copa", libs=True, shm=True, program=list(SCENARIO))
def test_random_programs_match_reference(strategy, libs, shm, program,
                                         monkeypatch):
    compare(strategy, libs, shm, program, monkeypatch)
