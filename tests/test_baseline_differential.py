"""Property suite: the baselines' run-granular page-table paths agree
with their entry-by-entry reference.

The CheriBSD-like (``monolithic``), Iso-Unik-like (``isounik``) and
Nephele-like (``vmclone``) kernels fork, break copy-on-write and tear
down through the raw range API of :class:`~repro.hw.paging.AddressSpace`:
one ``mapped_items`` sweep per fork with ``map_run``/``protect_run``
runs, one ``privatize_page`` CoW break, one ``copy_frames`` VM clone
and one ``unmap_range`` teardown.  The reference here is the same
kernels handled one page-table entry at a time, written on the
single-vpn ops (``map_page``, ``unmap_page``, ``protect_run`` over one
vpn, ``copy_frame``) and patched onto the OS:

* :func:`_reference_copy_ptes` — the monolithic ``pte_copy`` phase,
  one ``pte_copy_ns`` charge and one child ``map_page`` per entry;
* :func:`_reference_cow_fault` and
  :func:`_reference_allocator_touch` — the classic CoW break as a
  frame swap plus a permission/CoW-mark update, twice;
* :func:`_reference_teardown` — per-vpn ``unmap_page``;
* :func:`_reference_clone_pages` — VMClone's per-page ``copy_frame``
  clone, unmapping its copies when a frame allocation fails.

Hypothesis drives fork/store/exit programs (plus heap growth, system
calls that run the allocator re-touch, and MAP_SHARED windows) on a
default machine, a machine with non-integral ``pte_copy_ns``,
``vm_clone_page_ns`` and ``page_fault_ns``, and a small-DRAM machine
where CoW breaks or a VM clone run out of frames.  Each program runs
on a plain side, a watched side (tracer and observability on) and the
watched reference; all must end with identical errors, clock, buckets,
counters, frame count, fd refcounts and per-page permissions, CoW
marks, refcounts, bytes and tags, and the watched sides with identical
obs counters and trace streams.
"""

import contextlib
import functools
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import events
from repro.apps.guest import GuestContext
from repro.apps.hello import hello_world_image
from repro.baselines import IsoUnikOS, MonolithicOS, VMCloneOS
from repro.baselines import monolithic
from repro.hw.paging import AccessKind, PagePerm
from repro.machine import Machine
from repro.params import CostModel, MachineConfig

PAGE = 4096
PAGES = 4  # per-process scratch buffer driven by the operations
MAX_PROCS = 4
#: one past the highest vpn of a 48-bit address space
VA_PAGES = (1 << 48) // PAGE

KERNELS = {"monolithic": MonolithicOS, "isounik": IsoUnikOS,
           "vmclone": VMCloneOS}

#: frames that leave each kernel a few CoW breaks (monolithic,
#: isounik) or one VM clone (vmclone) past its first process
SMALL_DRAM_FRAMES = {"monolithic": 146, "isounik": 35, "vmclone": 1000}

#: machine variants: name -> cost model (None = default); "small_dram"
#: also shrinks DRAM to the kernel's ``SMALL_DRAM_FRAMES``
ENVS = {
    "default": None,
    "non_integral": CostModel.morello().scaled(
        pte_copy_ns=55.5, vm_clone_page_ns=320.5, page_fault_ns=550.5),
    "fractional": CostModel.morello().scaled(
        pte_copy_ns=55.3, vm_clone_page_ns=320.7, page_fault_ns=550.8),
    "small_dram": None,
}

_proc = st.integers(0, MAX_PROCS - 1)
_op = st.one_of(
    st.tuples(st.just("store"), _proc, st.integers(0, PAGES - 1),
              st.integers(0, 255), st.integers(0, 15)),
    st.tuples(st.just("store_cap"), _proc, st.integers(0, PAGES - 1),
              st.integers(0, 15)),
    st.tuples(st.just("map"), _proc),
    st.tuples(st.just("syscall"), _proc),
    st.tuples(st.just("shm"), _proc),
    st.tuples(st.just("fork")),
    st.tuples(st.just("exit")),
)


class _Recorder:
    def __init__(self):
        self.events = []

    def record(self, event, **fields):
        self.events.append((event, tuple(sorted(fields.items()))))


# -- the entry-by-entry reference -------------------------------------------


def _reference_copy_ptes(os_, parent, child, shm_vpns):
    """Monolithic fork's ``pte_copy`` phase, one entry at a time."""
    machine = os_.machine
    for vpn, frame, perms_int, cow, _note in parent.mapped_items(0, VA_PAGES):
        machine.charge(machine.costs.pte_copy_ns, "fork_pte_copy")
        perms = PagePerm(perms_int)
        if vpn in shm_vpns:
            child.map_page(vpn, frame, perms, incref=True)
        elif perms & PagePerm.WRITE:
            perms &= ~PagePerm.WRITE
            parent.protect_run(vpn, 1, perms, cow=True)
            child.map_page(vpn, frame, perms, incref=True, cow=True)
        else:
            child.map_page(vpn, frame, perms, incref=True, cow=cow)


def _swap_in_copy(space, vpn, frame, perms):
    """The shared-frame half of a classic CoW break: a tag-preserving
    private copy replaces ``frame`` at ``vpn``."""
    machine = space.machine
    new_frame = machine.phys.copy_frame(frame, preserve_tags=True)
    space.unmap_page(vpn)
    space.map_page(vpn, new_frame, perms, cow=True)
    machine.emit(events.COW_PAGE_COPY)


def _reference_cow_fault(space, vaddr, kind):
    """``handle_cow_fault``, on single-vpn ops."""
    if kind is not AccessKind.WRITE:
        return False
    machine = space.machine
    with machine.locks.fault.held():
        vpn = vaddr // PAGE
        found = space.mapped_items(vpn, vpn + 1)
        if not found or not found[0][3]:
            return False
        _vpn, frame, perms_int, _cow, _note = found[0]
        perms = PagePerm(perms_int)
        if machine.phys.refcount(frame) > 1:
            _swap_in_copy(space, vpn, frame, perms)
        machine.emit(events.MONOLITHIC_COW_BREAK)
        space.protect_run(vpn, 1, perms | PagePerm.WRITE)
        return True


def _reference_allocator_touch(os_, proc):
    """``MonolithicOS._child_allocator_touch``, on single-vpn ops."""
    machine = os_.machine
    allocator = proc.allocator
    used_pages = allocator.used_bytes() // PAGE
    touch = int(used_pages * os_.allocator_child_touch_fraction)
    if touch <= 0:
        return
    touched = 0
    for step in range(touch):
        vpn = (allocator.data_base + step * used_pages // touch * PAGE) \
            // PAGE
        found = proc.space.mapped_items(vpn, vpn + 1)
        if not found or not found[0][3]:
            continue
        _vpn, frame, perms_int, _cow, _note = found[0]
        perms = PagePerm(perms_int)
        machine.charge(machine.costs.page_fault_ns, "page_fault")
        if machine.phys.refcount(frame) > 1:
            _swap_in_copy(proc.space, vpn, frame, perms)
        proc.space.protect_run(vpn, 1, perms | PagePerm.WRITE)
        touched += 1
    machine.emit(events.ALLOCATOR_TOUCH_PAGES, touched)


def _reference_teardown(os_, proc):
    """``_teardown_memory``: the exit charges, then per-vpn
    ``unmap_page``."""
    machine = os_.machine
    if isinstance(os_, VMCloneOS):
        machine.charge(machine.costs.hypercall_ns * 4, "exit")
    machine.charge(machine.costs.monolithic_exit_ns, "exit")
    for vpn, *_rest in proc.space.mapped_items(0, VA_PAGES):
        proc.space.unmap_page(vpn)


def _reference_clone_pages(os_, parent, child):
    """VMClone's per-page clone; on a failed copy the copies made so
    far are unmapped (freed in allocation order) before the error
    propagates."""
    machine = os_.machine
    cloned = []
    try:
        for vpn, frame, perms, _cow, _note in parent.mapped_items(
                0, VA_PAGES):
            machine.charge(machine.costs.vm_clone_page_ns, "vm_clone_page")
            copy = machine.phys.copy_frame(frame, preserve_tags=True,
                                           charge=False)
            child.map_page(vpn, copy, PagePerm(perms))
            cloned.append(vpn)
    except Exception:
        for vpn in cloned:
            child.unmap_page(vpn)
        raise


# -- driving one side ----------------------------------------------------------


def _boot(kernel, env, side):
    """A fresh kernel on machine ``env`` for one side of the comparison;
    returns it with the root context (a pipe open, a scratch buffer in
    ``c19``)."""
    config = None
    if env == "small_dram":
        config = MachineConfig(dram_bytes=SMALL_DRAM_FRAMES[kernel] * PAGE)
    machine = Machine(config=config, costs=ENVS[env], seed=5)
    if side != "bulk":
        machine.obs.enable()
        machine.tracer = _Recorder()
    os_ = KERNELS[kernel](machine=machine)
    if side == "reference":
        # VMCloneOS is a MonolithicOS too: test for it first
        if isinstance(os_, VMCloneOS):
            os_._clone_pages = functools.partial(_reference_clone_pages, os_)
        else:
            os_._copy_ptes = functools.partial(_reference_copy_ptes, os_)
            os_._child_allocator_touch = functools.partial(
                _reference_allocator_touch, os_)
        os_._teardown_memory = functools.partial(_reference_teardown, os_)
    root = GuestContext(os_, os_.spawn(hello_world_image(), "root"))
    root.syscall("pipe")
    root.set_reg("c19", root.malloc(PAGES * PAGE))
    return os_, root


def _fault_handler(side):
    """The reference side's CoW fault handler: the kernels install
    ``monolithic.handle_cow_fault`` on every space they create."""
    if side != "reference":
        return contextlib.nullcontext()
    return mock.patch.object(monolithic, "handle_cow_fault",
                             _reference_cow_fault)


def _run_ops(root, ops):
    """Apply ``ops``; return the live contexts and any (index, error)
    pairs — errors must occur identically on every side."""
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
                    dying.exit(0)
                    stack[-1].wait(dying.proc.pid)
            else:
                ctx = stack[op[1] % len(stack)]
                if kind == "map":
                    ctx.malloc(PAGE)
                elif kind == "syscall":
                    ctx.syscall("getpid")
                elif kind == "shm":
                    ctx.syscall("shm_map", ctx.syscall("shm_open", "/seg", 1))
                elif kind == "store":
                    ctx.store(ctx.reg("c19"), bytes([op[3]]),
                              offset=op[2] * PAGE + op[4] * 16)
                else:
                    cap = ctx.reg("c19")
                    ctx.store_cap(cap, cap.add(op[3]),
                                  offset=op[2] * PAGE + op[3] * 16)
        except Exception as exc:  # noqa: BLE001 - must match across paths
            errors.append((index, type(exc).__name__, str(exc)))
    return stack, errors


def _drive(kernel, ops, env, side):
    """Run ``ops`` on one side; return every simulated observable, plus
    what the watchers saw on a watched side."""
    with _fault_handler(side):
        os_, root = _boot(kernel, env, side)
        stack, errors = _run_ops(root, ops)
    machine = os_.machine
    phys = machine.phys
    dumps = []
    for ctx in stack:
        pages = []
        for vpn, frame, perms, cow, _note in ctx.space.mapped_items(
                0, VA_PAGES):
            frame_obj = phys.frame(frame)
            pages.append((vpn, perms, cow, phys.refcount(frame),
                          frame_obj.read(0, PAGE),
                          tuple(frame_obj.tagged_granules())))
        private = sum(PAGE for page in pages if page[3] == 1)
        assert os_.private_bytes(ctx.proc) == private
        fds = sorted((fd, desc.refcount)
                     for fd, desc in ctx.proc.fdtable._slots.items())
        dumps.append((ctx.proc.pid, fds, pages))
    state = {
        "errors": errors,
        "now_ns": machine.clock.now_ns,
        "buckets": dict(machine.clock.buckets),
        "counters": machine.counters.snapshot(),
        "allocated_frames": phys.allocated_frames,
        "children": [len(ctx.proc.children) for ctx in stack],
        "dumps": dumps,
    }
    seen = None
    if side != "bulk":
        seen = {"stream": machine.tracer.events,
                "metrics": machine.obs.registry.counters()}
    return state, seen


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(_op, max_size=20), env=st.sampled_from(list(ENVS)))
# parent and child stores break CoW on both sides of a fork (the last
# sharer keeps its frame), the child's first system call re-touches
# its allocator arena, then the child exits
@example(ops=[("store", 0, 0, 7, 0), ("fork",), ("store", 1, 1, 9, 0),
              ("store", 0, 1, 3, 2), ("syscall", 1), ("store", 1, 1, 4, 0),
              ("exit",)], env="non_integral")
# a MAP_SHARED window survives fork shared and writable; capabilities
# keep their tags across the CoW copy
@example(ops=[("shm", 0), ("store_cap", 0, 2, 5), ("fork",),
              ("store", 1, 2, 1, 5), ("fork",), ("exit",), ("exit",)],
         env="fractional")
# frames run out inside a CoW break, or inside the second VM clone
@example(ops=[("fork",), ("store", 0, 0, 1, 0), ("store", 0, 1, 1, 0),
              ("store", 1, 2, 1, 0), ("fork",), ("store", 2, 3, 1, 0),
              ("syscall", 2), ("store", 0, 3, 1, 0), ("exit",)],
         env="small_dram")
def test_range_and_per_entry_paths_are_identical(kernel, ops, env):
    runs = {side: _drive(kernel, ops, env, side)
            for side in ("bulk", "watched", "reference")}
    states = {side: state for side, (state, _seen) in runs.items()}
    assert states["bulk"] == states["watched"] == states["reference"]
    assert runs["watched"][1] == runs["reference"][1]


def _count_calls(owner, name, counts):
    """Patch ``owner.name`` with a wrapper that tallies its calls into
    ``counts[name]``."""
    layered = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return layered(*args, **kwargs)

    return mock.patch.object(owner, name, counting)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_the_sides_take_different_paths(kernel):
    """The comparison above is only a differential if the sides really
    diverge in code: after boot, only the range side calls the run and
    batch primitives (``map_run``, ``privatize_page``, ``unmap_range``,
    ``copy_frames``); the reference runs entry by entry."""
    ops = [("store", 0, 0, 1, 0), ("fork",), ("store", 0, 0, 2, 0),
           ("exit",)]
    calls = {}
    for side in ("bulk", "reference"):
        counts = calls[side] = {}
        with _fault_handler(side):
            os_, root = _boot(kernel, "default", side)
            space_type = type(root.space)
            with contextlib.ExitStack() as patches:
                for name in ("map_run", "privatize_page", "unmap_range"):
                    patches.enter_context(
                        _count_calls(space_type, name, counts))
                patches.enter_context(
                    _count_calls(os_.machine.phys, "copy_frames", counts))
                _run_ops(root, ops)
    assert calls["reference"] == {}
    expected = {"map_run", "unmap_range"}
    expected.add("copy_frames" if kernel == "vmclone" else "privatize_page")
    assert expected <= set(calls["bulk"])
