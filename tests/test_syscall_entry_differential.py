"""Differential suite: a syscall's fast entry branch and its general
path come out bit-equal.

With obs, chaos and the tracer off, no ``syscall_tap`` and no signal
pending, :meth:`repro.kernel.base.AbstractOS.syscall` calls the
handler straight through the name's entry plan; with chaos and the
tracer off, obs on or off,
:meth:`repro.kernel.syscalls.SyscallLayer.enter` makes the planned
charges in one clock call.  A no-op ``syscall_tap`` and a no-op tracer
send every call down both general paths instead (span, signal
delivery, tap; per-charge clock advances and emits).  One mixed
script — an nginx request served from the ram-disk, a pipe
ping-pong, reads and writes through user buffers (TOCTTOU copies
under FULL isolation), an unknown syscall, a handler that raises,
calls on killed, signalled and exited processes — runs once each way
on every kernel at every isolation level, with obs off and on;
results, exception types, the clock reading, its buckets, the counter
view and the obs export's bytes must be equal, orders included.

FULL isolation plans its TOCTTOU copies too, so a second script drives
:meth:`~repro.kernel.syscalls.SyscallLayer.enter` itself with user
buffers of 0 bytes, of ``tocttou_max_copy_bytes`` and above it, and two
buffers in one call, and checks the same readings and the obs copy
count.  With a negative copy or setup cost every call with a buffer
must leave the planned branch and raise from the general path.
"""

import json
from dataclasses import replace

import pytest

from repro.apps.guest import GuestContext
from repro.apps.hello import hello_world_image
from repro.apps.nginx import MiniNginx, WrkClient, nginx_image
from repro.apps.unixbench import context1
from repro.baselines import IsoUnikOS, MonolithicOS, VMCloneOS
from repro.core import UForkOS
from repro.kernel.signals import SIGKILL, SIGTERM
from repro.kernel.syscalls import (
    EntryPlan, IsolationConfig, IsolationLevel, SyscallLayer)
from repro.kernel.vfs import O_RDONLY
from repro.machine import Machine
from repro.params import CostModel

KERNELS = {"ufork": UForkOS, "monolithic": MonolithicOS,
           "isounik": IsoUnikOS, "vmclone": VMCloneOS}


def _script(os_):
    """Run the mixed script on ``os_``; returns one outcome per step."""
    outcomes = []

    def step(call):
        try:
            value = call()
        except Exception as exc:  # the outcome under test
            outcomes.append(("raised", type(exc).__name__, str(exc)))
        else:
            outcomes.append(("returned", value))

    # an nginx request, the page read from the ram-disk (stat, open,
    # read and close in the worker; mkdir, open, write in the master)
    master = GuestContext(os_, os_.spawn(nginx_image(), "nginx"))
    server = MiniNginx(master, docroot="/www")
    server.publish("index.html", b"<h1>entry</h1>")
    server.fork_workers(1)
    client = WrkClient(GuestContext(os_, os_.spawn(nginx_image(), "wrk")))
    fd = client.issue()
    step(lambda: server.serve_one(server.workers[0]).total_ns)
    step(lambda: client.complete(fd))

    # a pipe ping-pong between the master and a forked child
    step(lambda: context1(master, target=8).total_ns)

    # open/read/write through user buffers (TOCTTOU copies under FULL)
    buf = master.malloc(64)
    step(lambda: master.syscall("open", "/www/index.html", O_RDONLY))
    ro_fd = outcomes[-1][1]
    step(lambda: master.syscall("read", ro_fd, buf, 32))
    # a handler that raises: writing to a read-only descriptor
    step(lambda: master.syscall("write", ro_fd, buf, 4))
    step(lambda: master.syscall("close", ro_fd))
    step(lambda: master.syscall("close", ro_fd))
    # an unknown syscall
    step(lambda: master.syscall("no_such_syscall", 1))

    # a child killed before its first syscall, and one with SIGTERM
    # pending when it enters the kernel
    killed = master.fork()
    step(lambda: master.syscall("kill", killed.pid, SIGKILL))
    step(lambda: killed.syscall("getpid"))
    signalled = master.fork()
    step(lambda: signalled.syscall("getpid") == signalled.pid)
    step(lambda: master.syscall("kill", signalled.pid, SIGTERM))
    step(lambda: signalled.syscall("getpid"))
    step(lambda: master.wait(killed.pid))
    step(lambda: master.wait(signalled.pid))

    # a plain process's last syscalls, then calls after its exit
    hello = GuestContext(os_, os_.spawn(hello_world_image(), "hello"))
    step(lambda: hello.syscall("getpid") == hello.pid)
    step(lambda: hello.exit(0))
    step(lambda: hello.syscall("getpid"))
    step(lambda: hello.syscall("no_such_syscall"))

    server.shutdown()
    client.ctx.exit(0)
    master.exit(0)
    return outcomes


class _NullTracer:
    """A tracer that keeps nothing: attached, it forces the general
    entry path without changing what is recorded elsewhere."""

    def record(self, *args, **fields):
        return None


def _run(kernel, level, slow, obs):
    machine = Machine(seed=7)
    if obs:
        machine.obs.enable()
    os_ = KERNELS[kernel](machine=machine,
                          isolation=IsolationConfig.from_level(level))
    if slow:
        machine.syscall_tap = lambda *record: None
        machine.tracer = _NullTracer()
    outcomes = _script(os_)
    # only the fast ``enter`` branch fills a plan's charges
    planned = sum(len(plan.charges) for plan in os_.syscalls.plans.values())
    return (outcomes, machine.clock.now_ns,
            list(machine.clock.buckets.items()),
            list(machine.counters.snapshot().items()), planned,
            json.dumps(machine.obs.export()))


def _assert_equal_runs(kernel, level, obs):
    fast = _run(kernel, level, slow=False, obs=obs)
    slow = _run(kernel, level, slow=True, obs=obs)
    assert fast[0] == slow[0]
    assert fast[1] == slow[1]
    assert fast[2] == slow[2]
    assert fast[3] == slow[3]
    assert fast[4] and not slow[4]
    assert fast[5] == slow[5]
    outcomes = fast[0]
    # the script reached every case it is meant to cover
    raised = {outcome[1] for outcome in outcomes if outcome[0] == "raised"}
    assert raised == {"BadFileDescriptor", "InvalidArgument",
                      "NoSuchProcess"}
    response = outcomes[1][1]
    assert response.startswith(b"HTTP/1.1 200")
    assert response.endswith(b"<h1>entry</h1>")


@pytest.mark.parametrize("level", list(IsolationLevel),
                         ids=lambda level: level.value)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_fast_entry_matches_general_path(kernel, level):
    _assert_equal_runs(kernel, level, obs=False)


@pytest.mark.parametrize("level", list(IsolationLevel),
                         ids=lambda level: level.value)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_fast_entry_matches_general_path_with_obs(kernel, level):
    # obs on: the planned entry emits through ``Machine.emit``, so the
    # export (counters, spans, time buckets) comes out byte-identical
    _assert_equal_runs(kernel, level, obs=True)


MAX_COPY = CostModel.morello().tocttou_max_copy_bytes

#: ``(name, nargs, buffer sizes)`` per call; repeated sizes hit the
#: per-size plan, and sizes above the cap copy only the cap
ENTER_SCRIPT = (
    ("read", 3, (0,)),
    ("read", 3, (MAX_COPY,)),
    ("write", 3, (MAX_COPY + 1,)),
    ("write", 3, (4,)),
    ("write", 3, (4,)),
    ("send", 4, (16, MAX_COPY + 1)),
    ("send", 4, (MAX_COPY + 7, 0)),
    ("read", 3, ()),
    ("read", 3, (MAX_COPY + 1,)),
)


def _enter_run(slow, obs, costs):
    machine = Machine(seed=7, costs=costs)
    if obs:
        machine.obs.enable()
    if slow:
        machine.tracer = _NullTracer()
    layer = SyscallLayer(machine, trapless=False,
                         isolation=IsolationConfig.full())
    for name in ("read", "write", "send"):
        layer.plans[name] = EntryPlan(lambda *args: None, name)
    outcomes = []
    for name, nargs, sizes in ENTER_SCRIPT:
        try:
            layer.enter(name, nargs, sizes)
        except Exception as exc:  # the outcome under test
            outcomes.append(type(exc).__name__)
        else:
            outcomes.append(None)
    planned = sum(len(plan.charges) for plan in layer.plans.values())
    copies = machine.obs.registry.counters().get(
        "kernel.syscall.tocttou_copies")
    return (outcomes, machine.clock.now_ns,
            list(machine.clock.buckets.items()),
            list(machine.counters.snapshot().items()),
            json.dumps(machine.obs.export()), copies, planned)


@pytest.mark.parametrize("obs", [False, True], ids=["obs_off", "obs_on"])
def test_planned_tocttou_copies_match_general_path(obs):
    fast = _enter_run(slow=False, obs=obs, costs=CostModel.morello())
    slow = _enter_run(slow=True, obs=obs, costs=CostModel.morello())
    assert fast[:6] == slow[:6]
    assert fast[0] == [None] * len(ENTER_SCRIPT)
    # the fast run planned each call shape once; the slow run none
    shapes = {(name, nargs, sizes) for name, nargs, sizes in ENTER_SCRIPT}
    assert fast[6] == len(shapes) and slow[6] == 0
    buffers = sum(len(sizes) for _name, _nargs, sizes in ENTER_SCRIPT)
    assert fast[5] == (buffers if obs else None)
    # each buffer pays one setup and a double copy of at most the cap
    costs = CostModel.morello()
    assert dict(fast[2])["tocttou"] == sum(
        round(costs.tocttou_setup_ns)
        + round(costs.tocttou_copy_ns_per_byte * 2 * min(size, MAX_COPY))
        for _name, _nargs, sizes in ENTER_SCRIPT for size in sizes)


@pytest.mark.parametrize("field", ["tocttou_copy_ns_per_byte",
                                   "tocttou_setup_ns"])
@pytest.mark.parametrize("obs", [False, True], ids=["obs_off", "obs_on"])
def test_negative_copy_cost_raises_from_general_path(obs, field):
    costs = replace(CostModel.morello(), **{field: -1.0})
    fast = _enter_run(slow=False, obs=obs, costs=costs)
    slow = _enter_run(slow=True, obs=obs, costs=costs)
    assert fast[:6] == slow[:6]
    # a 0-byte copy costs nothing at any rate, so only the setup
    # refuses it
    refused = [any(costs.tocttou_setup_ns < 0 or
                   costs.tocttou_copy_ns_per_byte * min(size, MAX_COPY) < 0
                   for size in sizes)
               for _name, _nargs, sizes in ENTER_SCRIPT]
    assert fast[0] == ["ValueError" if no else None for no in refused]
    assert any(refused) and not all(refused)
    # only the shapes the clock accepts were planned: the call with no
    # buffer, and the 0-byte copy at a negative rate
    assert fast[6] == refused.count(False) == \
        (1 if field == "tocttou_setup_ns" else 2)
    assert slow[6] == 0
