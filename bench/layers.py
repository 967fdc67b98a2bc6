"""Per-layer host-time tracing for the traced run (``--trace 1``).

A layer is a ``repro`` package (``repro.sim`` counts as ``sim``).
:data:`BOUNDARIES` lists each layer's entry points.  :class:`Tracer`
wraps them from outside the program: a call records a span only when
the innermost open span belongs to another layer, so a layer's self
time is its spans' time minus the spans of the layers it called.  Time
outside every span while an op runs is the driver's own, ``bench``.

The tracer never touches ``machine.obs`` or ``machine.tracer``: both
send fork, CoW breaks and relocation down per-page paths, so the
traced run would measure different code.  It never wraps
``PhysicalMemory.decref`` either: ``decref_many`` compares that
attribute with the pristine function and takes its per-frame path when
they differ.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

#: every layer, in report order; ``bench`` is driver time outside spans
LAYERS = ("hw", "cheri", "core", "kernel", "mem", "apps", "obs", "sim",
          "conform", "sec", "smp", "chaos", "snapshot", "cluster",
          "harness", "baselines", "bench")

#: ``module:qualname`` of each wrapped entry point
BOUNDARIES: Tuple[str, ...] = (
    "repro.hw.phys:PhysicalMemory.alloc",
    "repro.hw.phys:PhysicalMemory.copy_frame",
    "repro.hw.phys:PhysicalMemory.copy_frames",
    "repro.hw.phys:PhysicalMemory.cow_copy",
    "repro.hw.phys:PhysicalMemory.decref_many",
    "repro.hw.paging:AddressSpace.resolve",
    "repro.hw.paging:AddressSpace.read",
    "repro.hw.paging:AddressSpace.write",
    "repro.hw.paging:AddressSpace.write_run",
    "repro.hw.paging:AddressSpace.load_cap",
    "repro.hw.paging:AddressSpace.store_cap",
    "repro.hw.paging:AddressSpace.privatize_page",
    "repro.hw.paging:AddressSpace.map_run",
    "repro.hw.paging:AddressSpace.unmap_range",
    "repro.cheri.codec:CapabilityCodec.encode",
    "repro.cheri.codec:CapabilityCodec.decode",
    "repro.core.ufork:UForkOS.fork",
    # μFork's override runs the syscall gate check, then AbstractOS's
    "repro.core.ufork:UForkOS.syscall",
    "repro.core.strategies:handle_fork_fault",
    "repro.core.strategies:handle_fork_write_run",
    "repro.core.strategies:setup_shared_pages",
    "repro.core.strategies:resolve_all_pending",
    "repro.core.relocate:relocate_frame",
    "repro.core.relocate:relocate_frames",
    "repro.core.relocate:relocate_copied_frames",
    "repro.core.relocate:relocate_registers",
    "repro.kernel.base:AbstractOS.syscall",
    "repro.mem.allocator:GuestAllocator.malloc",
    "repro.mem.allocator:GuestAllocator.free",
    "repro.mem.allocator:GuestAllocator.attach_lazy",
    "repro.apps.guest:GuestContext.fork",
    "repro.apps.guest:GuestContext.exit",
    "repro.apps.guest:GuestContext.wait",
    "repro.apps.guest:GuestContext.syscall",
    "repro.apps.guest:GuestContext.malloc",
    "repro.apps.guest:GuestContext.free",
    "repro.apps.guest:GuestContext.load",
    "repro.apps.guest:GuestContext.store",
    "repro.apps.guest:GuestContext.load_cap",
    "repro.apps.guest:GuestContext.store_cap",
    "repro.apps.guest:GuestContext.read_bytes",
    "repro.apps.guest:GuestContext.write_bytes",
    "repro.apps.guest:GuestContext.send_bytes",
    "repro.apps.guest:GuestContext.recv_bytes",
    "repro.apps.guest:GuestContext.compute",
    "repro.apps.redis:MiniRedis.set",
    "repro.apps.redis:MiniRedis.get",
    "repro.apps.redis:MiniRedis.save_to",
    "repro.apps.redis:MiniRedis.bgsave",
    "repro.apps.redis:populate",
    "repro.apps.nginx:MiniNginx.serve_one",
    "repro.apps.nginx:MiniNginx.fork_workers",
    "repro.apps.nginx:WrkClient.issue",
    "repro.apps.nginx:WrkClient.complete",
    "repro.apps.faas:ZygoteRuntime.warm",
    "repro.apps.faas:ZygoteRuntime.handle_request",
    "repro.apps.unixbench:spawn",
    "repro.apps.unixbench:context1",
    "repro.obs.facade:Observability.count",
    "repro.obs.facade:Observability.gauge_set",
    "repro.obs.facade:Observability.observe",
    "repro.obs.facade:Observability.span",
    "repro.obs.facade:Observability.export",
    # the clock observer obs hooks in while enabled: where most obs
    # time goes, entered from whichever layer advanced the clock
    "repro.obs.facade:Observability._on_advance",
    "repro.sim:simulate_closed_workers",
    "repro.sim:simulate_fork_pipeline",
    "repro.conform.explorer:explore",
    "repro.conform.explorer:state_fingerprint",
    "repro.conform.invariants:check_invariants",
    "repro.conform.simrun:SimRun.run",
    "repro.sec.auditor:audit_cap_flow",
    "repro.smp.sched:SmpScheduler.pick_next",
    "repro.smp.sched:SmpScheduler.switch_to",
    "repro.smp.sched:SmpScheduler.yield_current",
    "repro.smp.ipi:tlb_shootdown",
    "repro.smp.locks:SpinLock.acquire",
    "repro.chaos.engine:ChaosEngine.should_fire",
    "repro.chaos.engine:ChaosEngine.syscall_fault",
    "repro.chaos.engine:ChaosEngine.note_recovery",
    "repro.chaos.engine:ChaosEngine.degrade_tiers",
    "repro.snapshot.engine:checkpoint",
    "repro.snapshot.engine:restore",
    "repro.snapshot.engine:restore_into",
    "repro.cluster.runner:run_cluster",
    "repro.cluster.migrate:migrate_worker",
    "repro.harness.experiments:fig3_redis_save",
    "repro.harness.experiments:fig4_redis_fork_latency",
    "repro.harness.experiments:fig5_redis_memory",
    "repro.harness.experiments:fig6_faas_throughput",
    "repro.harness.experiments:fig7_nginx_throughput",
    "repro.harness.experiments:fig8_hello_fork",
    "repro.harness.experiments:fig9_unixbench",
    "repro.harness.experiments:copa_ablation",
    "repro.harness.table1:table1_rows",
    "repro.harness.compat:matrix_rows",
    "repro.baselines.monolithic:MonolithicOS.fork",
    "repro.baselines.monolithic:MonolithicOS.syscall",
    "repro.baselines.vmclone:VMCloneOS.fork",
)


def layer_of(boundary: str) -> str:
    """``repro.<layer>[.module]:qualname`` → ``<layer>``."""
    return boundary.split(":", 1)[0].split(".")[1]


def resolve(boundary: str) -> Tuple[Any, str, Callable[..., Any]]:
    """Import ``boundary`` and return ``(owner, attribute, function)``.

    The function must be a plain function defined on ``owner`` itself
    (a module, or a class that does not merely inherit it), so that
    replacing the attribute replaces exactly this entry point.
    """
    module_name, qualname = boundary.split(":", 1)
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    fn = vars(owner).get(attr)
    if not inspect.isfunction(fn):
        raise LookupError(f"{boundary}: not a function defined on "
                          f"{owner!r}")
    if inspect.isgeneratorfunction(fn):
        raise LookupError(f"{boundary}: a generator runs after its "
                          f"wrapper returns, so it cannot be timed")
    return owner, attr, fn


class _BulkFamily:
    """Items handled by the bulk entries of one family vs its per-item
    entries, counted at the family's outermost call.  A bulk call that
    falls back to a per-item entry inside counts as per-item."""

    def __init__(self, bulk: Dict[str, Callable[[tuple], int]],
                 items: Tuple[str, ...]) -> None:
        self.bulk = bulk
        self.items = items
        self.depth = 0
        self.reset()

    def reset(self) -> None:
        self.outer: Tuple[str, int] = ("", 0)
        self.nested_items = 0
        self.bulk_count = 0
        self.item_count = 0

    def enter(self, key: str, args: tuple) -> None:
        if self.depth == 0:
            size = self.bulk[key](args) if key in self.bulk else 1
            self.outer = (key, size)
            self.nested_items = 0
        elif key in self.items:
            self.nested_items += 1
        self.depth += 1

    def exit(self) -> None:
        self.depth -= 1
        if self.depth == 0:
            key, size = self.outer
            if key in self.bulk and not self.nested_items:
                self.bulk_count += size
            else:
                self.item_count += size

    def share(self) -> float:
        total = self.bulk_count + self.item_count
        return self.bulk_count / total if total else 0.0


_COPY_FRAMES = "repro.hw.phys:PhysicalMemory.copy_frames"
_SYSCALL = "repro.kernel.base:AbstractOS.syscall"
_FAULT = "repro.core.strategies:handle_fork_fault"
_WRITE_RUN = "repro.core.strategies:handle_fork_write_run"
_EXPLORE = "repro.conform.explorer:explore"


class Tracer:
    """Wraps :data:`BOUNDARIES` and accumulates per-layer spans, timed
    with ``clock`` (the worker's stands still while its speed sampler
    runs)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        #: ``(owner, attribute, original)`` of every replaced binding
        self.installed: List[Tuple[Any, str, Callable[..., Any]]] = []
        # signature: (args,) -> items; args[0] is self for methods
        self.copies = _BulkFamily({_COPY_FRAMES: lambda a: len(a[1])},
                                  ("repro.hw.phys:PhysicalMemory.copy_frame",
                                   "repro.hw.phys:PhysicalMemory.cow_copy"))
        self.relocations = _BulkFamily(
            {"repro.core.relocate:relocate_frames": lambda a: len(a[1]),
             "repro.core.relocate:relocate_copied_frames":
                 lambda a: len(a[3])},
            ("repro.core.relocate:relocate_frame",))
        self.families = {key: family
                         for family in (self.copies, self.relocations)
                         for key in (*family.bulk, *family.items)}
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (call between ops only)."""
        self.stack: List[List[Any]] = []
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.entries = dict.fromkeys(BOUNDARIES, 0)
        #: time inside top-level spans; the rest of op time is ``bench``
        self.spanned_s = 0.0
        self.copy_pages = 0
        self.write_run_hits = 0
        self.schedules = 0
        self.copies.reset()
        self.relocations.reset()

    def metrics(self, op_s: float) -> Dict[str, float]:
        """Per-layer metrics for traced ops that took ``op_s`` in all.

        A layer's time is reported as its share of ``op_s``; its self
        seconds, ``self_s[layer]``, are that share times ``op_s``.
        """
        self.self_s["bench"] = max(0.0, op_s - self.spanned_s)
        out: Dict[str, float] = {}
        for layer in LAYERS:
            if layer != "bench":  # the driver has no spans to count
                out[f"{layer}.calls"] = self.calls[layer]
                out[f"{layer}.errors"] = self.errors[layer]
            out[f"{layer}.share"] = self.self_s[layer] / op_s
        copy_calls = self.entries[_COPY_FRAMES]
        write_runs = self.entries[_WRITE_RUN]
        out.update({
            "hw.copy_frames.pages_per_call":
                self.copy_pages / copy_calls if copy_calls else 0.0,
            "hw.bulk_copy_share": self.copies.share(),
            "core.relocate_bulk_share": self.relocations.share(),
            "core.fault.calls": self.entries[_FAULT],
            "core.write_run.calls": write_runs,
            "core.write_run.hit_ratio":
                self.write_run_hits / write_runs if write_runs else 0.0,
            "kernel.syscall.calls": self.entries[_SYSCALL],
            "conform.schedules": self.schedules,
        })
        return out

    def _span(self, layer: str, fn: Callable[..., Any], args: tuple,
              kwargs: dict) -> Any:
        stack = self.stack
        frame = [layer, 0.0]
        stack.append(frame)
        started = self.clock()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.errors[layer] += 1
            raise
        finally:
            elapsed = self.clock() - started
            stack.pop()
            self.calls[layer] += 1
            self.self_s[layer] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed
            else:
                self.spanned_s += elapsed

    def _wrap(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        layer = layer_of(key)
        family = self.families.get(key)
        counts_result = key in (_COPY_FRAMES, _WRITE_RUN, _EXPLORE)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer.entries[key] += 1
            if family is not None:
                family.enter(key, args)
            try:
                stack = tracer.stack
                if stack and stack[-1][0] == layer:
                    result = fn(*args, **kwargs)
                else:
                    result = tracer._span(layer, fn, args, kwargs)
            finally:
                if family is not None:
                    family.exit()
            if counts_result:
                tracer._count_result(key, result)
            return result

        return wrapper

    def _count_result(self, key: str, result: Any) -> None:
        if key == _COPY_FRAMES:
            self.copy_pages += len(result)
        elif key == _WRITE_RUN:
            self.write_run_hits += bool(result)
        else:
            self.schedules += result["schedules"]

    def install(self) -> None:
        """Wrap every boundary, on its owner and in every ``repro.*``
        module that bound the function with ``from ... import``."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        for key in BOUNDARIES:
            owner, attr, fn = resolve(key)
            wrapper = self._wrap(key, fn)
            self._replace(owner, attr, fn, wrapper)
            if not inspect.ismodule(owner):
                continue
            for name, module in list(sys.modules.items()):
                if module is owner or module is None or \
                        name.split(".")[0] != "repro":
                    continue
                for alias, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, alias, fn, wrapper)

    def _replace(self, owner: Any, attr: str, fn: Callable[..., Any],
                 wrapper: Callable[..., Any]) -> None:
        setattr(owner, attr, wrapper)
        self.installed.append((owner, attr, fn))

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, fn in reversed(self.installed):
            setattr(owner, attr, fn)
        self.installed.clear()


def metric_units() -> Dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    units = {}
    for name in [*Tracer().metrics(1.0), "trace.op_s", "trace.overhead"]:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith((".calls", ".errors", ".schedules")):
            units[name] = "count"
        elif name.endswith(".pages_per_call"):
            units[name] = "pages/call"
        else:
            units[name] = "ratio"
    return units
