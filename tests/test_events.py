"""The event table (:mod:`repro.events`) is the one place an
instrumentation event is named.

Every ``Machine.emit`` call under ``src/`` passes a table entry: no
``counter=``/``metric=`` keyword and no str or f-string event.  Every
declared obs name satisfies the naming contract, and no obs metric is
declared twice.
"""

import ast
from pathlib import Path

from repro import events
from repro.machine import Machine
from repro.obs import check_metric_name

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _own_method_calls(tree):
    """``self.m(...)`` calls inside a class that defines ``m`` itself
    (the conformance runners' own ``emit``/``_emit``)."""
    skip = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            methods = {item.name for item in cls.body
                       if isinstance(item, ast.FunctionDef)}
            for node in ast.walk(cls):
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        isinstance(node.func.value, ast.Name) and \
                        node.func.value.id == "self" and \
                        node.func.attr in methods:
                    skip.add(id(node))
    return skip


def emit_violations(tree):
    """``(line, reason)`` for every emit call that names its event
    outside the table; also returns how many emit calls were seen."""
    skip = _own_method_calls(tree)
    found, seen = [], 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in skip:
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) \
            else getattr(func, "id", None)
        if name not in ("emit", "_emit"):
            continue
        seen += 1
        for keyword in node.keywords:
            if keyword.arg in ("counter", "metric"):
                found.append((node.lineno, f"{keyword.arg}= keyword"))
        if not node.args:
            found.append((node.lineno, "no event entry"))
        elif isinstance(node.args[0], ast.JoinedStr) or (
                isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            found.append((node.lineno, "str event"))
    return found, seen


def test_every_emit_in_src_passes_a_table_entry():
    violations, seen = [], 0
    for path in sorted(SRC.rglob("*.py")):
        found, count = emit_violations(ast.parse(path.read_text()))
        seen += count
        violations += [(str(path.relative_to(SRC)), line, reason)
                       for line, reason in found]
    assert violations == []
    assert seen > 60  # the scan really reaches the emit sites


def test_the_guard_catches_each_old_form():
    source = '''
machine.emit("fork", counter="fork")
machine.emit(f"{kind}_rollback")
phys._emit(n=3, metric="hw.phys.frames_freed")
machine.emit(events.FORK)

class Runner:
    def emit(self, *event):
        pass

    def run(self):
        self.emit("err", "wait")
'''
    found, seen = emit_violations(ast.parse(source))
    assert seen == 4
    assert sorted(found) == [
        (2, "counter= keyword"), (2, "str event"), (3, "str event"),
        (4, "metric= keyword"), (4, "no event entry")]


def test_declared_metrics_pass_the_contract_and_are_unique():
    # one member of each family, as the first emit would declare it
    events.SYSCALL_NAMED["getpid"]
    events.PAGE_FAULT["cap_load"]
    events.COW_BREAK["coa", "child", "exec"]
    events.CHAOS_INJECTED["smp.ipi.drop"]
    events.CHAOS_RECOVERED["smp.ipi.drop"]
    events.LOCK_ACQUIRE["fault"]
    events.IPI_KIND["tlb_shootdown"]
    metrics = [entry.metric for entry in events.EVENTS
               if entry.metric is not None]
    traces = {entry.trace_metric for entry in events.EVENTS
              if entry.trace_metric is not None}
    for name in [*metrics, *traces]:
        assert check_metric_name(name) == name
    assert len(metrics) == len(set(metrics))
    assert not traces & set(metrics)


def test_a_family_declares_each_key_once():
    first = events.SYSCALL_NAMED["getppid"]
    assert events.SYSCALL_NAMED["getppid"] is first
    assert first.counter == "syscall_getppid"
    assert events.EVENTS.count(first) == 1


def test_obs_counts_only_while_enabled_and_rebinds_after_reset():
    machine = Machine()
    obs = machine.obs
    machine.emit(events.FORK)
    assert obs.registry.counters() == {}
    obs.enable()
    machine.emit(events.FORK)
    machine.charge(5, "fork_fixed")
    obs.reset()
    machine.emit(events.FORK, 2)
    machine.charge(7, "fork_fixed")
    assert obs.registry.counters() == {
        "core.ufork.forks": 2, "time.fork_fixed": 7, "trace.fork": 2}
    obs.disable()
    machine.emit(events.FORK)
    assert obs.registry.counters()["core.ufork.forks"] == 2
    assert machine.counters.get("fork") == 5
