"""Differential suite: observability reads the clock by difference and
exports what per-advance attribution exported.

Observability installs nothing on the :class:`~repro.clock.SimClock`.
Span self time is settled from the clock reading at every span open
and close, at ``disable`` and at every read of the root or an export;
``time.<bucket>`` is the clock's bucket minus its value when the
observation window opened, plus the windows ``disable`` closed.

:class:`Reference` is the older model, fed every advance: while
enabled, each advance lands in the innermost open span and, with a
bucket, in ``time.<bucket>``.  The one rule where the two differ is
pinned here: a bucket the clock already had when its window opened and
that is then charged only 0 ns while observed exports no
``time.<bucket>`` (a difference cannot see it); a bucket new since the
window opened exports even at 0 ns.

Random programs on a bare clock mix ``advance``, ``advance_to``,
``advance_planned`` and direct ``_now_ns``/``buckets`` charges (as the
paging fast paths make them) with nested spans, exports while spans
are open, ``enable``/``disable`` windows and ``reset``.
"""

from hypothesis import given, settings, strategies as st

from repro.clock import SimClock
from repro.obs import Observability

BUCKETS = ("fork_fixed", "page_copy", "mem_read", None)


class Reference:
    """Per-advance attribution, with the zero-charge rule above."""

    def __init__(self, clock):
        self.clock = clock
        self.enabled = False
        self.stack = []
        self.reset()

    def reset(self):
        self.counts, self.self_ns, self.time = {(): 0}, {(): 0}, {}
        self.known = set(self.clock.buckets)

    def enable(self):
        if not self.enabled:
            self.enabled, self.known = True, set(self.clock.buckets)

    def advance(self, ns, bucket):
        if not self.enabled:
            return
        path = tuple(self.stack)
        self.self_ns[path] = self.self_ns.get(path, 0) + ns
        if bucket is not None and (ns or bucket in self.time
                                   or bucket not in self.known):
            self.time[bucket] = self.time.get(bucket, 0) + ns

    def open(self, name):
        self.stack.append(name)
        path = tuple(self.stack)
        self.counts[path] = self.counts.get(path, 0) + 1
        self.self_ns.setdefault(path, 0)

    def spans(self):
        return {path: (count, self.self_ns[path])
                for path, count in self.counts.items()}

    def counters(self):
        return {"time." + bucket: ns for bucket, ns in self.time.items()}


def _flatten(node, path=(), into=None):
    """Exported span tree -> ``{path: (count, self_ns)}``."""
    into = {} if into is None else into
    into[path] = (node["count"], node["self_ns"])
    for child in node["children"]:
        _flatten(child, path + (child["name"],), into)
    return into


def _check(obs, ref):
    export = obs.export()
    assert export["metrics"]["counters"] == ref.counters()
    assert obs.registry.counters() == ref.counters()
    assert _flatten(export["spans"]) == ref.spans()
    assert export["spans"]["total_ns"] == obs.span_tree.root.total_ns


charge = st.tuples(st.sampled_from((0, 0, 1, 7, 250)),
                   st.sampled_from(BUCKETS))
op = st.one_of(
    st.tuples(st.just("advance"), charge),
    st.tuples(st.just("advance_to"), st.integers(-20, 300)),
    st.tuples(st.just("planned"),
              st.lists(st.tuples(st.sampled_from((0, 3, 40)),
                                 st.sampled_from(BUCKETS[:3])),
                       max_size=3)),
    st.tuples(st.just("direct"), charge),
    st.tuples(st.just("open"), st.sampled_from("abc")),
    st.tuples(st.just("close"), st.none()),
    st.tuples(st.just("export"), st.none()),
    st.tuples(st.just("enable"), st.none()),
    st.tuples(st.just("disable"), st.none()),
    st.tuples(st.just("reset"), st.none()),
)


def _run(program, charged_before, enabled):
    clock = SimClock()
    for bucket in charged_before:
        clock.advance(5, bucket)
    obs, ref = Observability(clock), Reference(clock)
    if enabled:
        obs.enable()
        ref.enable()
    spans = []  # (context manager, whether the reference opened it)
    for kind, arg in program:
        if kind == "advance":
            ns, bucket = arg
            clock.advance(ns, bucket)
            ref.advance(ns, bucket)
        elif kind == "advance_to":
            before = clock.now_ns
            clock.advance_to(before + arg)
            ref.advance(clock.now_ns - before, None)
        elif kind == "planned":
            clock.advance_planned(arg)
            for ns, bucket in arg:
                ref.advance(ns, bucket)
        elif kind == "direct":
            ns, bucket = arg
            clock._now_ns += ns
            if bucket is not None:
                clock.buckets[bucket] = clock.buckets.get(bucket, 0) + ns
            ref.advance(ns, bucket)
        elif kind == "open":
            span = obs.span(arg)
            span.__enter__()
            spans.append((span, ref.enabled))
            if ref.enabled:
                ref.open(arg)
        elif kind == "close" and spans:
            span, opened = spans.pop()
            span.__exit__(None, None, None)
            if opened:
                ref.stack.pop()
        elif kind == "export":
            _check(obs, ref)
        elif kind == "enable":
            obs.enable()
            ref.enable()
        elif kind == "disable":
            obs.disable()
            ref.enabled = False
        elif kind == "reset" and not ref.stack:
            obs.reset()
            ref.reset()
    _check(obs, ref)
    while spans:
        span, opened = spans.pop()
        span.__exit__(None, None, None)
        if opened:
            ref.stack.pop()
    _check(obs, ref)


@settings(max_examples=300, deadline=None)
@given(program=st.lists(op, max_size=40),
       charged_before=st.lists(st.sampled_from(BUCKETS[:3]), max_size=3),
       enabled=st.booleans())
def test_difference_matches_per_advance_attribution(program, charged_before,
                                                    enabled):
    _run(program, charged_before, enabled)


def test_zero_charge_exports_only_for_a_new_bucket():
    clock = SimClock()
    clock.advance(5, "fork_fixed")
    obs = Observability(clock).enable()
    clock.advance(0, "fork_fixed")
    clock.advance(0, "page_copy")
    # fork_fixed predates the window and moved by 0 ns: not exported;
    # page_copy is new since the window opened: exported at 0
    assert obs.registry.counters() == {"time.page_copy": 0}
    obs.disable()
    clock.advance(9, "page_copy")
    obs.enable()
    clock.advance(4, "fork_fixed")
    assert obs.registry.counters() == {"time.fork_fixed": 4,
                                       "time.page_copy": 0}


def test_export_with_spans_open_settles_the_innermost():
    clock = SimClock()
    obs = Observability(clock).enable()
    with obs.span("outer"):
        clock.advance(10, "fork_fixed")
        with obs.span("inner"):
            clock.advance(7)
            mid = obs.export()["spans"]
            clock._now_ns += 3
        assert obs.span_tree.node("outer.inner").self_ns == 10
    inner = mid["children"][0]["children"][0]
    assert (inner["name"], inner["self_ns"]) == ("inner", 7)
    assert mid["total_ns"] == 17
    assert obs.span_tree.root.total_ns == 20
