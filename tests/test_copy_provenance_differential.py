"""Copy provenance against the same runs with every held check missing.

:meth:`PhysicalMemory.copy_frames` skips the data and tag stores of a
joint run whose destinations already hold what it would write (their
provenance names the same sources, source versions and context, and
their versions have not moved since).  Here two sessions run the same
drawn sequence — FULL_COPY and CoPA forks of one parent, parent writes
(``write``, span writes across pages, ``store_cap``,
``clear_tags_range``, ``store_granules``), child writes before exit,
exits and waits, re-forks, all under an optional chaos mix of
``hw.phys.tag_clear`` and ``hw.phys.alloc_fail`` — one of them with
:meth:`PhysicalMemory._holds` made to miss, so it writes every page.
After every step both must hold the same bytes, tags, versions and
refcounts in every bank, at the same simulated time and counters.
"""

import hashlib

from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.apps.hello import hello_world_image
from repro.chaos import ChaosEngine, FaultMix
from repro.cheri.codec import CAP_SIZE
from repro.core.strategies import CopyStrategy
from repro.errors import SimError

PAGE = 4096
#: the parent's heap buffer the writes land in: the first
#: :data:`TAGGED` pages hold capabilities into it, the rest none
HEAP_PAGES = 6
TAGGED = 3
#: live children at most; a fork beyond them is skipped
CHILDREN = 3
MIXES = (None, "hw.phys.tag_clear=0.3",
         "hw.phys.tag_clear=0.2,hw.phys.alloc_fail=0.05")

offsets = st.integers(0, HEAP_PAGES * PAGE - 1)
ops = st.one_of(
    st.tuples(st.just("fork"), st.booleans()),
    st.tuples(st.just("write"), offsets, st.integers(1, 64)),
    st.tuples(st.just("span"), offsets, st.integers(PAGE, 3 * PAGE)),
    st.tuples(st.just("store_cap"), offsets),
    st.tuples(st.just("clear_tags"), st.integers(0, HEAP_PAGES - 1),
              st.integers(0, PAGE), st.integers(0, PAGE)),
    st.tuples(st.just("granules"), offsets, st.integers(1, 4),
              st.integers(0, 15)),
    st.tuples(st.just("child_write"), offsets, st.integers(1, 2 * PAGE)),
    st.tuples(st.just("exit"),),
)


class _Side:
    """One session: a parent with a heap buffer, its live children."""

    def __init__(self, mix, chaos_seed, held):
        self.session = Session(strategy="full", cpus=1, seed=7).boot()
        self.machine = self.session.machine
        if not held:
            self.machine.phys._holds = lambda *args: False
        self.parent = self.session.spawn(hello_world_image(), "parent")
        self.heap = self.parent.malloc(HEAP_PAGES * PAGE)
        for granule in range(0, TAGGED * PAGE, 5 * CAP_SIZE):
            self.parent.store_cap(self.heap, self.heap, granule)
        self.children = []
        if mix is not None:
            ChaosEngine(seed=chaos_seed,
                        mix=FaultMix.parse(mix)).attach(self.machine)

    def apply(self, op):
        """Run one step; its result, or the raised error's type and
        message."""
        try:
            return self._apply(op)
        except SimError as error:
            return type(error).__name__, str(error)

    def _apply(self, op):
        kind = op[0]
        space = self.parent.space
        base = self.heap.base
        if kind == "fork":
            if len(self.children) >= CHILDREN:
                return None
            self.session.os.copy_strategy = (
                CopyStrategy.FULL_COPY if op[1] else CopyStrategy.COPA)
            child = self.parent.fork()
            self.children.append(child)
            return child.pid
        if kind == "write":
            _, offset, size = op
            size = min(size, HEAP_PAGES * PAGE - offset)
            space.write(base + offset, bytes([size % 251]) * size)
        elif kind == "span":
            _, offset, size = op
            size = min(size, HEAP_PAGES * PAGE - offset)
            space.write(base + offset, bytes(range(256)) * (size // 256)
                        + b"\x5a" * (size % 256))
        elif kind == "store_cap":
            offset = op[1] - op[1] % CAP_SIZE
            space.store_cap(base + offset, self.heap)
        elif kind == "clear_tags":
            _, page, lo, hi = op
            frame = space.frame_of(base // PAGE + page)
            self.machine.phys.clear_tags_range(frame, min(lo, hi),
                                               max(lo, hi))
        elif kind == "granules":
            _, offset, count, tags = op
            offset -= offset % CAP_SIZE
            count = min(count, (HEAP_PAGES * PAGE - offset) // CAP_SIZE)
            space.store_granules(
                base + offset, bytes(range(count * CAP_SIZE)),
                bytes((tags >> bit) & 1 for bit in range(count)))
        elif kind == "child_write":
            if not self.children:
                return None
            _, offset, size = op
            child = self.children[-1]
            size = min(size, HEAP_PAGES * PAGE - offset)
            delta = child.proc.region_base - self.parent.proc.region_base
            child.space.write(base + delta + offset, b"\xc3" * size)
        elif self.children:
            child = self.children.pop()
            child.exit(0)
            return self.parent.wait(child.pid)
        return None

    def state(self):
        """Every bank's bytes (digested) and tags, the version and
        refcount columns, the clock and the counters."""
        phys = self.machine.phys
        data = hashlib.blake2b()
        for view in phys._data_views:
            data.update(view)
        return (data.digest(), b"".join(phys._tag_banks),
                phys._versions.tobytes(), phys._refcounts.tobytes(),
                self.machine.clock.now_ns, self.machine.counters.snapshot())


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(ops, min_size=1, max_size=16),
       mix=st.sampled_from(MIXES), chaos_seed=st.integers(0, 2 ** 16))
def test_held_copies_match_copies_that_always_write(steps, mix, chaos_seed):
    held = _Side(mix, chaos_seed, held=True)
    written = _Side(mix, chaos_seed, held=False)
    assert held.state() == written.state()
    # first a fork whose child writes a relocated heap page, then two
    # re-forks: the first finds all but that page's destination holding
    # what it writes, the second all but the untagged page the parent
    # wrote before it
    prefix = [("fork", True), ("child_write", 5 * CAP_SIZE, 8), ("exit",),
              ("fork", True), ("exit",), ("write", TAGGED * PAGE, 8),
              ("fork", True)]
    for op in prefix + steps:
        assert held.apply(op) == written.apply(op), op
        assert held.state() == written.state(), op
