"""Property-based fd-table conformance.

Hypothesis generates random single-process fd programs — pipe
creation, writes, reads, closes and dup2 aliasing — constrained just
enough to never block (reads never exceed the bytes available unless
EOF is guaranteed), then runs each on the simulated kernel under all
four fork strategies *and* on the real host kernel, diffing the
traces.  The generator deliberately produces EBADF and EPIPE paths:
errno parity is part of the property.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.conform.dsl import Scenario, diff_traces
from repro.conform.host import run_host
from repro.conform.simrun import run_sim
from repro.harness.matrix import CONFORM_STRATEGIES

MAX_PIPES = 3
MAX_DUPS = 2


class _ModelFd:
    """What a tag points at: a (pipe, direction) or the closed sentinel."""

    def __init__(self, pipe: str, writable: bool) -> None:
        self.pipe = pipe
        self.writable = writable


class _Model:
    """Logical pipe state mirrored from the op stream, used only to
    keep generated programs non-blocking."""

    def __init__(self) -> None:
        self.ops = []
        self.tags = {}      # tag -> _ModelFd | None (closed)
        self.avail = {}     # pipe -> buffered byte count

    def pipe_names(self):
        return sorted(self.avail)

    def writers(self, pipe: str) -> int:
        return sum(1 for fd in self.tags.values()
                   if fd is not None and fd.pipe == pipe and fd.writable)

    def readers(self, pipe: str) -> int:
        return sum(1 for fd in self.tags.values()
                   if fd is not None and fd.pipe == pipe and not fd.writable)

    def mk_pipe(self, index: int) -> None:
        name = f"p{index}"
        if name in self.avail:
            return
        self.ops.append(("pipe", name))
        self.avail[name] = 0
        self.tags[name + ".r"] = _ModelFd(name, writable=False)
        self.tags[name + ".w"] = _ModelFd(name, writable=True)

    def write(self, tag: str, n: int) -> None:
        fd = self.tags.get(tag)
        self.ops.append(("write", tag, "x" * n))
        if fd is not None and fd.writable and self.readers(fd.pipe):
            self.avail[fd.pipe] += n
        # closed tag -> EBADF event; read end -> EBADF; no readers ->
        # EPIPE: all observable, none blocking

    def read(self, tag: str, n: int) -> bool:
        fd = self.tags.get(tag)
        if fd is None or fd.writable:
            self.ops.append(("read", tag, n))   # EBADF event
            return True
        avail = self.avail[fd.pipe]
        if avail == 0 and self.writers(fd.pipe):
            return False                        # would block: skip
        take = min(n, avail) if avail else n    # avail==0 -> clean EOF
        self.ops.append(("read", tag, take))
        self.avail[fd.pipe] = avail - min(take, avail)
        return True

    def close(self, tag: str) -> None:
        self.ops.append(("close", tag))
        self.tags[tag] = None

    def dup2(self, src: str, dst: str) -> None:
        fd = self.tags.get(src)
        if fd is None:
            # dup2 from a closed tag is just an EBADF event; the
            # destination is untouched
            self.ops.append(("dup2", src, dst))
            return
        self.ops.append(("dup2", src, dst))
        self.tags[dst] = _ModelFd(fd.pipe, fd.writable)


_ACTION = st.one_of(
    st.tuples(st.just("pipe"), st.integers(0, MAX_PIPES - 1)),
    st.tuples(st.just("write"), st.integers(0, MAX_PIPES - 1),
              st.booleans(), st.integers(1, 6)),
    st.tuples(st.just("read"), st.integers(0, MAX_PIPES - 1),
              st.booleans(), st.integers(1, 6)),
    st.tuples(st.just("close"), st.integers(0, MAX_PIPES - 1),
              st.booleans()),
    st.tuples(st.just("dup2"), st.integers(0, MAX_PIPES - 1),
              st.booleans(), st.integers(0, MAX_DUPS - 1)),
)


def build_scenario(actions) -> Scenario:
    model = _Model()
    model.mk_pipe(0)
    for action in actions:
        kind = action[0]
        if kind == "pipe":
            model.mk_pipe(action[1])
            continue
        pipes = model.pipe_names()
        pipe = pipes[action[1] % len(pipes)]
        if kind == "write":
            model.write(pipe + (".w" if action[2] else ".r"), action[3])
        elif kind == "read":
            model.read(pipe + (".r" if action[2] else ".w"), action[3])
        elif kind == "close":
            model.close(pipe + (".w" if action[2] else ".r"))
        else:  # dup2
            src = pipe + (".w" if action[2] else ".r")
            model.dup2(src, f"d{action[3]}")
    return Scenario("fd-prop", {"main": tuple(model.ops) + (("exit", 0),)})


@settings(max_examples=12, deadline=None)
@given(st.lists(_ACTION, min_size=1, max_size=14))
def test_fd_programs_match_host(actions):
    scenario = build_scenario(actions)
    reference = run_host(scenario)
    for strategy in CONFORM_STRATEGIES:
        trace, _meta = run_sim(scenario, strategy=strategy, num_cpus=1,
                               seed=1)
        diffs = diff_traces(trace, reference)
        assert not diffs, (
            f"[{strategy}] fd program diverges from host:\n"
            + "\n".join(diffs) + f"\nops: {scenario.bodies['main']}")
