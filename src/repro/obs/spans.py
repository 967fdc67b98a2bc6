"""Span-based profiling of simulated time.

A span is a named ``with`` region; every nanosecond the
:class:`~repro.clock.SimClock` advances while a span is open is
attributed to the *innermost* open span as **self time**.  Spans nest
into a tree keyed by dotted paths (``syscall.fork`` →
``syscall.fork.copy_pages``), so one fork's cost decomposes exactly the
way the paper's cost model does: each node's total is its self time
plus its children's totals, and the root's total equals the clock time
elapsed while observation was on.

Usage::

    with obs.span("fork"):
        with obs.span("copy_pages"):
            machine.charge(640, "page_copy")   # -> fork.copy_pages self time
        machine.charge(100)                    # -> fork self time
    obs.span_tree.root.total_ns                # == 740
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple


class SpanNode:
    """One node of the span tree: aggregate stats for a dotted path."""

    __slots__ = ("name", "path", "count", "self_ns", "children",
                 "histogram")

    def __init__(self, name: str, path: str) -> None:
        self.name = name
        self.path = path
        #: number of times a span with this path was entered
        self.count = 0
        #: simulated ns attributed while this was the innermost open span
        self.self_ns = 0
        self.children: Dict[str, "SpanNode"] = {}
        #: the ``span.<path>`` histogram, bound by the obs facade on
        #: this node's first span exit
        self.histogram = None

    @property
    def total_ns(self) -> int:
        """Self time plus all descendants' time."""
        return self.self_ns + sum(
            child.total_ns for child in self.children.values()
        )

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            path = f"{self.path}.{name}" if self.path else name
            node = self.children[name] = SpanNode(name, path)
        return node

    def walk(self, depth: int = 0) -> Iterator[Tuple[int, "SpanNode"]]:
        """Depth-first (depth, node) traversal, children name-sorted."""
        yield depth, self
        for name in sorted(self.children):
            yield from self.children[name].walk(depth + 1)

    def export(self) -> Dict:
        """JSON-ready form (see docs/OBSERVABILITY.md)."""
        return {
            "name": self.name,
            "count": self.count,
            "self_ns": self.self_ns,
            "total_ns": self.total_ns,
            "children": [self.children[name].export()
                         for name in sorted(self.children)],
        }


class SpanTree:
    """The aggregate span tree plus the stack of currently open spans.

    The root node is anonymous: time that advances while *no* span is
    open lands in its self time, so the invariant ``root.total_ns ==
    observed clock time`` holds regardless of instrumentation coverage.
    """

    def __init__(self) -> None:
        self.root = SpanNode("", "")
        self._stack: List[SpanNode] = []

    # -- attribution (called from the clock observer) -------------------

    def attribute(self, ns: int) -> None:
        node = self._stack[-1] if self._stack else self.root
        node.self_ns += ns

    # -- open/close ------------------------------------------------------

    def open(self, name: str) -> SpanNode:
        parent = self._stack[-1] if self._stack else self.root
        node = parent.child(name)
        node.count += 1
        self._stack.append(node)
        return node

    def close(self, node: SpanNode) -> None:
        if not self._stack or self._stack[-1] is not node:
            raise RuntimeError(
                f"span {node.path!r} closed out of order")
        self._stack.pop()

    @property
    def depth(self) -> int:
        return len(self._stack)

    @property
    def current_path(self) -> str:
        return self._stack[-1].path if self._stack else ""

    def node(self, path: str) -> Optional[SpanNode]:
        """Look up a node by dotted path (None if never opened).

        Span *names* may themselves contain dots (``syscall.fork`` is
        one span), so resolution is longest-child-name-first rather
        than a naive split on every dot.
        """
        node = self.root
        remaining = path
        while remaining:
            exact = node.children.get(remaining)
            if exact is not None:
                return exact
            match = None
            for name, child in node.children.items():
                if remaining.startswith(name + ".") and (
                        match is None or len(name) > len(match[0])):
                    match = (name, child)
            if match is None:
                return None
            node = match[1]
            remaining = remaining[len(match[0]) + 1:]
        return node

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset span tree with open spans")
        self.root = SpanNode("", "")


def format_span_tree(root: SpanNode, total_label: str = "total") -> str:
    """Render a span tree as an indented plain-text breakdown."""
    lines = []
    grand_total = max(1, root.total_ns)
    for depth, node in root.walk():
        label = node.path or f"({total_label})"
        share = 100.0 * node.total_ns / grand_total
        lines.append(
            f"{'  ' * depth}{label:<{max(4, 44 - 2 * depth)}}"
            f"{node.total_ns / 1000.0:>12,.1f} us"
            f"{node.self_ns / 1000.0:>12,.1f} us"
            f"{node.count:>8}x"
            f"{share:>7.1f}%"
        )
    header = (f"{'span':<44}{'total':>15}{'self':>12}"
              f"{'count':>9}{'share':>8}")
    return "\n".join([header, "-" * len(header)] + lines)
