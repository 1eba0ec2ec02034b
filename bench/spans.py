"""In-memory span tracing around calls into gravclock's modules.

Tracer.patch replaces a public function at the name its caller looks up
(for example solve_tau_max in the gravclock.sweep namespace) with a wrapper
that records a span: name, start, end, parent span and the id of the
invocation it belongs to. Spans stay in memory until the benchmark reads
them; patches are undone by Tracer.restore.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trace_id: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.trace_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        """fn wrapped to record a span; on_result(tracer, args, result) adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.trace_id)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def patch(self, module_name: str, attr: str, name: str, on_result=None) -> bool:
        """Wrap module.attr in place; False when the module or name is absent.

        The module comes from sys.modules, not attribute access: the package
        rebinds some attributes (gravclock.sweep is the function, not the
        module).
        """
        module = sys.modules.get(module_name)
        if module is None or not hasattr(module, attr):
            return False
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, on_result))
        return True

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def new_trace(self) -> None:
        """Later spans belong to a new invocation."""
        self.trace_id += 1


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - covered(kids) for span, kids in zip(spans, children)
    ]


def parse_importtime(stderr: str) -> list[tuple[str, int, int, int]]:
    """(module, depth, self_us, cumulative_us) rows of `python -X importtime`."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        label = fields[2]
        name = label.strip()
        depth = (len(label) - len(label.lstrip()) - 1) // 2
        rows.append((name, depth, int(fields[0]), int(fields[1])))
    return rows


def import_owners(rows, packages: tuple[str, ...]) -> dict[str, float]:
    """Import seconds owned by each package.

    A module belongs to the outermost listed package whose import pulled it
    in, so numpy modules that scipy imports count as scipy, and stdlib
    modules count for the package that imported them. The last package (the
    program itself) owns only what the others do not: its own modules and
    the stdlib they import, not numpy or scipy.
    """
    # importtime prints children before their parent, one level deeper.
    nodes = []
    pending: list[int] = []
    for name, depth, self_us, _ in rows:
        node = {"name": name, "depth": depth, "self": self_us, "children": []}
        while pending and nodes[pending[-1]]["depth"] > depth:
            node["children"].insert(0, pending.pop())
        nodes.append(node)
        pending.append(len(nodes) - 1)

    def package_of(name: str) -> str | None:
        for pkg in packages:
            if name == pkg or name.startswith(pkg + "."):
                return pkg
        return None

    totals = {pkg: 0.0 for pkg in packages}

    def walk(index: int, owner: str | None) -> None:
        node = nodes[index]
        mine = package_of(node["name"])
        if mine is not None and owner in (None, packages[-1]):
            owner = mine
        if owner is not None:
            totals[owner] += node["self"] * 1e-6
        for child in node["children"]:
            walk(child, owner)

    for root in pending:
        walk(root, None)
    return totals
