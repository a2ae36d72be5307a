"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each listed function by its module attribute
with a wrapper that records (name, start, end, parent, query) in memory;
``uninstall`` puts the originals back.  Callers inside the program look
these names up in their module's globals at call time, so the wrappers see
every call the query path makes.  A function that no longer exists is
reported as absent and simply not traced.
"""

from __future__ import annotations

import gzip
import importlib
from pathlib import Path
from time import perf_counter_ns

TRACED = (
    ("gsp.graphio", "load_graph"),
    ("gsp.graphio", "load_reach_cache"),
    ("gsp.reach", "compute_reachable_sets"),
    ("gsp.search", "build_heuristic"),
    ("gsp.search", "expand"),
    ("gsp.search", "rfastar_solve"),
    ("gsp.dp", "build_layers"),
    ("gsp.dp", "dp_solve"),
)


class Span:
    """One call: perf_counter_ns() bounds, the index of the enclosing span
    (-1 for none) and the id of the operation it served."""

    __slots__ = ("name", "start", "end", "parent", "query")

    def __init__(self, name: str, parent: int, query: str | None):
        self.name, self.parent, self.query = name, parent, query
        self.start = self.end = 0

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.query: str | None = None  # id shared by the spans of one operation
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        for mod_name, attr in TRACED:
            module = importlib.import_module(mod_name)
            if not hasattr(module, attr):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._originals.append((module, attr, getattr(module, attr)))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.query)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()

        return traced

    def install(self):
        for module, attr, fn in self._originals:
            name = f"{module.__name__.removeprefix('gsp.')}.{attr}"
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self):
        for module, attr, fn in self._originals:
            setattr(module, attr, fn)

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for span in self.spans:
            kids.setdefault(span.parent, []).append(span)
        return kids

    def write(self, path: Path):
        with gzip.open(path, "wt") as f:
            f.write("id\tname\tstart_ns\tend_ns\tparent\tquery\n")
            for i, s in enumerate(self.spans):
                f.write(f"{i}\t{s.name}\t{s.start}\t{s.end}\t{s.parent}\t{s.query}\n")
