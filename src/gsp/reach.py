"""Refuel-graph preprocessing.

For every vertex this computes the set of vertices reachable on one full
tank together with the minimum fuel needed, by running one Dijkstra per
source truncated at the tank capacity.  The search and the DP baseline both
run on this derived graph, so the cost is paid once per (graph, capacity)
pair and can be cached on disk.

``ReachGraph.succ`` is the only stored copy of the arcs.  The DP reads them
through ``ReachGraph.arrays``, a CSR view built on first use and kept with
the graph, so every later query on the same reach graph gets it for free;
``distance`` is a binary search in the sorted arc list of the tail.  Every
solver and checker gets its reach graph from ``reach_for``, which builds
one for the instance or rejects one built for another graph or tank.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .core import FuelGraph, Instance

_HEAD = itemgetter(0)  # the arc head of a (v, d) entry in succ


class ReachArrays(NamedTuple):
    """CSR form of ReachGraph.succ: the arcs of u are indptr[u]:indptr[u + 1].

    nbr and dist hold each arc's head and fuel, src its tail; all are
    ordered as succ is.
    """

    indptr: np.ndarray
    nbr: np.ndarray
    dist: np.ndarray
    src: np.ndarray


@dataclass(frozen=True)
class ReachGraph:
    """Tankful transitions: arcs (u -> v, d) with 0 < d <= q_max.

    d is the unconstrained shortest fuel distance from u to v.  succ[u]
    holds the arcs out of u as (v, d) pairs sorted by v; it is the only
    stored arc list, and ``arrays`` and ``distance`` both read it.  graph
    is the graph the arcs were built from.
    """

    graph: FuelGraph = field(repr=False)
    q_max: float
    succ: tuple[tuple[tuple[int, float], ...], ...]

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def arrays(self) -> ReachArrays:
        """The arcs as flat numpy arrays, built on first use.

        Not a field, so equality and repr still compare and show succ only.
        """
        counts = np.fromiter(map(len, self.succ), dtype=np.int64, count=self.n)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        m = int(indptr[-1])
        nbr = np.fromiter((v for entries in self.succ for v, _ in entries),
                          dtype=np.int64, count=m)
        dist = np.fromiter((d for entries in self.succ for _, d in entries),
                           dtype=np.float64, count=m)
        src = np.repeat(np.arange(self.n, dtype=np.int64), counts)
        return ReachArrays(indptr, nbr, dist, src)

    def distance(self, u: int, v: int) -> float | None:
        """Minimum fuel from u to v, or None when it exceeds the tank."""
        row = self.succ[u]
        i = bisect_left(row, v, key=_HEAD)
        if i < len(row) and row[i][0] == v:
            return row[i][1]
        return None

    def edge_count(self) -> int:
        return sum(len(s) for s in self.succ)


def _truncated_dijkstra(graph: FuelGraph, source: int, q_max: float) -> list[tuple[int, float]]:
    dist: dict[int, float] = {source: 0.0}
    heap: list[tuple[float, int]] = [(0.0, source)]
    out: list[tuple[int, float]] = []
    done: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        if d > q_max:
            break  # all remaining entries are at least this far
        done.add(u)
        if u != source:
            out.append((u, d))
        for v, w in graph.succ[u]:
            nd = d + w
            if nd <= q_max and nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    out.sort()
    return out


def compute_reachable_sets(graph: FuelGraph, q_max: float) -> ReachGraph:
    """Build the refuel graph for a tank capacity.

    A settled vertex whose distance exceeds q_max is discarded and never
    expanded.  Empty reach sets are valid (capacity below the smallest edge
    fuel yields an edgeless refuel graph).
    """
    if not (0 < q_max < math.inf):
        raise ValueError("q_max must be finite and positive")
    succ = tuple(tuple(_truncated_dijkstra(graph, u, q_max)) for u in range(graph.n))
    return ReachGraph(graph, float(q_max), succ)


def reach_for(inst: Instance, reach: ReachGraph | None = None) -> ReachGraph:
    """The refuel graph an instance is solved or checked on.

    Builds it when reach is None.  A reach graph passed in must have been
    built from the instance's graph (the same object or an equal one) and
    tank capacity, since arcs of another graph or a larger tank would let a
    schedule use roads that do not exist or overfill the tank; otherwise
    ValueError.
    """
    if reach is None:
        return compute_reachable_sets(inst.graph, inst.q_max)
    if not (reach.graph is inst.graph or reach.graph == inst.graph):
        raise ValueError("reach graph built for a different graph")
    if reach.q_max != inst.q_max:
        raise ValueError(f"reach graph built for tank {reach.q_max:g}, "
                         f"but the instance has tank {inst.q_max:g}")
    return reach
