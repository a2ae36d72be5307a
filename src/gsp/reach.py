"""Refuel-graph preprocessing.

For every vertex this computes the set of vertices reachable on one full
tank together with the minimum fuel needed, by running ``dijkstra``, the
package's one fuel Dijkstra, from each source up to the tank capacity.  The
search, its heuristic and the DP baseline all run on this derived graph, so
the cost is paid once per (graph, capacity) pair and can be cached on disk.

``ReachGraph.succ`` is the only stored copy of the arcs.  Two views of it
are built on first use and kept with the graph, so every later query on
the same reach graph gets them for free: the DP reads the CSR arrays
``ReachGraph.arrays``, and the heuristic reads the goal's column of
``ReachGraph.into``, the arcs into each vertex.  ``distance`` is a binary
search in the sorted arc list of the tail.  Every solver and checker gets
its reach graph from ``reach_for``, which builds one for the instance or
rejects one built for another graph or tank.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
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
    stored arc list, and ``arrays``, ``into`` and ``distance`` all read it.
    graph is the graph the arcs were built from.
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

    @cached_property
    def into(self) -> tuple[tuple[int | float, ...], ...]:
        """The arcs into each vertex, built on first use.

        into[v] is one flat tuple (u0, d0, u1, d1, ...) of the tails u and
        fuels d of the arcs u -> v, tails in increasing order.  The d are
        the float objects of succ, so nothing is copied.  Not a field, like
        arrays.
        """
        cols: list = [[] for _ in range(self.n)]
        for u, row in enumerate(self.succ):
            for v, d in row:
                cols[v] += (u, d)
        for v, col in enumerate(cols):
            cols[v] = tuple(col)  # frees each list as soon as it is copied
        return tuple(cols)

    def distance(self, u: int, v: int) -> float | None:
        """Minimum fuel from u to v, or None when it exceeds the tank."""
        row = self.succ[u]
        i = bisect_left(row, v, key=_HEAD)
        if i < len(row) and row[i][0] == v:
            return row[i][1]
        return None

    def edge_count(self) -> int:
        return sum(len(s) for s in self.succ)


def dijkstra(adj: tuple[tuple[tuple[int, float], ...], ...], heap: list[tuple[float, int]],
             dist: list[float], limit: float = math.inf) -> Iterator[tuple[int, float]]:
    """Lazy Dijkstra over fuel on an adjacency list of (v, w) pairs.

    Seeded with heap, (fuel, vertex) pairs in heap order, and dist, the least
    fuel found so far to each vertex (+inf for none).  Yields (v, fuel) as
    each vertex is settled, updating both in place; nothing beyond limit is
    pushed, so nothing beyond it is settled.
    """
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        yield u, d
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v] and nd <= limit:
                dist[v] = nd
                heappush(heap, (nd, v))


def shortest_fuel(
    adj: tuple[tuple[tuple[int, float], ...], ...],
    source: int,
    limit: float = math.inf,
) -> tuple[list[float], list[int]]:
    """Dijkstra over fuel from source, run to completion.

    Returns (dist, settled): dist[v] is the least fuel from source to v, or
    +inf when that exceeds limit or v cannot be reached; settled lists the
    vertices within limit in the order they were settled, source first.
    """
    dist = [math.inf] * len(adj)
    dist[source] = 0.0
    settled = [v for v, _ in dijkstra(adj, [(0.0, source)], dist, limit)]
    return dist, settled


def compute_reachable_sets(graph: FuelGraph, q_max: float) -> ReachGraph:
    """Build the refuel graph for a tank capacity.

    Row u holds every vertex other than u that a Dijkstra from u truncated
    at q_max settles, with its fuel distance.  Empty reach sets are valid
    (capacity below the smallest edge fuel yields an edgeless refuel graph).
    """
    if not (0 < q_max < math.inf):
        raise ValueError("q_max must be finite and positive")
    rows = []
    for u in range(graph.n):
        dist = [math.inf] * graph.n
        dist[u] = 0.0
        found = dijkstra(graph.succ, [(0.0, u)], dist, q_max)
        next(found)  # u itself, settled first at fuel 0
        rows.append(tuple(sorted(found)))  # by head; heads are distinct
    return ReachGraph(graph, float(q_max), tuple(rows))


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
