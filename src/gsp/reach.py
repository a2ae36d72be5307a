"""Refuel-graph preprocessing.

For every vertex this computes the set of vertices reachable on one full
tank together with the minimum fuel needed.  The search, its heuristic and
the DP baseline all run on this derived graph, so the cost is paid once per
(graph, capacity) pair and can be cached on disk.

There are two builds with the same output.  A dense graph whose fuels are
integers is closed under all-pairs shortest fuel by one numpy Floyd-Warshall
and cut at the tank; every other graph runs ``dijkstra``, the package's one
fuel Dijkstra, from each source up to the tank.  ``_use_floyd_warshall``
picks between them from the vertex count, the arc count and the fuels only:
Floyd-Warshall does n^3 cell updates whatever the tank, so it pays only
when the graph has enough vertices to amortise numpy's per-pass cost and
enough arcs that a Dijkstra per source relaxes many of them.  Its sums are
exact integers below 2^53, so its rows equal the Dijkstra rows bit for bit;
decimal fuels would round differently in the two orders of addition and
always take Dijkstra.

``ReachGraph.succ`` is the only stored copy of the arcs.  Views that a
query reads are built on first use and kept with the graph, so every later
query on the same reach graph gets them for free: the heuristic reads the
goal's column of ``ReachGraph.into``, the arcs into each vertex, and the
goal's row of ``ReachGraph.relaxed_cost``, which ``heuristic`` builds;
``ReachGraph.table`` keeps the DP's goal-independent table, which ``dp``
builds.  ``distance`` is a binary search in the sorted arc list of the
tail.  Every solver and checker gets its reach graph from ``reach_for``,
which builds one for the instance or rejects one built for another graph
or tank.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np

from .core import FuelGraph, Instance

if TYPE_CHECKING:
    from .dp import TableArrays

_HEAD = itemgetter(0)  # the arc head of a (v, d) entry in succ


@dataclass(frozen=True)
class ReachGraph:
    """Tankful transitions: arcs (u -> v, d) with 0 < d <= q_max.

    d is the unconstrained shortest fuel distance from u to v.  succ[u]
    holds the arcs out of u as (v, d) pairs sorted by v; it is the only
    stored arc list, and every view and ``distance`` read it.  graph is the
    graph the arcs were built from.  The views are cached properties, not
    fields, so equality and repr still compare and show succ only.
    """

    graph: FuelGraph = field(repr=False)
    q_max: float
    succ: tuple[tuple[tuple[int, float], ...], ...]

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def table(self) -> TableArrays:
        """The DP's goal-independent table (``dp.base_table``), built on the
        first DP query and kept, read-only, with the graph."""
        from .dp import base_table
        return base_table(self)

    @cached_property
    def into(self) -> tuple[tuple[int | float, ...], ...]:
        """The arcs into each vertex, built on first use.

        into[v] is one flat tuple (u0, d0, u1, d1, ...) of the tails u and
        fuels d of the arcs u -> v, tails in increasing order.  The d are
        the float objects of succ, so nothing is copied.
        """
        cols: list = [[] for _ in range(self.n)]
        for u, row in enumerate(self.succ):
            for v, d in row:
                cols[v] += (u, d)
        for v, col in enumerate(cols):
            cols[v] = tuple(col)  # frees each list as soon as it is copied
        return tuple(cols)

    @cached_property
    def relaxed_cost(self) -> np.ndarray | None:
        """The heuristic's bound H (``heuristic.relaxed_costs``), built on the
        first query that takes it and kept; None where it is not taken."""
        from .heuristic import relaxed_costs
        return relaxed_costs(self)

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


# The Floyd-Warshall build is taken from _FW_MIN_N vertices, where numpy's
# fixed cost per pass is paid back, and when at least one arc in
# _FW_CELLS_PER_ARC of the n * n possible ones exists.  Fitted on random
# directed graphs with fuels 1..10 and tanks of 8, 16 and 32 (CHANGES.md);
# sparse graphs, road grids and graphs of a few vertices keep Dijkstra.  The
# floor on arcs also bounds the n x n matrix and its one temporary by
# 16 * _FW_CELLS_PER_ARC = 256 bytes per arc, about what the graph holds.
_FW_MIN_N = 64
_FW_CELLS_PER_ARC = 16


def _use_floyd_warshall(graph: FuelGraph) -> bool:
    """True when the Floyd-Warshall build is the faster one and exact.

    Exact: every fuel is an integer and 2 * n * max fuel < 2**53, so every
    sum it forms (two paths of at most n - 1 arcs) is an exact float.
    """
    n, m = graph.n, len(graph.edges)
    if n < _FW_MIN_N or n * n > _FW_CELLS_PER_ARC * m:
        return False
    fuels = [d for _, _, d in graph.edges]
    return all(map(float.is_integer, fuels)) and 2 * n * max(fuels) < 2**53


def _all_pairs_fuel(graph: FuelGraph) -> np.ndarray:
    """The n x n matrix of least fuel from u to v, by Floyd-Warshall.

    Not cut at any tank; the diagonal is 0 and unreachable pairs are +inf.
    Exact when _use_floyd_warshall holds.
    """
    n = graph.n
    fuel = np.full((n, n), math.inf)
    if graph.edges:
        tails, heads, fuels = zip(*graph.edges)
        fuel[tails, heads] = fuels
    np.fill_diagonal(fuel, 0.0)
    for k in range(n):
        np.minimum(fuel, fuel[:, k, None] + fuel[k], out=fuel)
    return fuel


def _build_by_floyd_warshall(graph: FuelGraph, q_max: float) -> ReachGraph:
    """All-pairs least fuel by Floyd-Warshall, cut at q_max.  Equal to
    _build_by_dijkstra when _use_floyd_warshall holds."""
    fuel = _all_pairs_fuel(graph)
    np.fill_diagonal(fuel, math.inf)  # no self arcs
    rows = []
    for row in fuel:
        heads = np.flatnonzero(row <= q_max)
        rows.append(tuple(zip(heads.tolist(), row[heads].tolist())))
    return ReachGraph(graph, float(q_max), tuple(rows))


def _build_by_dijkstra(graph: FuelGraph, q_max: float) -> ReachGraph:
    """Row u holds every vertex other than u that a Dijkstra from u
    truncated at q_max settles, with its fuel distance."""
    rows = []
    dist = [math.inf] * graph.n
    for u in range(graph.n):
        dist[u] = 0.0
        found = dijkstra(graph.succ, [(0.0, u)], dist, q_max)
        next(found)  # u itself, settled first at fuel 0
        row = tuple(sorted(found))  # by head; heads are distinct
        rows.append(row)
        # Every vertex pushed is within q_max and so is settled: u and the
        # row are the only entries this run set, and resetting them leaves
        # dist all +inf for the next source.
        dist[u] = math.inf
        for v, _ in row:
            dist[v] = math.inf
    return ReachGraph(graph, float(q_max), tuple(rows))


def compute_reachable_sets(graph: FuelGraph, q_max: float) -> ReachGraph:
    """Build the refuel graph for a tank capacity.

    Row u holds every vertex v != u whose least fuel from u is at most
    q_max, with that fuel, sorted by v.  Empty reach sets are valid
    (capacity below the smallest edge fuel yields an edgeless refuel graph).
    """
    if not (0 < q_max < math.inf):
        raise ValueError("q_max must be finite and positive")
    if _use_floyd_warshall(graph):
        return _build_by_floyd_warshall(graph, q_max)
    return _build_by_dijkstra(graph, q_max)


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
