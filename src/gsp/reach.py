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

``ReachGraph.succ`` is the only stored copy of the arcs.  Three views are
built on first use and kept with the graph, so every later query on the
same reach graph gets them for free: the DP reads ``ReachGraph.table``,
the part of its state table that no query decides (the levels, fill-up
costs, fill-up arcs and deficit arcs as if there were no goal), built from
the CSR arrays ``ReachGraph.arrays``, which are not kept; the heuristic
reads the goal's column of ``ReachGraph.into``, the arcs into each vertex,
and on dense integral graphs the goal's row of ``ReachGraph.relaxed_cost``,
the least cost to the goal with no tank or stop limit, which reruns the
Floyd-Warshall closure rather than keep its matrix.  ``distance`` is a
binary search in the sorted arc list of the tail.  Every solver and
checker gets its reach graph from ``reach_for``, which builds one for the
instance or rejects one built for another graph or tank.
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


class TableArrays(NamedTuple):
    """The part of the DP's state table that no query decides.

    The levels, fill-ups and deficit arcs as if there were no goal and no
    initial fuel; ``dp._Table`` derives a query's table from them.  Arrays
    of one length and type are stacked, so that a reach graph keeps few
    array objects and a query gathers each stack at once.

    States are (vertex, level) pairs numbered in (v, q) order.  The levels
    of v are 0 and q_max - d for every arc u -> v of fuel d whose tail is
    strictly cheaper, on which a stop fills the tank.  Per state s:
    states[0] is the vertex v and levels[0] the level q; levels[1] is
    (q_max - q) * price[v], the cost of filling up in s.  The moves out of s
    that buy d - q are the states[1] deficit arcs of v with d > q, from
    entry states[2] on (below).  There are none where v sells nothing.

    Per vertex v, each a range in the array it names: ptr[0] the states of
    v (offset), ptr[1] the fill-up arcs into v, ptr[2] the deficit arcs of
    v and ptr[3] the column arcs into v; v's range is ptr[k][v]:ptr[k][v +
    1].  Fill-up arc i leaves vertex fills[0][i] and lands in state
    fills[1][i]; the arcs are ordered by landing state.

    Every other arc is a deficit arc.  Those of u are sorted by fuel, with
    heads deficit_head and fuels deficit_dist; both end with one spare
    entry, so that the entry just past any run can be read.

    The column arcs are the arcs whose tail sells, by head, with tails
    column_tail.  Were the head the goal, such an arc u -> v of fuel d
    would buy d - q from every level q of u in [column[0], column[1]],
    where column[1] is d: all levels up to d where u is cheaper than v
    (column[0] is -inf), else only a level equal to d, since the deficit
    run of u covers the levels below d.  price holds each vertex's price.
    """

    price: np.ndarray
    ptr: np.ndarray
    states: np.ndarray
    levels: np.ndarray
    fills: np.ndarray
    deficit_head: np.ndarray
    deficit_dist: np.ndarray
    column_tail: np.ndarray
    column: np.ndarray


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

    @property
    def arrays(self) -> ReachArrays:
        """The arcs as flat numpy arrays, built anew on each use.

        Only the DP table's base reads them, once per reach graph, so they
        are not kept.  Not a field, so equality and repr still compare and
        show succ only.
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
    def table(self) -> TableArrays:
        """The DP table's goal-independent part, built on the first DP query.

        Every query on the same reach graph reads it and none may write to
        it, so its arrays are read-only.  Not a field, like arrays.
        """
        n, q_max = self.n, self.q_max
        _, nbr, dist, src = self.arrays
        vertex = np.arange(n + 1)
        price = np.asarray(self.graph.price, dtype=np.float64)
        sells = price < math.inf
        # The purchase rule fills the tank on an arc to a dearer vertex,
        # unless it is the goal.
        cheaper = price[src] < price[nbr]

        # Levels: {0} everywhere and the fill-up arrivals (dp.gas_values).
        fill = cheaper.nonzero()[0]
        cand_v = np.concatenate((vertex[:n], nbr[fill]))
        cand_q = np.concatenate((np.zeros(n), q_max - dist[fill]))
        rep, cand_state = distinct_levels(cand_v, cand_q)
        state_v, state_q = cand_v[rep], cand_q[rep]
        offset = state_v.searchsorted(vertex)
        fill_dst = cand_state[n:]
        by_dst = fill_dst.argsort(kind="stable")
        fill_dst = fill_dst[by_dst]

        deficit = (~cheaper).nonzero()[0]
        deficit = deficit[np.lexsort((dist[deficit], src[deficit]))]
        deficit_ptr = src[deficit].searchsorted(vertex)
        run_end = deficit_ptr[state_v + 1]
        deficits = (run_end - deficit_ptr[state_v]
                    - _at_most(dist[deficit], deficit_ptr, state_v, state_q)) * sells[state_v]
        column = sells[src].nonzero()[0]
        column = column[nbr[column].argsort(kind="stable")]
        return TableArrays(*map(_read_only, (
            price,
            np.array([offset, fill_dst.searchsorted(offset), deficit_ptr,
                      nbr[column].searchsorted(vertex)]),
            np.array([state_v, deficits, run_end - deficits]),
            np.array([state_q, (q_max - state_q) * price[state_v]]),
            np.array([src[fill][by_dst], fill_dst]),
            np.append(nbr[deficit], 0), np.append(dist[deficit], 0.0),
            src[column], np.array([np.where(cheaper[column], -math.inf, dist[column]),
                                   dist[column]]))))

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

    @cached_property
    def relaxed_cost(self) -> np.ndarray | None:
        """Least cost to every goal with no tank and no stop limit, built on
        first use; None where that bound is not taken.

        relaxed_cost[t, v] is H[v][t], the cost of driving from v to t on an
        empty tank when the tank holds any amount and any number of stops
        may be made.  Buying every unit at the cheapest station seen so far
        is then optimal (Lin, Gertsch and Russell 2007; Khuller, Malekian and
        Mestre 2011), so taking the selling vertices by increasing price,
        H[v] = min(p_v D[v], min over strictly cheaper x of p_v D[v, x] + H[x]),
        where D is the all-pairs fuel before the cut at the tank.  D is
        recomputed here rather than kept, so succ stays the only stored arc
        list.  Row t is the goal t's column of H, so a query reads one row;
        the entries of vertices that sell nothing are 0 and mean nothing.

        Taken only where every sum is an exact integer: the graph takes the
        Floyd-Warshall build, every finite price and the tank are integers,
        and 2 * n * max fuel and the tank, times the largest price, are
        below 2**53.  Not a field, like arrays.
        """
        graph = self.graph
        if not (self.q_max.is_integer() and _use_floyd_warshall(graph)):
            return None
        price = graph.price
        order = sorted((v for v, p in enumerate(price) if p < math.inf), key=price.__getitem__)
        sold = [price[v] for v in order]  # ascending
        fuel_max = max(d for _, _, d in graph.edges)
        if not (sold and all(map(float.is_integer, sold))
                and max(2 * graph.n * fuel_max, self.q_max) * sold[-1] < 2**53):
            return None
        fuel = _all_pairs_fuel(graph)
        cost = np.full((len(order), graph.n), math.inf)  # cost[i] is H[order[i]]
        for i, (v, p) in enumerate(zip(order, sold)):
            np.multiply(fuel[v], p, out=cost[i], where=fuel[v] < math.inf)  # no 0 * inf = nan
            cheaper = bisect_left(sold, p)  # the stations priced below p come first
            if cheaper:
                via = p * fuel[v, order[:cheaper], None] + cost[:cheaper]
                np.minimum(cost[i], via.min(axis=0), out=cost[i])
        relaxed = np.zeros((graph.n, graph.n))
        relaxed[:, order] = cost.T
        return relaxed

    def distance(self, u: int, v: int) -> float | None:
        """Minimum fuel from u to v, or None when it exceeds the tank."""
        row = self.succ[u]
        i = bisect_left(row, v, key=_HEAD)
        if i < len(row) and row[i][0] == v:
            return row[i][1]
        return None

    def edge_count(self) -> int:
        return sum(len(s) for s in self.succ)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def distinct_levels(cand_v: np.ndarray, cand_q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (vertex, level) candidates, in (v, q) order with exact
    float equality.

    Returns (rep, state): state i is candidate rep[i], the first of its
    equals, and candidate j is state state[j].
    """
    order = np.lexsort((cand_q, cand_v))  # stable, so the first of equals leads
    sorted_v, sorted_q = cand_v[order], cand_q[order]
    first = np.empty(len(order), dtype=bool)
    first[0] = True
    first[1:] = (sorted_v[1:] != sorted_v[:-1]) | (sorted_q[1:] != sorted_q[:-1])
    state = np.empty(len(order), dtype=np.int64)
    state[order] = first.cumsum() - 1
    return order[first], state


def _at_most(values: np.ndarray, ptr: np.ndarray, run: np.ndarray, x: np.ndarray) -> np.ndarray:
    """For every i, how many entries of the sorted run values[ptr[r]:ptr[r + 1]],
    r = run[i], are at most x[i].

    The values and the queries are ranked together, so that (run, rank) is
    one exact integer key, sorted over the values; one search then counts.
    """
    _, rank = np.unique(np.concatenate((values, x)), return_inverse=True)
    span = len(rank)  # above every rank
    keys = np.arange(len(ptr) - 1).repeat(np.diff(ptr)) * span + rank[:len(values)]
    return keys.searchsorted(run * span + rank[len(values):], "right") - ptr[run]


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
