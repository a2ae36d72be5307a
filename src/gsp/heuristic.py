"""Admissible cost-to-go estimates.

The minimum fuel d(v) still to be burned from each vertex to the goal
(ignoring tank capacity and prices), times the global minimum price,
lower-bounds any completion cost once the fuel q already held is taken
off: h = max((d(v) - q) * c_min, 0).

d is computed lazily, one context per query.  A reach arc u -> goal holds
the exact shortest fuel from u to the goal, so the goal's column of the
reach graph (``ReachGraph.into``) gives d for every vertex within one tank
of the goal at no search cost.  Those are exactly the vertices a backward
Dijkstra from the goal would settle first.  The rest are settled by the
reach build's generator ``reach.dijkstra`` over the reversed edges, seeded
with the goal and its column and resumed on each ask until the vertex asked
for is settled (Resumable A*; Silver, "Cooperative Pathfinding", 2005).
h_for prices one state.  The search's loop over short reach rows applies
h_for's operations inline, on the same operands, and h_for stays the
reference the tests check that loop against.  h_row prices a whole reach
row for the search's vector pass with the same operations, and so the same
bits, reading d from a float64 copy of dist, converted once on the first
pass and then filled with the heads settled after it.

On dense graphs a second, price-aware term is taken as well:
h = max((d(v) - q) * c_min, H(v) - q * price(v), 0), where H(v) is the
least cost from v to the goal on an empty tank with no tank or stop limit.
It is admissible because the q units held replace units that would cost at
most price(v) each; a vertex that sells nothing keeps the first term.
With no tank, buying every unit at the cheapest station seen so far is
optimal (Lin, Gertsch and Russell, 2007; Khuller, Malekian and Mestre, "To
fill or not to fill", 2011), so, taking the selling vertices by increasing
price, H(v) = min(price(v) D(v, goal), min over strictly cheaper x of
price(v) D(v, x) + H(x)), D the all-pairs fuel before the cut at the tank.
``relaxed_costs`` builds H for every goal once per reach graph, which keeps
it as ``ReachGraph.relaxed_cost``.

Solvers build the context on a query's integral view of the reach graph
(``reach.integral``), where every fuel, the tank and every finite price is
a whole number.  The term is taken where the graph takes the reach build's
Floyd-Warshall and 2 * n * max fuel and the tank, times the largest price,
are below 2**53 (checked once per reach graph by ``relaxed_costs``), so
that every sum it forms is exact.  Elsewhere h is the first term, bit for
bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator
from functools import cached_property
from heapq import heapify

import numpy as np

from . import reach as reach_module
from .reach import ReachGraph, dijkstra


def _backward(goal: int, column: tuple[int | float, ...],
              pred: tuple[tuple[tuple[int, float], ...], ...]) -> Iterator[tuple[int, float]]:
    """Yield (v, d(v)) from the goal and its reach column, over pred.

    Seeds nothing before the first next().  It takes no context, so a
    context that holds it is freed by reference counting alone.
    """
    heap = [(0.0, goal), *zip(column[1::2], column[::2])]
    dist = [math.inf] * len(pred)
    for d, u in heap:
        dist[u] = d
    heapify(heap)
    yield from dijkstra(pred, heap, dist)


class HeuristicContext:
    """Distances to one goal, settled on demand; one per query, not shared.

    column is the goal's reach column (``ReachGraph.into[goal]``) and pred
    the graph's reversed edges.  dist[v] is d(v) once known (+inf when the
    goal is unreachable from v) and None before; the column is known from
    the start.  settled counts the vertices settle() settled beyond it.
    relaxed_row is the goal's row of ``ReachGraph.relaxed_cost``, read in
    place by h_row and h_for, or None when the price-aware term is not
    taken.  price is the graph's.
    """

    def __init__(self, goal: int, c_min: float, column: tuple[int | float, ...],
                 pred: tuple[tuple[tuple[int, float], ...], ...],
                 relaxed_row: np.ndarray | None, price: tuple[float, ...]):
        self.goal = goal
        self.c_min = c_min
        self.relaxed_row = relaxed_row
        self.price = price
        dist: list[float | None] = [None] * len(pred)
        dist[goal] = 0.0
        for u, d in zip(column[::2], column[1::2]):
            dist[u] = d
        self.dist = dist
        self.settled = 0
        self._search = _backward(goal, column, pred)

    def settle(self, v: int) -> float:
        """Continue the backward Dijkstra until v is settled; d(v).

        Stores and returns +inf when the goal cannot be reached from v.
        """
        dist = self.dist
        for u, d in self._search:
            if dist[u] is None:
                dist[u] = d
                self.settled += 1
                if u == v:
                    return d
        dist[v] = math.inf
        return math.inf

    @cached_property
    def dist_array(self) -> np.ndarray:
        """dist as a float64 array for ``h_row``, allocated by the query's
        first vector pass as a copy of dist with NaN for None.  Every entry
        is NaN or dist's; h_row copies the heads settled after that pass."""
        return np.array(self.dist, dtype=np.float64)

    @property
    def d_to_goal(self) -> tuple[float, ...]:
        """d for every vertex, settling all that remain."""
        for v, d in enumerate(self.dist):
            if d is None:
                self.settle(v)
        return tuple(self.dist)


def relaxed_costs(reach: ReachGraph) -> np.ndarray | None:
    """H for every goal, read-only: relaxed[t, v] is H(v) for goal t (0, and
    meaningless, where v sells nothing).  None where the graph fails the
    gate.  D is recomputed rather than kept, so succ stays the only arc list."""
    graph = reach.graph
    if not reach_module._use_floyd_warshall(graph):
        return None
    price = graph.price
    order = sorted((v for v, p in enumerate(price) if p < math.inf), key=price.__getitem__)
    sold = [price[v] for v in order]  # ascending
    fuel_max = max(d for _, _, d in graph.edges)
    if not (sold and max(2 * graph.n * fuel_max, reach.q_max) * sold[-1] < 2**53):
        return None
    fuel = reach_module._all_pairs_fuel(graph)
    cost = np.full((len(order), graph.n), math.inf)  # cost[i] is H[order[i]]
    for i, (v, p) in enumerate(zip(order, sold)):
        np.multiply(fuel[v], p, out=cost[i], where=fuel[v] < math.inf)  # no 0 * inf = nan
        cheaper = bisect_left(sold, p)  # the stations priced below p come first
        if cheaper:
            via = p * fuel[v, order[:cheaper], None] + cost[:cheaper]
            np.minimum(cost[i], via.min(axis=0), out=cost[i])
    relaxed = np.zeros((graph.n, graph.n))
    relaxed[:, order] = cost.T
    relaxed.setflags(write=False)
    return relaxed


def build_heuristic(reach: ReachGraph, goal: int) -> HeuristicContext:
    """Context for one query, seeded with the goal's reach column.

    c_min is the least finite price of a non-goal vertex, read off
    ``FuelGraph.cheapest`` (prices are non-negative or +inf), or 0 when every
    non-goal vertex is non-refuellable, which makes the estimate the trivial
    (still admissible) zero heuristic.
    """
    c_min = next((p for p, v in reach.graph.cheapest if v != goal), math.inf)
    if math.isinf(c_min):
        c_min = 0.0
    relaxed = reach.relaxed_cost
    return HeuristicContext(goal, c_min, reach.into[goal], reach.graph.pred,
                            None if relaxed is None else relaxed[goal], reach.graph.price)


def h_for(ctx: HeuristicContext, v: int, q: float) -> float:
    """Estimate for being at v with q fuel; +inf if the goal is unreachable."""
    d = ctx.dist[v]
    if d is None:
        d = ctx.settle(v)
    if math.isinf(d):
        return math.inf
    if ctx.relaxed_row is None or ctx.price[v] == math.inf:
        return max((d - q) * ctx.c_min, 0.0)
    return max((d - q) * ctx.c_min, ctx.relaxed_row.item(v) - q * ctx.price[v], 0.0)


def h_row(ctx: HeuristicContext, heads: np.ndarray, q: np.ndarray,
          price: np.ndarray) -> np.ndarray:
    """h_for(ctx, heads[i], q[i]) for every i, bit for bit, as an array.

    heads are distinct vertices and price[i] is the price of heads[i]; every
    price must be finite, but the goal's may be any finite number, since
    its h is 0 at every price.  Settles the heads whose d is unknown in
    their order in heads, as the same h_for calls would.
    """
    known = ctx.dist_array
    d = known[heads]
    unknown = np.isnan(d).nonzero()[0]
    if unknown.size:
        dist, settle = ctx.dist, ctx.settle
        new = heads[unknown]
        d[unknown] = known[new] = [settle(v) if dist[v] is None else dist[v]
                                   for v in new.tolist()]
    h = d - q
    np.multiply(h, ctx.c_min, out=h, where=h < math.inf)  # +inf stays: no inf * 0 = nan
    if ctx.relaxed_row is not None:
        np.maximum(h, ctx.relaxed_row[heads] - q * price, out=h)
    return np.maximum(h, 0.0, out=h)
