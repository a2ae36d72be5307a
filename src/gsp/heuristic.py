"""Admissible cost-to-go estimates.

An exhaustive backward Dijkstra from the goal over edge fuel (ignoring tank
capacity and prices) gives the minimum fuel d(v) still to be burned from
each vertex.  Multiplying the unavoidable purchase d(v) - q by the global
minimum price then lower-bounds any completion cost.  The search builds
one context per query.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .core import FuelGraph


@dataclass(frozen=True)
class HeuristicContext:
    goal: int
    d_to_goal: tuple[float, ...]
    c_min: float


def build_heuristic(graph: FuelGraph, goal: int) -> HeuristicContext:
    """Backward Dijkstra from the goal; c_min over finite non-goal prices.

    Vertices that cannot reach the goal get distance +inf.  When every
    non-goal vertex is non-refuellable, c_min degenerates to 0 so the
    estimate becomes the trivial (still admissible) zero heuristic.
    """
    dist = [math.inf] * graph.n
    dist[goal] = 0.0
    heap: list[tuple[float, int]] = [(0.0, goal)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for u, w in graph.pred[v]:
            nd = d + w
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    finite_prices = [p for v, p in enumerate(graph.price) if v != goal and math.isfinite(p)]
    c_min = min(finite_prices) if finite_prices else 0.0
    return HeuristicContext(goal=goal, d_to_goal=tuple(dist), c_min=c_min)


def h_for(ctx: HeuristicContext, v: int, q: float) -> float:
    """Estimate for being at v with q fuel; +inf if the goal is unreachable."""
    d = ctx.d_to_goal[v]
    if math.isinf(d):
        return math.inf
    return max((d - q) * ctx.c_min, 0.0)
