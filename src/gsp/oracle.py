"""Brute-force ground truth for small integral instances.

Deliberately independent of the fill-up / fill-enough rule: routes are
enumerated exhaustively as walks in the refuel graph (revisits allowed)
and each fixed route is priced by a dynamic program over integer fuel
levels that considers every purchase amount.  Costs coming out of here are
what the optimised solvers are tested against.

Only integral fuel data is accepted: the fixed-route relaxation then has
an integral optimal vertex, so the integer-state DP is exact.  Prices may
be any non-negative reals, short decimals such as 1.1 included: one DP
both prices a route and reconstructs its schedule, choosing each purchase
from the same float values it minimised.  The reported cost is the
schedule's own, summed stop by stop.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from time import perf_counter

from .core import Infeasible, Instance, SearchStats, Solution, SolveTimeout
from .reach import ReachGraph, reach_for

MAX_VERTICES = 10
MAX_STOPS = 5
MAX_TANK = 50


class InstanceTooLarge(ValueError):
    """The guarded brute-force solver refuses instances of this size."""


class NonIntegralInput(ValueError):
    """Exact enumeration requires integral fuel quantities."""


@dataclass(frozen=True)
class Route:
    """A walk of refuel-graph hops from start to goal.

    All vertices except the last are potential stops; hop_fuels[i] is the
    minimum fuel for vertices[i] -> vertices[i+1].
    """

    vertices: tuple[int, ...]
    hop_fuels: tuple[float, ...]


def _check_integral(inst: Instance):
    if not float(inst.q_max).is_integer():
        raise NonIntegralInput(f"q_max {inst.q_max} is not integral")
    if not float(inst.q0).is_integer():
        raise NonIntegralInput(f"q0 {inst.q0} is not integral")
    for u, v, d in inst.graph.edges:
        if not float(d).is_integer():
            raise NonIntegralInput(f"edge ({u}, {v}) fuel {d} is not integral")


def _check_size(inst: Instance):
    if inst.graph.n > MAX_VERTICES:
        raise InstanceTooLarge(f"{inst.graph.n} vertices exceed the guard {MAX_VERTICES}")
    if inst.k_max > MAX_STOPS:
        raise InstanceTooLarge(f"k_max {inst.k_max} exceeds the guard {MAX_STOPS}")
    if inst.q_max > MAX_TANK:
        raise InstanceTooLarge(f"q_max {inst.q_max} exceeds the guard {MAX_TANK}")


def enumerate_goal_routes(inst: Instance, reach: ReachGraph, start: int | None = None):
    """Yield every walk of at most k_max hops from start to the goal.

    start defaults to inst.start.  Walks may revisit vertices, including
    the goal; a walk is yielded each time its tip sits on the goal.  Walks
    are cut at non-refuellable vertices because no purchase, and therefore
    no further hop, is possible there.
    """
    origin = inst.start if start is None else start
    price = inst.graph.price
    verts: list[int] = [origin]
    fuels: list[float] = []

    def walk():
        tip = verts[-1]
        if tip == inst.goal and fuels:
            yield Route(tuple(verts), tuple(fuels))
        if len(fuels) == inst.k_max or math.isinf(price[tip]):
            return
        for v2, d in reach.succ[tip]:
            verts.append(v2)
            fuels.append(d)
            yield from walk()
            verts.pop()
            fuels.pop()

    yield from walk()


def _cost_layers(route: Route, inst: Instance, f0: int) -> list[list[float]]:
    """Minimal cost by fuel level after each hop of the route.

    layers[0] is the start (f0 fuel at no cost) and layers[-1] the goal, by
    arrival fuel.  One DP pass per hop over integer fuel levels 0..q_max.
    At each stop any purchase amount a >= 0 keeping the tank within
    capacity is allowed; cur[f] - f*c is prefix-minimised so each hop costs
    O(q_max).  A hop longer than the tank leaves every later level at +inf.
    """
    q_cap = int(inst.q_max)
    inf = math.inf
    cur = [inf] * (q_cap + 1)
    cur[f0] = 0.0
    layers = [cur]
    for i, d in enumerate(route.hop_fuels):
        c = inst.graph.price[route.vertices[i]]
        if not math.isfinite(c):
            raise ValueError("route stops must all be refuellable")
        di = int(d)
        best = inf
        prefix = [inf] * (q_cap + 1)
        for f in range(q_cap + 1):
            val = cur[f] - f * c
            if val < best:
                best = val
            prefix[f] = best
        nxt = [inf] * (q_cap + 1)
        for f2 in range(q_cap - di + 1):
            base = prefix[f2 + di]
            if base < inf:
                nxt[f2] = (f2 + di) * c + base
        cur = nxt
        layers.append(cur)
    return layers


def route_min_cost(route: Route, inst: Instance) -> float | Infeasible:
    """Exact minimum cost of a fixed route over all integral schedules."""
    _check_integral(inst)
    if any(d > inst.q_max for d in route.hop_fuels):
        return Infeasible()
    best = min(_cost_layers(route, inst, int(inst.q0))[-1])
    return best if math.isfinite(best) else Infeasible()


def _route_amounts(route: Route, inst: Instance, layers: list[list[float]]) -> tuple[list[float], list[float]]:
    """Read one optimal purchase schedule back from the route's cost layers.

    Takes the least goal fuel among the cheapest, then, hop by hop from the
    goal, the least fuel before the stop that minimises layers[i][f] - f*c,
    the expression the forward pass minimised, so the choice is exact.
    """
    goal = layers[-1]
    state = goal.index(min(goal))
    arrivals = [float(state)]
    amounts = []
    for i in range(len(route.hop_fuels) - 1, -1, -1):
        c = inst.graph.price[route.vertices[i]]
        after = state + int(route.hop_fuels[i])
        vals = [layers[i][f] - f * c for f in range(after + 1)]
        state = vals.index(min(vals))
        amounts.append(float(after - state))
        arrivals.append(float(state))
    amounts.reverse()
    arrivals.reverse()
    return amounts, arrivals


def brute_force_solve(
    inst: Instance,
    *,
    reach: ReachGraph | None = None,
    deadline: float | None = None,
) -> Solution | Infeasible:
    """Global optimum by exhausting routes; guarded to stay desk-sized.

    Routes are all goal walks of at most k_max hops, plus, when the tank
    starts non-empty, walks whose first hop is a free coast on the initial
    fuel (those use k_max + 1 hops but still at most k_max purchases).
    """
    _check_size(inst)
    _check_integral(inst)
    reach = reach_for(inst, reach)
    if inst.start == inst.goal:
        return Solution.build(reach, [inst.start], [], [inst.q0], 0.0)

    stats = SearchStats()
    t0 = perf_counter()
    f0 = int(inst.q0)
    # (cost, route, the part of it priced by the DP, that part's cost layers)
    best: tuple[float, Route, Route, list[list[float]]] | None = None

    def consider(route: Route, coast: float = 0.0):
        """Price route; a coast > 0 makes its first hop free on the initial fuel."""
        nonlocal best
        priced = Route(route.vertices[1:], route.hop_fuels[1:]) if coast else route
        layers = _cost_layers(priced, inst, f0 - int(coast))
        cost = min(layers[-1])
        if math.isfinite(cost) and (best is None or cost < best[0]):
            best = (cost, route, priced, layers)

    checked = 0
    for route in enumerate_goal_routes(inst, reach):
        consider(route)
        checked += 1
        if deadline is not None and checked % 256 == 0 and perf_counter() > deadline:
            stats.search_time = perf_counter() - t0
            raise SolveTimeout(stats)

    if f0 > 0:
        d_direct = reach.distance(inst.start, inst.goal)
        if d_direct is not None and d_direct <= f0:
            consider(Route((inst.start, inst.goal), (d_direct,)), d_direct)
        for x, d in reach.succ[inst.start]:
            if d > f0 or x == inst.goal or math.isinf(inst.graph.price[x]):
                continue
            for sub in enumerate_goal_routes(inst, reach, start=x):
                consider(Route((inst.start,) + sub.vertices, (d,) + sub.hop_fuels), d)

    if best is None:
        return Infeasible()
    _, route, priced, layers = best
    amounts, arrivals = _route_amounts(priced, inst, layers)
    if priced is not route:  # the first hop was a free coast
        amounts = [0.0] + amounts
        arrivals = [float(f0)] + arrivals
    # The schedule's own cost, summed stop by stop as validate_solution and
    # the label search do; the DP's value can differ from it in the last bit.
    cost = 0.0
    for v, amount in zip(route.vertices, amounts):
        if amount > 0.0:
            cost += amount * inst.graph.price[v]
    return Solution.build(reach, route.vertices, amounts, arrivals, cost)


def completion_costs(inst: Instance) -> dict[tuple[int, int, int], float]:
    """Optimal cost-to-go for every (vertex, fuel, stops-remaining) state.

    A single Dijkstra over the explicit integer state space, moving on raw
    graph edges (free when the tank covers them) and buying any positive
    integer amount at finitely priced vertices.  Entirely independent of
    both the refuel-graph preprocessing and the purchase rule, which makes
    it the reference for heuristic admissibility.
    """
    _check_size(inst)
    _check_integral(inst)
    g = inst.graph
    q_cap = int(inst.q_max)
    k_cap = inst.k_max

    # States are (vertex, fuel, stops still available); the Dijkstra runs
    # from the goal over reversed moves, so values are forward costs-to-go.
    dist: dict[tuple[int, int, int], float] = {}
    heap: list[tuple[float, int, int, int]] = []
    for f in range(q_cap + 1):
        for k in range(k_cap + 1):
            dist[(inst.goal, f, k)] = 0.0
            heapq.heappush(heap, (0.0, inst.goal, f, k))

    while heap:
        c, v, f, k = heapq.heappop(heap)
        if c > dist.get((v, f, k), math.inf):
            continue
        # Reverse of a coast: some u drove an edge (u -> v) spending d.
        for u, d in g.pred[v]:
            fu = f + int(d)
            if fu <= q_cap and c < dist.get((u, fu, k), math.inf):
                dist[(u, fu, k)] = c
                heapq.heappush(heap, (c, u, fu, k))
        # Reverse of a purchase: the pre-buy state had a less fuel and one
        # more stop in its budget.
        if k + 1 <= k_cap and math.isfinite(g.price[v]):
            for a in range(1, f + 1):
                cand = c + a * g.price[v]
                key = (v, f - a, k + 1)
                if cand < dist.get(key, math.inf):
                    dist[key] = cand
                    heapq.heappush(heap, (cand, v, f - a, k + 1))
    return dist
