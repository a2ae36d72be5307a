"""Dynamic-programming baseline.

Forward table A(v, k, q): minimal cost to travel from the start to v,
arriving with fuel level q after exactly k refuelling stops.  The fuel
levels a vertex can be reached with are finite because every purchase
either tops the tank (arrival q_max - d) or covers the hop exactly
(arrival 0), so each level set is bounded by the refuel-graph in-degree
plus one.  The answer is the minimum over k of A(goal, k, 0).

The state table is built with numpy array operations over the reach
graph's CSR arrays (``ReachGraph.arrays``), not Python lists: the level
sets are one lexsort-and-deduplicate over candidate (v, q) pairs, and the
transitions are every state repeated over its vertex's out-arcs, filtered
and priced by the purchase rule as masks.  Each layer is then one gather,
one add and one unbuffered scatter-minimum (``np.minimum.at``) into the
destination states.  The naive method determines every cell of every
layer, which is what the state counter reports; ``gas_values`` is the
per-vertex reference for the level sets.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

from .core import FuelGraph, Infeasible, Instance, SearchStats, Solution, SolveTimeout
from .reach import ReachGraph, reach_for


def gas_values(reach: ReachGraph, graph: FuelGraph, v: int, goal: int | None = None) -> list[float]:
    """Admissible arrival fuel levels at v.

    {0} plus q_max - d for every reach predecessor u with a strictly
    cheaper price (the fill-up arrivals).  The goal only ever sees empty
    arrivals.  A pure-Python reference for the level sets that _Table
    builds from ``ReachGraph.arrays``: it finds the arcs into v by looking
    up every tail with ``reach.distance``, so it shares no code with _Table.
    """
    if v == goal:
        return [0.0]
    vals = {0.0}
    pv = graph.price[v]
    for u in range(reach.n):
        d = reach.distance(u, v)
        if d is not None and graph.price[u] < pv:
            vals.add(reach.q_max - d)
    return sorted(vals)


class _Table:
    """Flattened state space and transition arrays for one instance.

    States are (vertex, admissible fuel level) pairs numbered in (v, q)
    order: state_v and state_q hold each state's vertex and level, and the
    states of v are offset[v]:offset[v + 1].  Transition i leaves state
    src[i], buys amount[i] for cost[i], burns hop[i] and lands in dst[i];
    transitions are ordered by src.  initial holds the states that cost
    nothing: the start, then the free-coast arrivals.
    """

    def __init__(self, inst: Instance, reach: ReachGraph):
        g = inst.graph
        n, start, goal, q_max, q0 = g.n, inst.start, inst.goal, inst.q_max, inst.q0
        indptr, nbr, dist, tail = reach.arrays
        price = np.asarray(g.price, dtype=np.float64)

        # Fill-up arcs: the next stop is pricier, so the tank is topped and
        # the arrival level is q_max - d.  The goal only sees empty arrivals.
        tail_price = price[tail]
        into_goal = nbr == goal
        fill = (tail_price < price[nbr]) & ~into_goal
        fill_arcs = fill.nonzero()[0]
        # Initial fuel adds states the purchase rule alone cannot reach: the
        # start level itself and every free-coast arrival.
        lo, hi = indptr[start], indptr[start + 1]
        coasts = lo + ((dist[lo:hi] <= q0) & ~into_goal[lo:hi]).nonzero()[0]

        # Candidate levels, deduplicated in (v, q) order with exact float
        # equality: {0} everywhere, the fill-up arrivals (gas_values), the
        # start level and the coasts.
        cand_v = np.concatenate((np.arange(n), nbr[fill_arcs], [start], nbr[coasts]))
        cand_q = np.concatenate((np.zeros(n), q_max - dist[fill_arcs], [q0], q0 - dist[coasts]))
        order = np.lexsort((cand_q, cand_v))
        sorted_v, sorted_q = cand_v[order], cand_q[order]
        first = np.empty(len(order), dtype=bool)
        first[0] = True
        first[1:] = (sorted_v[1:] != sorted_v[:-1]) | (sorted_q[1:] != sorted_q[:-1])
        cand_state = np.empty(len(order), dtype=np.int64)
        cand_state[order] = first.cumsum() - 1
        self.state_v = sorted_v[first]
        self.state_q = sorted_q[first]
        self.size = len(self.state_v)
        self.offset = self.state_v.searchsorted(np.arange(n + 1))
        self.initial = cand_state[n + len(fill_arcs):]
        # The state each arc lands in: its fill-up level or empty.
        landing = self.offset[nbr]
        landing[fill_arcs] = cand_state[n:n + len(fill_arcs)]

        # Expand every state that can buy fuel (not the goal, finite price)
        # by its vertex's out-arcs, then keep the moves the purchase rule
        # allows: into the goal with d >= q (buy d - q), fill up with
        # q < q_max (buy q_max - q), otherwise d > q (buy the deficit d - q).
        buys = np.isfinite(price)
        buys[goal] = False
        movers = buys[self.state_v].nonzero()[0]
        u = self.state_v[movers]
        degree = indptr[u + 1] - indptr[u]
        src = movers.repeat(degree)
        # Each state's run of arcs starts at its vertex's first arc.
        arc = np.arange(len(src)) + (indptr[u] - (degree.cumsum() - degree)).repeat(degree)
        q = self.state_q[src]
        d = dist[arc]
        is_fill = fill[arc]
        keep = np.where(is_fill, q < q_max, np.where(into_goal[arc], d >= q, d > q)).nonzero()[0]
        src, arc, q, d, is_fill = src[keep], arc[keep], q[keep], d[keep], is_fill[keep]
        self.src = src
        self.dst = landing[arc]
        self.amount = np.where(is_fill, q_max - q, d - q)
        self.cost = self.amount * tail_price[arc]
        self.hop = d

    def state(self, v: int, q: float) -> int:
        lo, hi = int(self.offset[v]), int(self.offset[v + 1])
        i = lo + int(self.state_q[lo:hi].searchsorted(q))
        if i == hi or self.state_q[i] != q:
            raise KeyError((v, q))
        return i

    def vertex_of(self, state: int) -> int:
        return int(self.state_v[state])

    def fuel_of(self, state: int) -> float:
        return float(self.state_q[state])


def build_layers(
    inst: Instance,
    reach: ReachGraph,
    *,
    deadline: float | None = None,
) -> tuple[_Table, list[np.ndarray]]:
    """Relax k_max layers and return (table, [A_0 .. A_kmax]).

    Past the deadline, raises SolveTimeout with the states of the layers
    relaxed so far.
    """
    table = _Table(inst, reach)
    base = np.full(table.size, math.inf)
    base[table.initial] = 0.0
    layers = [base]
    for _ in range(inst.k_max):
        if deadline is not None and perf_counter() > deadline:
            raise SolveTimeout(SearchStats(dp_states_computed=(len(layers) - 1) * table.size))
        nxt = np.full(table.size, math.inf)
        np.minimum.at(nxt, table.dst, layers[-1][table.src] + table.cost)
        layers.append(nxt)
    return table, layers


def _trivial_solution(inst: Instance) -> Solution:
    return Solution(
        stops=(),
        route=((inst.start, 0.0),),
        total_cost=0.0,
        arrival_fuel=(inst.q0,),
    )


def _coast_solution(inst: Instance, d: float) -> Solution:
    return Solution(
        stops=(),
        route=((inst.start, 0.0), (inst.goal, d)),
        total_cost=0.0,
        arrival_fuel=(inst.q0, inst.q0 - d),
    )


def _reconstruct(inst: Instance, table: _Table, layers: list[np.ndarray], k_star: int) -> Solution:
    goal_state = table.state(inst.goal, 0.0)
    steps: list[tuple[int, float, float]] = []  # (source state, amount, hop fuel)
    state = goal_state
    k = k_star
    while k > 0:
        # Moves are ordered by source, so this takes the optimal move into
        # state with the lowest source state.
        into = (table.dst == state).nonzero()[0]
        cands = layers[k - 1][table.src[into]] + table.cost[into]
        idx = int(into[(cands == layers[k][state]).argmax()])
        steps.append((int(table.src[idx]), float(table.amount[idx]), float(table.hop[idx])))
        state = int(table.src[idx])
        k -= 1
    steps.reverse()

    route: list[tuple[int, float]] = [(inst.start, 0.0)]
    arrival: list[float] = [inst.q0]
    stops: list[tuple[int, float]] = []
    if state != table.initial[0]:
        # The chain begins at a free-coast state reached on the initial fuel.
        v = table.vertex_of(state)
        q = table.fuel_of(state)
        route.append((v, inst.q0 - q))
        arrival.append(q)
    for i, (src_state, amount, d) in enumerate(steps):
        if amount > 0.0:
            stops.append((table.vertex_of(src_state), amount))
        nxt_state = steps[i + 1][0] if i + 1 < len(steps) else goal_state
        route.append((table.vertex_of(nxt_state), d))
        arrival.append(table.fuel_of(nxt_state))
    return Solution(
        stops=tuple(stops),
        route=tuple(route),
        total_cost=float(layers[k_star][goal_state]),
        arrival_fuel=tuple(arrival),
    )


def dp_solve(
    inst: Instance,
    *,
    reach: ReachGraph | None = None,
    deadline: float | None = None,
) -> tuple[Solution | Infeasible, SearchStats]:
    """Solve by layered relaxation; exact agreement with the label search.

    Stops are layered strictly ("exactly k stops") and the answer minimises
    over k, which matches the within-k reading.  The state counter reports
    every cell the naive method determines: k_max times the total number of
    admissible fuel levels.
    """
    stats = SearchStats()
    t0 = perf_counter()
    try:
        reach = reach_for(inst, reach)
        if inst.start == inst.goal:
            return _trivial_solution(inst), stats
        if inst.q0 > 0.0:
            d_direct = reach.distance(inst.start, inst.goal)
            if d_direct is not None and d_direct <= inst.q0:
                return _coast_solution(inst, d_direct), stats

        table, layers = build_layers(inst, reach, deadline=deadline)
        stats.dp_states_computed = inst.k_max * table.size
        goal_state = table.state(inst.goal, 0.0)
        best_k = -1
        best = math.inf
        for k, layer in enumerate(layers):
            if layer[goal_state] < best:
                best = float(layer[goal_state])
                best_k = k
        if not math.isfinite(best):
            return Infeasible(), stats
        return _reconstruct(inst, table, layers, best_k), stats
    except SolveTimeout as t:
        stats = t.stats  # carries the states of the layers built in time
        raise
    finally:
        stats.search_time = perf_counter() - t0
