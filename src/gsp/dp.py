"""Dynamic-programming baseline.

Forward table A(v, k, q): minimal cost to travel from the start to v,
arriving with fuel level q after exactly k refuelling stops.  The fuel
levels a vertex can be reached with are finite because every purchase
either tops the tank (arrival q_max - d) or covers the hop exactly
(arrival 0), so each level set is bounded by the refuel-graph in-degree
plus one.  The answer is the minimum over k of A(goal, k, 0).

Layers are relaxed with flat numpy arrays: all (source state, reach edge)
transitions are materialised once per instance, then each layer is one
gather, one add and one grouped minimum.  The naive method determines
every cell of every layer, which is what the state counter reports.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

from .core import FuelGraph, Infeasible, Instance, SearchStats, Solution, SolveTimeout
from .reach import ReachGraph, compute_reachable_sets


def gas_values(reach: ReachGraph, graph: FuelGraph, v: int, goal: int | None = None) -> list[float]:
    """Admissible arrival fuel levels at v.

    {0} plus q_max - d for every reach predecessor u with a strictly
    cheaper price (the fill-up arrivals).  The goal only ever sees empty
    arrivals.
    """
    if v == goal:
        return [0.0]
    vals = {0.0}
    pv = graph.price[v]
    for u, d in reach.pred[v]:
        if graph.price[u] < pv:
            vals.add(reach.q_max - d)
    return sorted(vals)


class _Table:
    """Flattened state space and transition arrays for one instance."""

    def __init__(self, inst: Instance, reach: ReachGraph):
        g = inst.graph
        levels: list[list[float]] = [
            gas_values(reach, g, v, inst.goal) for v in range(g.n)
        ]
        # Initial fuel adds states the purchase rule alone cannot reach:
        # the start level itself and every free-coast arrival.
        coasts: list[tuple[int, float]] = []
        if inst.q0 > 0.0:
            levels[inst.start] = sorted(set(levels[inst.start]) | {inst.q0})
            coasts = [(v2, inst.q0 - d) for v2, d in reach.succ[inst.start]
                      if d <= inst.q0 and v2 != inst.goal]
            for v2, q in coasts:
                levels[v2] = sorted(set(levels[v2]) | {q})

        self.levels = levels
        self.offset = np.zeros(g.n + 1, dtype=np.int64)
        for v in range(g.n):
            self.offset[v + 1] = self.offset[v] + len(levels[v])
        self.size = int(self.offset[-1])
        self.level_index = [
            {q: i for i, q in enumerate(lv)} for lv in levels
        ]
        # States that cost nothing: the start and the free-coast arrivals.
        self.initial = [self.state(inst.start, inst.q0)]
        self.initial += [self.state(v2, q) for v2, q in coasts]

        src: list[int] = []
        dst: list[int] = []
        cost: list[float] = []
        amount: list[float] = []
        hop: list[float] = []
        q_max = inst.q_max
        for u in range(g.n):
            cu = g.price[u]
            if u == inst.goal or not math.isfinite(cu):
                continue
            base_u = int(self.offset[u])
            for qi, q in enumerate(levels[u]):
                for v2, d in reach.succ[u]:
                    if v2 == inst.goal:
                        if d < q:
                            continue
                        a = d - q
                        arrive = 0.0
                    elif cu < g.price[v2]:
                        if q >= q_max:
                            continue
                        a = q_max - q
                        arrive = q_max - d
                    else:
                        if d <= q:
                            continue
                        a = d - q
                        arrive = 0.0
                    src.append(base_u + qi)
                    dst.append(int(self.offset[v2]) + self.level_index[v2][arrive])
                    cost.append(a * cu)
                    amount.append(a)
                    hop.append(d)

        if src:
            order = np.lexsort((np.asarray(src), np.asarray(dst)))
            self.src = np.asarray(src, dtype=np.int64)[order]
            self.dst = np.asarray(dst, dtype=np.int64)[order]
            self.cost = np.asarray(cost, dtype=np.float64)[order]
            self.amount = np.asarray(amount, dtype=np.float64)[order]
            self.hop = np.asarray(hop, dtype=np.float64)[order]
            boundaries = np.flatnonzero(np.diff(self.dst)) + 1
            self.group_starts = np.concatenate(([0], boundaries))
            self.group_dst = self.dst[self.group_starts]
        else:
            self.src = np.empty(0, dtype=np.int64)
            self.dst = np.empty(0, dtype=np.int64)
            self.cost = np.empty(0, dtype=np.float64)
            self.amount = np.empty(0, dtype=np.float64)
            self.hop = np.empty(0, dtype=np.float64)
            self.group_starts = np.empty(0, dtype=np.int64)
            self.group_dst = np.empty(0, dtype=np.int64)

        seg: dict[int, tuple[int, int]] = {}
        starts = self.group_starts
        for gi, d0 in enumerate(self.group_dst):
            lo = int(starts[gi])
            hi = int(starts[gi + 1]) if gi + 1 < len(starts) else len(self.dst)
            seg[int(d0)] = (lo, hi)
        self.dst_segment = seg

    def state(self, v: int, q: float) -> int:
        return int(self.offset[v]) + self.level_index[v][q]

    def vertex_of(self, state: int) -> int:
        return int(np.searchsorted(self.offset, state, side="right") - 1)

    def fuel_of(self, state: int) -> float:
        v = self.vertex_of(state)
        return self.levels[v][state - int(self.offset[v])]


def build_layers(
    inst: Instance,
    reach: ReachGraph,
    *,
    deadline: float | None = None,
) -> tuple[_Table, list[np.ndarray]]:
    """Relax k_max layers and return (table, [A_0 .. A_kmax])."""
    table = _Table(inst, reach)
    base = np.full(table.size, math.inf)
    base[table.initial] = 0.0
    layers = [base]
    for _ in range(inst.k_max):
        if deadline is not None and perf_counter() > deadline:
            raise _LayerTimeout(layers)
        cur = layers[-1]
        nxt = np.full(table.size, math.inf)
        if len(table.src):
            cand = cur[table.src] + table.cost
            mins = np.minimum.reduceat(cand, table.group_starts)
            nxt[table.group_dst] = mins
        layers.append(nxt)
    return table, layers


class _LayerTimeout(Exception):
    def __init__(self, layers):
        self.layers = layers


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
        lo, hi = table.dst_segment[state]
        cands = layers[k - 1][table.src[lo:hi]] + table.cost[lo:hi]
        idx = lo + int(np.flatnonzero(cands == layers[k][state])[0])
        steps.append((int(table.src[idx]), float(table.amount[idx]), float(table.hop[idx])))
        state = int(table.src[idx])
        k -= 1
    steps.reverse()

    route: list[tuple[int, float]] = [(inst.start, 0.0)]
    arrival: list[float] = [inst.q0]
    stops: list[tuple[int, float]] = []
    if state != table.state(inst.start, inst.q0):
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
    if reach is None:
        reach = compute_reachable_sets(inst.graph, inst.q_max)
    if inst.start == inst.goal:
        stats.search_time = perf_counter() - t0
        return _trivial_solution(inst), stats
    if inst.q0 > 0.0:
        d_direct = reach.distance(inst.start, inst.goal)
        if d_direct is not None and d_direct <= inst.q0:
            stats.search_time = perf_counter() - t0
            return _coast_solution(inst, d_direct), stats

    try:
        table, layers = build_layers(inst, reach, deadline=deadline)
    except _LayerTimeout as t:
        stats.dp_states_computed = (len(t.layers) - 1) * _size_of(t.layers)
        stats.search_time = perf_counter() - t0
        raise SolveTimeout(stats) from None

    stats.dp_states_computed = inst.k_max * table.size
    goal_state = table.state(inst.goal, 0.0)
    best_k = -1
    best = math.inf
    for k, layer in enumerate(layers):
        if layer[goal_state] < best:
            best = float(layer[goal_state])
            best_k = k
    if not math.isfinite(best):
        stats.search_time = perf_counter() - t0
        return Infeasible(), stats
    sol = _reconstruct(inst, table, layers, best_k)
    stats.search_time = perf_counter() - t0
    return sol, stats


def _size_of(layers: list[np.ndarray]) -> int:
    return int(layers[0].shape[0]) if layers else 0
