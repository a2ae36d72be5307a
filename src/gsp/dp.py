"""Dynamic-programming baseline.

Forward table A(v, k, q): minimal cost to travel from the start to v,
arriving with fuel level q after exactly k refuelling stops.  The fuel
levels a vertex can be reached with are finite because every purchase
either tops the tank (arrival q_max - d) or covers the hop exactly
(arrival 0), so each level set is bounded by the refuel-graph in-degree
plus one.  The answer is the minimum over k of A(goal, k, 0).

The state table is built with numpy array operations over the reach
graph's CSR arrays (``ReachGraph.arrays``) and its price arrays
(``ReachGraph.purchase``), not Python lists: the level sets are one
lexsort-and-deduplicate over candidate (v, q) pairs.  A fill-up at u from
level q costs (q_max - q) * c(u) whatever the next stop, so, as in Khuller,
Malekian and Mestre (2011), the minimum over the arrival levels at u is
taken once per vertex: each layer takes one segment minimum per vertex
(``np.minimum.reduceat``), the hub, over the previous layer plus each
state's fill-up cost.  Every fill-up arc then reads its tail's hub, and
every deficit move (an arc into the goal or to a vertex no dearer) its
source state, in one gather, one add and one unbuffered scatter-minimum
(``np.minimum.at``) into the destination states.  Every candidate is the
sum the per-(level, arc) relaxation forms, so the layers are the same to
the bit.  The naive method determines every cell of every layer, which is
what the state counter reports; ``gas_values`` is the per-vertex reference
for the level sets.

The schedule is read back from the layers, goal first, as the states it
passes and the amount bought at each, and written through
``Solution.build``, which prices every hop with the reach graph's distance.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

from .core import FuelGraph, Infeasible, Instance, SearchStats, Solution, SolveTimeout
from .reach import ReachGraph, reach_for


_NO_ARCS = np.empty(0, dtype=np.int64)


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
    """Flattened state space and moves for one instance.

    States are (vertex, admissible fuel level) pairs numbered in (v, q)
    order: state_v and state_q hold each state's vertex and level, and the
    states of v are offset[v]:offset[v + 1].  goal is the goal's one state,
    its level 0.  initial holds the states that cost nothing: the start,
    then the free-coast arrivals.

    A fill-up buys q_max - q at its vertex's price whatever arc it leaves
    by, so it is priced once per state: fill_cost[s] is (q_max - q) *
    price[v], or +inf where q >= q_max or v does not buy (the goal, or an
    infinite price).  Fill-up arc i leaves vertex fill_tail[i] and lands in
    state fill_dst[i].  Every other move is a deficit row: row i leaves
    state src[i], buys amount[i] for cost[i] and lands in dst[i]; rows are
    ordered by src.

    A layer is relaxed with one gather over both kinds.  Move i reads entry
    from_[i] of the previous layer extended by one hub per vertex, entry
    size + u holding the cheapest fill-up at u; it adds add[i] and lands in
    to[i].  The deficit rows come first, so src, dst and cost are views of
    from_, to and add, and fill_dst is the rest of to.
    """

    def __init__(self, inst: Instance, reach: ReachGraph):
        n, start, goal, q_max, q0 = inst.graph.n, inst.start, inst.goal, inst.q_max, inst.q0
        indptr, nbr, dist, tail = reach.arrays
        price, sells, tail_price, cheaper, vertex = reach.purchase

        # Fill-up arcs: the next stop is pricier, so the tank is topped and
        # the arrival level is q_max - d.  The goal only sees empty arrivals.
        into_goal = nbr == goal
        fill = cheaper & ~into_goal
        fill_arcs = fill.nonzero()[0]
        # Initial fuel adds states the purchase rule alone cannot reach: the
        # start level itself and every free-coast arrival.  Every arc takes
        # fuel, so an empty tank coasts nowhere.
        coasts = _NO_ARCS
        if q0 > 0.0:
            lo, hi = indptr[start], indptr[start + 1]
            coasts = lo + ((dist[lo:hi] <= q0) & ~into_goal[lo:hi]).nonzero()[0]

        # Candidate levels, deduplicated in (v, q) order with exact float
        # equality: {0} everywhere, the fill-up arrivals (gas_values), the
        # start level and the coasts.
        cand_v = np.concatenate((vertex[:n], nbr[fill_arcs], [start], nbr[coasts]))
        cand_q = np.concatenate((np.zeros(n), q_max - dist[fill_arcs], [q0], q0 - dist[coasts]))
        order = np.lexsort((cand_q, cand_v))
        sorted_v, sorted_q = cand_v[order], cand_q[order]
        first = np.empty(len(order), dtype=bool)
        first[0] = True
        first[1:] = (sorted_v[1:] != sorted_v[:-1]) | (sorted_q[1:] != sorted_q[:-1])
        cand_state = np.empty(len(order), dtype=np.int64)
        cand_state[order] = first.cumsum() - 1
        self.state_v = state_v = sorted_v[first]
        self.state_q = state_q = sorted_q[first]
        self.size = size = len(state_v)
        self.offset = state_v.searchsorted(vertex)
        self.goal = int(self.offset[goal])
        self.initial = cand_state[n + len(fill_arcs):]

        # Nothing is bought at the goal, nor filled at a full start (q0 =
        # q_max), the only level not below q_max.  Their gaps are nan first,
        # so that no inf * 0 is formed, and their costs +inf.  An infinite
        # price makes the product +inf by itself.
        no_fill = [self.goal, self.initial.item(0)] if q0 == q_max else self.goal
        gap = q_max - state_q
        gap[no_fill] = math.nan
        self.fill_cost = gap * price[state_v]
        self.fill_cost[no_fill] = math.inf
        self.fill_tail = tail[fill_arcs]

        # Expand every state that buys by its vertex's other arcs, the
        # deficit arcs, and keep the moves the purchase rule allows: into
        # the goal with d >= q, otherwise d > q; both buy d - q and arrive
        # empty.
        deficit = (~fill).nonzero()[0]
        first_deficit = deficit.searchsorted(indptr)  # per vertex, into deficit
        buys = sells[state_v]
        buys[self.goal] = False
        movers = buys.nonzero()[0]
        u = state_v[movers]
        degree = (first_deficit[1:] - first_deficit[:-1])[u]
        src = movers.repeat(degree)
        # Each state's run of arcs starts at its vertex's first deficit arc.
        run_start = first_deficit[u] - (degree.cumsum() - degree)
        arc = deficit[np.arange(len(src)) + run_start.repeat(degree)]
        short = dist[arc] - state_q[src]  # d - q, whose sign is that of d against q
        keep = np.where(into_goal[arc], short >= 0.0, short > 0.0).nonzero()[0]
        src, arc, self.amount = src[keep], arc[keep], short[keep]
        rows = len(src)
        self.from_ = np.concatenate((src, size + self.fill_tail))
        self.to = np.concatenate((self.offset[nbr[arc]], cand_state[n:n + len(fill_arcs)]))
        self.add = np.concatenate((self.amount * tail_price[arc], np.zeros(len(fill_arcs))))
        self.src, self.dst, self.cost = self.from_[:rows], self.to[:rows], self.add[:rows]
        self.fill_dst = self.to[rows:]

    def state(self, v: int, q: float) -> int:
        lo, hi = int(self.offset[v]), int(self.offset[v + 1])
        i = lo + int(self.state_q[lo:hi].searchsorted(q))
        if i == hi or self.state_q[i] != q:
            raise KeyError((v, q))
        return i


def build_layers(
    inst: Instance,
    reach: ReachGraph,
    *,
    deadline: float | None = None,
) -> tuple[_Table, np.ndarray]:
    """Relax k_max layers and return (table, layers).

    layers[k, :table.size] is A_k, and layers[k, table.size + u] the hub of
    u after it: the least cost of reaching u in k stops and filling up there
    (+inf on the last row, which nothing relaxes from).  Past the deadline,
    raises SolveTimeout with the states of the layers relaxed so far.
    """
    table = _Table(inst, reach)
    size, fill_cost, from_, to, add = table.size, table.fill_cost, table.from_, table.to, table.add
    starts = table.offset[:-1]  # no vertex has an empty run: each has level 0
    layers = np.full((inst.k_max + 1, size + inst.graph.n), math.inf)
    layers[0][table.initial] = 0.0
    for k in range(1, inst.k_max + 1):
        if deadline is not None and perf_counter() > deadline:
            raise SolveTimeout(SearchStats(dp_states_computed=(k - 1) * size))
        prev = layers[k - 1]
        np.minimum.reduceat(prev[:size] + fill_cost, starts, out=prev[size:])
        np.minimum.at(layers[k], to, prev[from_] + add)
    return table, layers


def _reconstruct(inst: Instance, reach: ReachGraph, table: _Table, layers: np.ndarray,
                 k_star: int) -> Solution:
    # The schedule is collected goal first; nothing is bought at the goal.
    size, rows, state = table.size, len(table.amount), table.goal
    from_, to, add = table.from_, table.to, table.add
    offset, fill_cost = table.offset, table.fill_cost
    cost = layers.item(k_star, state)
    vertices, bought, arrival = [inst.goal], [0.0], [0.0]
    for k in range(k_star, 0, -1):
        prev, target = layers[k - 1], layers.item(k, state)
        into = (to == state).nonzero()[0]
        optimal = into[prev[from_[into]] + add[into] == target].tolist()
        # Take the optimal move from the lowest state.  A fill-up leaves
        # from the first state of its tail that attains the tail's hub.
        best = size
        for i in optimal:
            s = from_.item(i)
            if i >= rows:
                lo, hi = offset.item(s - size), offset.item(s - size + 1)
                s = lo + (prev[lo:hi] + fill_cost[lo:hi]).tolist().index(target)
            if s < best:
                best, move = s, i
        state = best
        vertices.append(table.state_v.item(state))
        arrival.append(table.state_q.item(state))
        bought.append(table.amount.item(move) if move < rows else inst.q_max - arrival[-1])
    if state != table.initial[0]:
        # The chain begins at a free-coast state reached on the initial fuel.
        vertices.append(inst.start)
        bought.append(0.0)
        arrival.append(inst.q0)
    return Solution.build(reach, vertices[::-1], bought[::-1], arrival[::-1], cost)


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
            return Solution.build(reach, [inst.start], [], [inst.q0], 0.0), stats
        if inst.q0 > 0.0:
            d_direct = reach.distance(inst.start, inst.goal)
            if d_direct is not None and d_direct <= inst.q0:
                return Solution.build(reach, [inst.start, inst.goal], [],
                                      [inst.q0, inst.q0 - d_direct], 0.0), stats

        table, layers = build_layers(inst, reach, deadline=deadline)
        stats.dp_states_computed = inst.k_max * table.size
        at_goal = layers[:, table.goal]
        best_k = int(at_goal.argmin())  # the fewest stops among the cheapest
        if not math.isfinite(at_goal[best_k]):
            return Infeasible(), stats
        return _reconstruct(inst, reach, table, layers, best_k), stats
    except SolveTimeout as t:
        stats = t.stats  # carries the states of the layers built in time
        raise
    finally:
        stats.search_time = perf_counter() - t0
