"""Dynamic-programming baseline.

Forward table A(v, k, q): minimal cost to travel from the start to v,
arriving with fuel level q after exactly k refuelling stops.  The answer is
the minimum over k of A(goal, k, 0).

The states are (vertex, level) pairs, numbered in (v, q) order, so that the
states of v are one run.  Every purchase either fills the tank or covers
the hop exactly, so the levels of v are few: 0, and q_max - d for every arc
u -> v of fuel d whose tail is strictly cheaper, on which a stop at u fills
up (``gas_values`` is the per-vertex reference).  The goal keeps level 0
alone.  Initial fuel q0 adds the start's level q0 and the level q0 - d of
every vertex the start reaches on it, each cost-free.  A fill-up in state
(u, q) buys q_max - q at u's price and leaves by an arc to a dearer vertex,
landing at level q_max - d.  Every other move is a deficit row: from (u, q)
along an arc of fuel d > q to a vertex no dearer than u, or along an arc
into the goal, it buys d - q and lands at level 0.  A vertex that sells
nothing (infinite price) buys nothing.

Most of the table is the same for every query on a reach graph.
``base_table`` builds it as if there were no goal and no initial fuel
(``TableArrays``), on the first DP query, and ``ReachGraph.table`` keeps
it, read-only.  A query's table (``_Table``) trims the goal to its level 0,
merges in the start's initial-fuel levels, and writes each state's deficit
rows from its count of deficit arcs, plus the rows of the arcs into the
goal.

A fill-up's cost does not depend on the arc it leaves by, so, as in
Khuller, Malekian and Mestre (2011), the minimum over the arrival levels
at u is taken once per vertex: each layer takes one segment minimum per
vertex (``np.minimum.reduceat``), the hub, over the previous layer plus
each state's fill-up cost.  Every fill-up arc then reads its tail's hub,
and every deficit row its source state, in one gather, one add and one
unbuffered scatter-minimum (``np.minimum.at``) into the destination
states.  Every candidate is the sum the per-(level, arc) relaxation forms,
so the layers are the same to the bit.  The naive method determines every
cell of every layer, which is what the state counter reports.

The schedule is read back from the layers, goal first, as the states it
passes and the amount bought at each, and written through
``Solution.build``, which prices every hop with the reach graph's distance.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .core import FuelGraph, Infeasible, Instance, SearchStats, Solution, SolveTimeout
from .reach import ReachGraph, reach_for


def gas_values(reach: ReachGraph, graph: FuelGraph, v: int, goal: int | None = None) -> list[float]:
    """Admissible arrival fuel levels at v.

    {0} plus q_max - d for every reach predecessor u with a strictly
    cheaper price (the fill-up arrivals).  The goal only ever sees empty
    arrivals.  A pure-Python reference for the level sets that _Table
    derives from ``base_table``: it finds the arcs into v by looking up
    every tail with ``reach.distance``, so it shares no code with them.
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


class TableArrays(NamedTuple):
    """The part of the state table that no query decides.

    Arrays of one length and type are stacked, so that a reach graph keeps
    few array objects and a query gathers each stack at once.  price holds
    each vertex's price.

    Per state s: states[0] is the vertex v and levels[0] the level q;
    levels[1] is the fill-up cost.  The deficit rows of s are the states[1]
    deficit arcs of v with d > q, from entry states[2] on (none where v
    sells nothing).

    Per vertex v, each a range in the array it names: ptr[0] the states of
    v, ptr[1] the fill-up arcs into v, ptr[2] the deficit arcs of v and
    ptr[3] the column arcs into v; v's range is ptr[k][v]:ptr[k][v + 1].
    Fill-up arc i leaves vertex fills[0][i] and lands in state fills[1][i];
    the arcs are ordered by landing state.  The deficit arcs of each tail
    are sorted by fuel, with heads deficit_head and fuels deficit_dist; both
    end with one spare entry, so that the entry just past any run can be
    read.

    The column arcs are the arcs whose tail sells, by head, with tails
    column_tail.  Were the head the goal, such an arc u -> v of fuel d
    would buy d - q from every level q of u in [column[0], column[1]],
    where column[1] is d: all levels up to d where u is cheaper than v
    (column[0] is -inf), else only a level equal to d, since the deficit
    run of u covers the levels below d.
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


def base_table(reach: ReachGraph) -> TableArrays:
    """The table as if there were no goal and no initial fuel, read-only;
    ``ReachGraph.table`` builds it once per reach graph."""
    n, q_max, succ = reach.n, reach.q_max, reach.succ
    # Every arc's tail, head and fuel, in the order of succ.
    src = np.arange(n).repeat([len(row) for row in succ])
    nbr = np.fromiter((v for row in succ for v, _ in row), dtype=np.int64, count=len(src))
    dist = np.fromiter((d for row in succ for _, d in row), dtype=np.float64, count=len(src))
    vertex = np.arange(n + 1)
    price = np.asarray(reach.graph.price, dtype=np.float64)
    sells = price < math.inf
    # The purchase rule fills the tank on an arc to a dearer vertex, unless
    # it is the goal.
    cheaper = price[src] < price[nbr]

    # Levels: {0} everywhere and the fill-up arrivals.
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


class _Table:
    """Flattened state space and moves for one instance.

    state_v and state_q hold each state's vertex and level, and the states
    of v are offset[v]:offset[v + 1].  goal is the goal's one state.
    initial holds the states that cost nothing: the start, then the
    free-coast arrivals.  fill_cost[s] is the fill-up cost of s, or +inf
    where s does not buy (the goal, a full start, or an infinite price).
    Fill-up arc i leaves vertex fill_tail[i] and lands in state
    fill_dst[i].  Deficit row i leaves state src[i], buys amount[i] for
    cost[i] and lands in dst[i]; rows are ordered by src.

    A layer is relaxed with one gather over both kinds.  Move i reads entry
    from_[i] of the previous layer extended by one hub per vertex, entry
    size + u holding the cheapest fill-up at u; it adds add[i] and lands in
    to[i].  The deficit rows come first, so src, dst and cost are views of
    from_, to and add, and fill_dst is the rest of to.

    Only the goal, the start and the initial fuel belong to the query; the
    rest is read from ``ReachGraph.table``, never written.
    """

    def __init__(self, inst: Instance, reach: ReachGraph):
        n, start, goal, q_max, q0 = inst.graph.n, inst.start, inst.goal, inst.q_max, inst.q0
        base = reach.table
        price = base.price
        g_lo, f_lo, _, c_lo = base.ptr[:, goal].tolist()
        g_hi, f_hi, _, c_hi = base.ptr[:, goal + 1].tolist()

        # The goal only sees empty arrivals: it keeps its level 0, and the
        # fill-up arcs into it, which land in its other levels, go.  State i
        # of the table is state pick[i] of the base.
        drop = g_hi - g_lo - 1
        pick = np.arange(base.states.shape[1] - drop)
        pick[g_lo + 1:] += drop
        self.fill_tail, fill_dst = np.concatenate((base.fills[:, :f_lo], base.fills[:, f_hi:]),
                                                  axis=1)
        fill_dst[f_lo:] -= drop
        states, levels = base.states, base.levels

        if q0 > 0.0:
            # The start level and the coast arrivals (an empty tank coasts
            # nowhere).  A candidate (v, x) moves by the deficit arcs of v
            # that take more fuel than x, if v sells, and fills up for
            # (q_max - x) * price[v].
            ints, floats = [], []
            for v, x in [(start, q0)] + [(v, q0 - d) for v, d in reach.succ[start]
                                         if d <= q0 and v != goal]:
                lo, hi = base.ptr.item(2, v), base.ptr.item(2, v + 1)
                p = price.item(v)
                above = hi - lo - int(base.deficit_dist[lo:hi].searchsorted(x, "right"))
                above *= p < math.inf
                ints.append((v, above, hi - above))
                floats.append((x, (q_max - x) * p))
            ints, floats = np.array(ints).T, np.array(floats).T
            # They join the levels as the base merged its own.  Where pick[i]
            # is past the base's states, state i is candidate pick[i] minus
            # their count.
            rep, state = distinct_levels(np.concatenate((states[0].take(pick), ints[0])),
                                         np.concatenate((levels[0].take(pick), floats[0])))
            self.initial = state[len(pick):]
            fill_dst = state[fill_dst]
            pick = np.concatenate((pick, states.shape[1] + np.arange(ints.shape[1])))[rep]
            states = np.concatenate((states, ints), axis=1)
            levels = np.concatenate((levels, floats), axis=1)
        state_v, deficits, first = states.take(pick, axis=1)
        state_q, fill_cost = levels.take(pick, axis=1)
        self.state_v, self.state_q, self.fill_cost = state_v, state_q, fill_cost
        self.size = size = len(state_v)
        self.offset = offset = state_v.searchsorted(np.arange(n + 1))
        self.goal = int(offset[goal])
        if q0 == 0.0:
            self.initial = offset[start:start + 1].copy()
        # Nothing is bought at the goal, nor filled at a full start (q0 =
        # q_max), the only level not below q_max.  An infinite price makes a
        # fill-up cost +inf by itself.
        self.fill_cost[[self.goal, self.initial.item(0)] if q0 == q_max else self.goal] = math.inf
        deficits[self.goal] = 0

        # The goal's column: an arc u -> goal of fuel d buys d - q from the
        # levels q of u in [low, d] (TableArrays).
        bounds = np.full((2, n), -math.inf)
        bounds[:, base.column_tail[c_lo:c_hi]] = base.column[:, c_lo:c_hi]
        low, d = bounds.take(state_v, axis=1)
        into_goal = (low <= state_q) & (state_q <= d)

        # The deficit rows of a state: its run of deficit arcs, then its
        # goal row if it has one, which first reads the entry past the run.
        per = deficits + into_goal
        row_end = per.cumsum()
        rows = int(row_end[-1])
        arc = np.arange(rows) + (first + per - row_end).repeat(per)
        goal_rows = row_end[into_goal] - 1
        dst = offset[base.deficit_head[arc]]
        dst[goal_rows] = self.goal
        self.amount = base.deficit_dist[arc]
        self.amount[goal_rows] = d[into_goal]
        self.amount -= state_q.repeat(per)
        self.from_ = np.concatenate((np.arange(size).repeat(per), size + self.fill_tail))
        self.to = np.concatenate((dst, fill_dst))
        self.add = np.zeros(rows + len(fill_dst))
        self.src, self.dst, self.cost = self.from_[:rows], self.to[:rows], self.add[:rows]
        self.fill_dst = self.to[rows:]
        np.multiply(self.amount, price[state_v].repeat(per), out=self.cost)

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
