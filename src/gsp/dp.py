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
landing at level q_max - d.  Every other move is a deficit move: from
(u, q) along an arc of fuel d > q to a vertex no dearer than u, or along an
arc into the goal with d >= q, it buys d - q and lands at level 0.  A
vertex that sells nothing (infinite price) buys nothing.

Most of the table is the same for every query on a reach graph.
``base_table`` builds it as if there were no goal and no initial fuel
(``TableArrays``), on the first DP query, and ``ReachGraph.table`` keeps
it, read-only.  A query's table (``_Table``) reads it in place.  The goal
keeps the base's numbering: its levels above 0 are reset to +inf in every
layer, as a dropped state would be, and its level 0 takes the minimum over
the goal's column, the arcs into it whose tail sells.  The initial states
are the only finite ones of layer 0, and nothing lands in an initial level
that the base lacks, so layer 1 is relaxed from their own moves and every
later layer from the base's moves alone.

Per-arc moves.  A move from (u, q) that buys up to level L (d for a
deficit move, q_max for a fill-up) costs A(u, q) + c_u·(L - q), which is
(A(u, q) - c_u·q) + c_u·L, and it is open to a prefix of u's levels: those
below L (at most L into the goal).  So each layer writes A - c·q into a
grid whose row j holds the j-th level of every vertex, takes the running
minimum down every vertex's column, and relaxes every arc with one read of
the grid plus c_u·L.  As in Khuller, Malekian and Mestre (2011) for
fill-ups, the minimum over the levels is taken once per arc, not once per
(level, arc).  The goal's cells stay +inf, so no move leaves it.  The
moves into one state are its run, and a run lands in one of two ways, by
its length.  Runs shorter than ``_SHORT_RUN`` take one unbuffered
scatter-minimum (``np.minimum.at``) into the layer, which starts at +inf;
longer ones take one segment minimum (``np.minimum.reduceat``).  The moves
are sorted by (long run?, state), once per reach graph, so that each way
reads one slice and each state's moves are one range.

The split sum (A - c·q) + c·L equals A + c·(L - q) because every operand
and every sum is an integer below 2**53: ``dp_solve`` runs in the query's
integral units, whose limit (``reach.integral``) keeps every cost of a
cheapest chain, plus one move, below it.

A cheapest chain with the fewest stops repeats no state, since costs are
not negative, so at most min(k_max, states) layers are relaxed.  The loop
stops after the first layer k with no state below best, the least goal
value of layers 1 to k; the layers after it stay +inf.  That is exact:
every move adds c_u·(L - q) >= 0 to the value of its tail, and none leaves
the goal, whose cells are +inf, so no later layer gives the goal less than
best, and a later tie loses to the earlier layer in the answer's argmin.
A layer with no finite state stops the loop too.  The naive method
determines every cell of k_max layers, which is what the state counter
reports; ``SearchStats.dp_layers`` counts the layers relaxed.

The schedule is read back from the layers, goal first, as the states it
passes and the amount bought at each, taking at each step the optimal move
from the lowest state.  A step builds no grid: it prices each move into its
state from every level of the move's tail up to the rank it reads, in the
layer before, so a per-arc move leaves from the first level of its tail
that attains the prefix minimum it reads.  The first stop leaves an
initial state.  The schedule is written through ``Solution.build``, which
prices every hop with the reach graph's distance.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .core import FuelGraph, Infeasible, Instance, SearchStats, Solution, SolveTimeout
from .reach import ReachGraph, integral


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
    few array objects.  price holds each vertex's price.

    Per state s of vertex v: states[0] is v and states[1] the cell of s in
    the grid, j·n + v for the j-th level of v, so that the levels of one
    rank lie side by side.  levels[0] is the level q and levels[1] the
    fuel's worth q·c_v (0 where v sells nothing).

    Per vertex v, each a range in the array it names: ptr[0] the states of
    v, ptr[1] the column arcs into v and ptr[2] the moves out of v in
    by_tail; v's range is ptr[k][v]:ptr[k][v + 1].

    The per-arc moves.  Move i reads cell move_read[i], the last level of
    its tail u below the level moves[0][i] it buys up to, adds moves[1][i],
    c_u times that level, and lands in state land[i]; its tail is
    move_read[i] mod n.  The fill-up arcs land in the level they fill up
    to, and the deficit arcs from a tail that sells in level 0.  The moves
    into one state are its run.  Runs shorter than ``_SHORT_RUN`` come
    first, in state order; the long runs follow, also in state order, the
    r-th landing in state long_runs[0][r] and starting at move
    long_runs[1][r].  by_tail lists the moves by tail.

    The column arcs are the arcs whose tail sells, by head.  Were the head
    the goal, such an arc u -> v of fuel column_dist = d would buy d - q
    from every level q of u up to d where u is cheaper than v, else only a
    level equal to d, since u's deficit moves cover the levels below d.  As
    a per-arc move it reads cell column_read, u's last level at most d.

    width is the most levels of any vertex, the grid's count of ranks.
    """

    price: np.ndarray
    ptr: np.ndarray
    states: np.ndarray
    levels: np.ndarray
    move_read: np.ndarray
    moves: np.ndarray
    land: np.ndarray
    long_runs: np.ndarray
    by_tail: np.ndarray
    column_read: np.ndarray
    column_dist: np.ndarray
    width: np.ndarray


def base_table(reach: ReachGraph) -> TableArrays:
    """The table as if there were no goal and no initial fuel, read-only;
    ``ReachGraph.table`` builds it once per reach graph."""
    n, q_max, succ = reach.n, reach.q_max, reach.succ
    # Every arc's tail, head and fuel, in the order of succ, and whether the
    # purchase rule fills the tank on it: its head is dearer.
    src = np.arange(n).repeat([len(row) for row in succ])
    nbr = np.fromiter((v for row in succ for v, _ in row), dtype=np.int64, count=len(src))
    dist = np.fromiter((d for row in succ for _, d in row), dtype=np.float64, count=len(src))
    price = np.asarray(reach.graph.price, dtype=np.float64)
    cheaper = price[src] < price[nbr]
    vertex = np.arange(n + 1)
    sells = price < math.inf
    unit = np.where(sells, price, 0.0)  # what a unit of fuel is worth at a vertex

    # Levels: {0} everywhere and the fill-up arrivals.
    fill = cheaper.nonzero()[0]
    cand_v = np.concatenate((vertex[:n], nbr[fill]))
    cand_q = np.concatenate((np.zeros(n), q_max - dist[fill]))
    rep, cand_state = distinct_levels(cand_v, cand_q)
    state_v, state_q = cand_v[rep], cand_q[rep]
    size = len(state_v)
    offset = state_v.searchsorted(vertex)

    # A move from a tail reads the cell of the last level it is open to,
    # (levels open - 1)·n + tail.  A column arc of fuel d is open to the
    # levels up to d.
    column = sells[src].nonzero()[0]
    column = column[nbr[column].argsort(kind="stable")]
    column_read = (_at_most(state_q, offset, src[column], dist[column]) - 1) * n + src[column]

    # The moves and the state each lands in: the fill-up arcs, open to
    # every level of their tail, and the deficit arcs of fuel d from a tail
    # that sells, open to the levels below d.  Short runs come first, then
    # long ones, each in state order, so that the moves into a state stay
    # one range.
    ranks = np.diff(offset)  # the levels of each vertex
    paid = ((~cheaper) & sells[src]).nonzero()[0]
    land = np.concatenate((cand_state[n:], offset[nbr[paid]]))
    tail = np.concatenate((src[fill], src[paid]))
    read = tail + n * (np.concatenate((ranks[src[fill]], _at_most(
        state_q, offset, src[paid], dist[paid], "left"))) - 1)
    leave = np.concatenate((np.full(len(fill), q_max), dist[paid]))
    count = np.bincount(land, minlength=size)
    long = count >= _SHORT_RUN
    order = np.lexsort((land, long[land]))
    land, tail, read, leave = land[order], tail[order], read[order], leave[order]
    long_state = long.nonzero()[0]
    long_start = len(land) - count[long].sum() + np.append(0, count[long_state].cumsum())[:-1]
    by_tail = tail.argsort(kind="stable").astype(np.int32)

    return TableArrays(*map(_read_only, (
        price,
        np.array([offset, nbr[column].searchsorted(vertex), tail[by_tail].searchsorted(vertex)]),
        np.array([state_v, (np.arange(size) - offset[state_v]) * n + state_v]),
        np.array([state_q, state_q * unit[state_v]]),
        read, np.array([leave, leave * price[tail]]), land,
        np.array([long_state, long_start]), by_tail,
        column_read, dist[column], np.array(ranks.max()))))


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


def _at_most(values: np.ndarray, ptr: np.ndarray, run: np.ndarray, x: np.ndarray,
             side: str = "right") -> np.ndarray:
    """For every i, how many entries of the sorted run values[ptr[r]:ptr[r + 1]],
    r = run[i], are at most x[i] (below x[i] with side "left").

    The values and the queries are ranked together, so that (run, rank) is
    one exact integer key, sorted over the values; one search then counts.
    """
    _, rank = np.unique(np.concatenate((values, x)), return_inverse=True)
    span = len(rank)  # above every rank
    keys = np.arange(len(ptr) - 1).repeat(np.diff(ptr)) * span + rank[:len(values)]
    return keys.searchsorted(run * span + rank[len(values):], side) - ptr[run]


# From this many vertices on, the prefix minima are taken one rank of the
# grid at a time: numpy's accumulate walks the grid one column at a time.
# On a 2.1-GHz Xeon it took 153 µs for 20 ranks of 2,025 vertices, against
# 19 µs rank by rank, and 0.6 µs for 3 ranks of 6, against 1.4 µs.
_ROW_BY_ROW = 128

# Runs of fewer moves than this land by one unbuffered scatter-minimum
# (np.minimum.at), about 2 ns a move; longer ones by one segment minimum
# (np.minimum.reduceat), about 25 ns a run but less a move.  On a 2-CPU
# Xeon VM with seed-7 benchmark inputs, a 45x45-grid query's layers took
# 6.0 ms at 12 to 16 (7.8 at 4, 6.5 at 32, 7.2 by scatter alone and about
# twice as long by segments alone), a G(256, 0.3) desk query's 0.97 ms at
# 16 to 24 (1.08 by segments alone, 2.48 by scatter alone), and a tiny one's
# 19 µs at 8 to 16 (21 µs at 4).
_SHORT_RUN = 16


class _Table:
    """One query's view of ``ReachGraph.table`` (base), in integral units.

    The states and moves are the base's, read in place, never written.
    state_v, state_q and offset are its arrays: state s is (state_v[s],
    state_q[s]), and the states of v are offset[v]:offset[v + 1].  goal is
    the goal's level 0; its levels above 0, goal + 1:top, hold +inf in
    every layer.  The short runs are the moves before short.  column holds
    the goal's column arcs as (read, leave, charge) arrays, like the moves.

    initial lists the states that cost nothing, (vertex, level) in vertex
    order: the start and the free-coast arrivals; start_states holds those
    that are base states.  first holds the moves out of them as (move,
    state it lands in, cost) arrays, the cost +inf where the initial level
    is not below the level the move buys up to, and into_goal their column
    arcs as (cost, vertex, level, amount), in vertex order.

    size counts the states of the naive method: the base's, with the goal
    at level 0 only, and the initial levels the base lacks.  depth is the
    most layers to relax, and relaxed the count ``build_layers`` relaxed.
    """

    def __init__(self, inst: Instance, reach: ReachGraph):
        start, goal, q0 = inst.start, inst.goal, inst.q0
        self.base = base = reach.table
        self.state_v, self.state_q = base.states[0], base.levels[0]
        self.offset = offset = base.ptr[0]
        self.goal, self.top = offset[goal:goal + 2].tolist()
        self.short = base.long_runs.item(1, 0) if base.long_runs.shape[1] else len(base.land)
        price = base.price
        column = slice(*base.ptr[1, goal:goal + 2].tolist())
        read, leave = base.column_read[column], base.column_dist[column]
        self.column = read, leave, leave * price[read % len(price)]

        # The start level and the coast arrivals (an empty tank coasts
        # nowhere); a vertex has one at most.
        initial = [(start, q0)]
        if q0 > 0.0:
            initial += [(v, q0 - d) for v, d in reach.succ[start] if d <= q0 and v != goal]
        self.initial = initial = sorted(initial)
        self.start_states, new = [], 0
        for v, x in initial:
            lo, hi = offset[v:v + 2].tolist()
            s = lo + int(self.state_q[lo:hi].searchsorted(x))
            if s < hi and self.state_q.item(s) == x:
                self.start_states.append(s)
            else:
                new += 1
        self.size = len(self.state_v) - (self.top - self.goal - 1) + new
        self.depth = min(inst.k_max, self.size)
        self.relaxed = 0

        # A move out of (v, x) is open to it when x is below the level it
        # buys up to, and a column arc of fuel d when x is at most d.  A
        # vertex that sells nothing has no moves, so its x·c_v is never read.
        tail_ptr = base.ptr[2]
        rows = [base.by_tail[tail_ptr.item(v):tail_ptr.item(v + 1)] for v, _ in initial]
        x, worth = np.repeat(np.array([(x, x * price.item(v)) for v, x in initial]).T,
                             [len(row) for row in rows], axis=1)
        move = np.concatenate(rows)
        leave, charge = base.moves.take(move, axis=1)
        self.first = move, base.land[move], np.where(leave > x, charge - worth, math.inf)
        self.into_goal = []
        for v, x in initial:
            c, d = price.item(v), reach.distance(v, goal)
            if c < math.inf and d is not None and x <= d:
                self.into_goal.append((d * c - x * c, v, x, d - x))

    def state(self, v: int, q: float) -> int:
        """The state (v, q); KeyError for none, for the goal's levels above
        0 and for an initial level the base lacks."""
        lo, hi = self.offset[v:v + 2].tolist()
        i = lo + int(self.state_q[lo:hi].searchsorted(q))
        if i == hi or self.state_q[i] != q or self.goal < i < self.top:
            raise KeyError((v, q))
        return i


def build_layers(
    inst: Instance,
    reach: ReachGraph,
    *,
    deadline: float | None = None,
) -> tuple[_Table, np.ndarray]:
    """Relax up to table.depth layers and return (table, layers).

    inst and reach are in integral units (``reach.integral``).  layers[k]
    is A_k over the base's states.  Layer 1 lands the moves out of the
    initial states.  Every later layer writes the layer before into the
    grid, takes its prefix minima, reads every base move, lands the short
    runs by one scatter-minimum and the long runs by one segment minimum,
    and takes the goal's level 0 from its column.  The loop stops after the
    first layer with no state below the least goal value so far, and
    table.relaxed counts the layers relaxed; the rest stay +inf.  Past the
    deadline, raises SolveTimeout with the states and the count of the
    layers relaxed so far.
    """
    table = _Table(inst, reach)
    base, n = table.base, inst.graph.n
    layers = np.full((table.depth + 1, len(table.state_v)), math.inf)
    layers[0][table.start_states] = 0.0
    grid = np.full(base.width.item() * n, math.inf)
    lanes = grid.reshape(-1, n)
    cell, worth, read, charge = base.states[1], base.levels[1], base.move_read, base.moves[1]
    land, (long_state, long_start) = base.land[:table.short], base.long_runs
    column_read, _, column_charge = table.column
    above = slice(table.goal + 1, table.top)  # the goal's levels above 0
    best = math.inf  # the least goal value of the layers relaxed
    for k in range(1, table.depth + 1):
        if deadline is not None and perf_counter() > deadline:
            raise SolveTimeout(SearchStats(dp_states_computed=(k - 1) * table.size,
                                           dp_layers=k - 1))
        layer = layers[k]
        if k == 1:
            _, into, cost = table.first
            np.minimum.at(layer, into, cost)
            at_goal = min((cost for cost, *_ in table.into_goal), default=math.inf)
        else:
            grid[cell] = layers[k - 1] - worth
            grid[inst.goal] = math.inf  # the goal's level 0
            if n < _ROW_BY_ROW:
                np.minimum.accumulate(lanes, axis=0, out=lanes)
            else:
                for j in range(1, len(lanes)):
                    np.minimum(lanes[j], lanes[j - 1], out=lanes[j])
            cost = grid[read]
            cost += charge
            np.minimum.at(layer, land, cost[:len(land)])
            if len(long_state):
                layer[long_state] = np.minimum.reduceat(cost, long_start)
            del cost  # freed before the next layer's gather, which then reuses its pages
            at_goal = (grid[column_read] + column_charge).min(initial=math.inf)
        layer[above] = math.inf
        layer[table.goal] = at_goal
        table.relaxed = k
        best = min(best, at_goal)
        if not layer.min() < best:  # no later layer can undercut best
            break
    return table, layers


def _step(table: _Table, prev: np.ndarray, target: float, state: int) -> tuple[int, float]:
    """The per-arc move into state that attains target from the lowest
    state of prev, the layer before: (that state, the amount bought).

    Each move is priced from every level of its tail up to the rank it
    reads, so it leaves from the first level that attains the prefix
    minimum it reads, and the first move from the lowest such state wins.
    """
    base = table.base
    if state == table.goal:
        read, leave, charge = table.column
    else:
        lo, hi = base.land[:table.short].searchsorted([state, state + 1]).tolist()
        if lo == hi:  # a long run
            lo, hi = table.short + base.land[table.short:].searchsorted([state, state + 1])
        read, (leave, charge) = base.move_read[lo:hi], base.moves[:, lo:hi]
    rank, tail = np.divmod(read, len(base.price))
    count = rank + 1
    end = count.cumsum()
    move = np.arange(len(read)).repeat(count)
    source = np.arange(end.item(-1)) + (table.offset[tail] + count - end).repeat(count)
    # No move from the goal, whose cells the layers never read, attains
    # target: before k_star the goal costs more than the answer, which is at
    # least target, as no cost is negative.
    hit = (prev[source] - base.levels[1, source] + charge[move] == target).nonzero()[0]
    j = hit.item(source[hit].argmin())
    best = source.item(j)
    return best, leave.item(move.item(j)) - table.state_q.item(best)


def _first_step(table: _Table, target: float, state: int) -> tuple[int, float, float]:
    """The move out of an initial state into state that costs target, from
    the lowest: (its vertex, its level, the amount bought)."""
    if state == table.goal:
        return next((v, x, a) for cost, v, x, a in table.into_goal if cost == target)
    move, into, cost = table.first
    move = move[(into == state) & (cost == target)]
    tail = table.base.move_read[move] % len(table.base.price)
    j = tail.argmin()
    v = tail.item(j)
    x = dict(table.initial)[v]
    return v, x, table.base.moves.item(0, move.item(j)) - x


def _reconstruct(inst: Instance, reach: ReachGraph, table: _Table, layers: np.ndarray,
                 k_star: int) -> Solution:
    # The schedule is collected goal first; nothing is bought at the goal.
    # Each step takes the optimal move from the lowest state.
    state = table.goal
    cost = layers.item(k_star, state)
    vertices, bought, arrival = [inst.goal], [0.0], [0.0]
    for k in range(k_star, 1, -1):
        state, amount = _step(table, layers[k - 1], layers.item(k, state), state)
        vertices.append(table.state_v.item(state))
        arrival.append(table.state_q.item(state))
        bought.append(amount)
    v, x, amount = _first_step(table, layers.item(1, state), state)
    vertices.append(v)
    arrival.append(x)
    bought.append(amount)
    if v != inst.start:
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
    admissible fuel levels.  Runs in the query's integral units
    (``reach.integral``, which raises InvalidInstance where they would not
    keep every sum exact).
    """
    stats = SearchStats()
    t0 = perf_counter()
    try:
        inst, reach, unit, money = integral(inst, reach, inst.k_max)
        if inst.start == inst.goal:
            return Solution.build(reach, [inst.start], [], [inst.q0], 0.0).from_units(
                unit, money), stats
        coast = Solution.coast(reach, inst)
        if coast is not None:
            return coast.from_units(unit, money), stats

        table, layers = build_layers(inst, reach, deadline=deadline)
        stats.dp_states_computed = inst.k_max * table.size
        stats.dp_layers = table.relaxed
        at_goal = layers[:, table.goal]
        best_k = int(at_goal.argmin())  # the fewest stops among the cheapest
        if not math.isfinite(at_goal[best_k]):
            return Infeasible(), stats
        return _reconstruct(inst, reach, table, layers, best_k).from_units(unit, money), stats
    except SolveTimeout as t:
        stats = t.stats  # carries the states of the layers built in time
        raise
    finally:
        stats.search_time = perf_counter() - t0
