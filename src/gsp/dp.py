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
it, read-only.  A query's table (``_Table``) trims the goal to its level 0,
merges in the start's initial-fuel levels, and takes the moves into the
goal from the goal's column.

Per-arc moves.  A move from (u, q) that buys up to level L (d for a
deficit move, q_max for a fill-up) costs A(u, q) + c_u·(L - q), which is
(A(u, q) - c_u·q) + c_u·L, and it is open to a prefix of u's levels: those
below L (at most L into the goal).  So each layer writes A - c·q into a
grid whose row j holds the j-th level of every vertex, takes the running
minimum down every vertex's column, and relaxes every arc with one read of
the grid plus c_u·L.  As in Khuller, Malekian and Mestre (2011) for
fill-ups, the minimum over the levels is taken once per arc, not once per
(level, arc).  The hub of u, its cheapest fill-up, is the read at u's last
level.  The moves into one hub or state are its run, and a run lands in
one of two ways, by its length.  Runs shorter than ``_SHORT_RUN`` take one
unbuffered scatter-minimum (``np.minimum.at``) into the layer, which starts
at +inf; longer ones take one segment minimum (``np.minimum.reduceat``),
written to their hubs and states.  The moves are sorted by (long run?,
hub or state), once per reach graph, so that each way reads one slice and
each state's moves are one range.  An initial fuel level that the base
lacks takes a cell of its own, and the moves from its vertex that it is
open to read one rank higher; nothing lands in it, so it stays +inf.

The split sum (A - c·q) + c·L equals A + c·(L - q) because every operand
and every sum is an integer below 2**53: ``dp_solve`` runs in the query's
integral units, whose limit (``reach.integral``) keeps every cost of a
cheapest chain, plus one move, below it.

A cheapest chain with the fewest stops repeats no state, since costs are
not negative, so min(k_max, states) layers are relaxed.  The naive method
determines every cell of k_max layers, which is what the state counter
reports.

The schedule is read back from the layers, goal first, as the states it
passes and the amount bought at each, taking at each step the optimal move
from the lowest state: a per-arc move leaves from the first level of its
tail that attains the prefix minimum it reads.  It is written through
``Solution.build``, which prices every hop with the reach graph's distance.
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
    few array objects and a query gathers each stack at once.  price holds
    each vertex's price.

    Per state s of vertex v: states[0] is v and states[1] the cell of s in
    the grid, 1 + j·n + v for the j-th level of v, so that the levels of
    one rank lie side by side (cell 0 is a spare one, which states without
    a cell write).  levels[0] is the level q, levels[1] the fill-up cost
    and levels[2] the fuel's worth q·c_v (0 where v sells nothing).

    Per vertex v, each a range in the array it names: ptr[0] the states of
    v, ptr[1] the column arcs into v, ptr[2] the short moves into v's
    states, ptr[3] their long runs and ptr[4] the moves of those runs,
    counted past the short moves; v's range is ptr[k][v]:ptr[k][v + 1].

    The per-arc moves.  Move i reads cell move_read[i], the last level of
    its tail u below the level moves[0][i] it buys up to, and adds
    moves[1][i], c_u times that level; its tail is (move_read[i] - 1) mod n.
    Each lands in a slot: slot v < n is v's hub, a fill-up from its last
    level, and slot n + s is state s, which the fill-up arcs and, at a
    level 0, the deficit arcs from a tail that sells land in.  The moves
    into one slot are its run.  Runs shorter than ``_SHORT_RUN`` come
    first, in slot order, and move i of them lands in slot land[i]; the
    long runs follow, also in slot order, the r-th landing in slot
    long_runs[0][r] and starting long_runs[1][r] moves past the short
    ones.  A slot that nothing lands in has no run.

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
    # 1 + (levels open - 1)·n + tail.  A column arc of fuel d is open to the
    # levels up to d.
    column = sells[src].nonzero()[0]
    column = column[nbr[column].argsort(kind="stable")]
    column_read = 1 + (_at_most(state_q, offset, src[column], dist[column]) - 1) * n + src[column]

    # The moves and the slot each lands in: the hubs, open to every level
    # of their vertex; the fill-up arcs, open to every level of their tail;
    # and the deficit arcs of fuel d from a tail that sells, open to the
    # levels below d.  Short runs come first, then long ones, each in slot
    # order, so that the moves into a slot stay one range.
    ranks = np.diff(offset)  # the levels of each vertex
    hub = 1 + (ranks - 1) * n + vertex[:n]
    paid = ((~cheaper) & sells[src]).nonzero()[0]
    land = np.concatenate((vertex[:n], n + cand_state[n:], n + offset[nbr[paid]]))
    count = np.bincount(land, minlength=n + size)
    long = count >= _SHORT_RUN
    order = np.lexsort((land, long[land]))
    land = land[order]
    tail = np.concatenate((vertex[:n], src[fill], src[paid]))[order]
    move_read = np.concatenate((hub, hub[src[fill]], 1 + n * (_at_most(
        state_q, offset, src[paid], dist[paid], "left") - 1) + src[paid]))[order]
    leave = np.concatenate((np.full(n + len(fill), q_max), dist[paid]))[order]
    short = len(land) - int(count[long].sum())
    long_slot = long.nonzero()[0]
    long_start = np.append(0, count[long_slot].cumsum())  # and the end of the last
    long_ptr = long_slot.searchsorted(n + offset)

    return TableArrays(*map(_read_only, (
        price,
        np.array([offset, nbr[column].searchsorted(vertex), land[:short].searchsorted(n + offset),
                  long_ptr, long_start[long_ptr]]),
        np.array([state_v, 1 + (np.arange(size) - offset[state_v]) * n + state_v]),
        np.array([state_q, (q_max - state_q) * price[state_v], state_q * unit[state_v]]),
        move_read, np.array([leave, leave * price[tail]]), land[:short].astype(np.int32),
        np.array([long_slot, long_start[:-1]]),
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
    """Flattened state space and moves for one instance, in integral units.

    state_v and state_q hold each state's vertex and level, and the states
    of v are offset[v]:offset[v + 1].  goal is the goal's one state.
    initial holds the states that cost nothing: the start, then the
    free-coast arrivals.  fill_cost[s] is the fill-up cost of s, or +inf
    where s does not buy (the goal, a full start, or an infinite price).
    depth is the count of layers to relax.

    The per-arc moves.  State s writes A - worth[s] into cell cell[s] of
    grid, 1 + width·n cells whose rank rows lanes views: the j-th level of
    v is cell 1 + j·n + v, and the goal writes the spare cell 0, so that
    its cells stay +inf.  Move i reads cell read[i], buys up to level
    leave[i] and adds charge[i].  As in ``TableArrays``, slot v < n is v's
    hub and slot n + s is state s, and the moves into a slot are its run.
    The short runs come first, in slot order, move i of them landing in
    slot land[i]; the goal's run, its column arcs, is one of them whatever
    its length.  The long runs follow in slot order, the r-th landing in
    slot runs[0][r] and starting runs[1][r] moves past the short ones.
    fresh lists the new initial-fuel levels (None without initial fuel);
    nothing lands in them.

    Only the goal, the start and the initial fuel belong to the query; the
    rest is read from ``ReachGraph.table``, never written.
    """

    def __init__(self, inst: Instance, reach: ReachGraph):
        n, start, goal, q_max, q0 = inst.graph.n, inst.start, inst.goal, inst.q_max, inst.q0
        base = reach.table
        price = base.price
        g_lo, c_lo, a, ra, la = base.ptr[:, goal].tolist()
        g_hi, c_hi, b, rb, lb = base.ptr[:, goal + 1].tolist()

        # The goal only sees empty arrivals: it keeps its level 0, and the
        # moves into its other levels go.  State i of the table is state
        # pick[i] of the base.  Base state j past the goal's level 0 is
        # candidate j - drop below, and state merged[j - drop] once the
        # initial-fuel levels have joined.
        drop = g_hi - g_lo - 1
        pick = np.arange(base.states.shape[1] - drop)
        pick[g_lo + 1:] += drop
        states, levels = base.states, base.levels
        merged = None

        if q0 > 0.0:
            # The start level and the coast arrivals (an empty tank coasts
            # nowhere).  A candidate (v, x) fills up for (q_max - x) *
            # price[v]; its cell is set below.
            coasts = [(start, q0)] + [(v, q0 - d) for v, d in reach.succ[start]
                                      if d <= q0 and v != goal]
            ints = np.array([(v, 0) for v, _ in coasts]).T
            floats = []
            for v, x in coasts:
                p = price.item(v)
                floats.append((x, (q_max - x) * p, x * p if p < math.inf else 0.0))
            floats = np.array(floats).T
            # They join the levels as the base merged its own.  Where pick[i]
            # is past the base's states, state i is candidate pick[i] minus
            # their count.
            rep, merged = distinct_levels(np.concatenate((states[0].take(pick), ints[0])),
                                          np.concatenate((levels[0].take(pick), floats[0])))
            self.initial = merged[len(pick):]
            pick = np.concatenate((pick, states.shape[1] + np.arange(len(coasts))))[rep]
            states = np.concatenate((states, ints), axis=1)
            levels = np.concatenate((levels, floats), axis=1)
        state_v, self.cell = states.take(pick, axis=1)
        state_q, fill_cost, self.worth = levels.take(pick, axis=1)
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
        self.depth = min(inst.k_max, size)

        # The goal's column, the arcs u -> goal whose tail sells, replaces
        # the goal's base runs and lands as a short run however many arcs it
        # has, so that a query adds no long run.  A column arc of fuel d
        # buys d - q from every level q of u up to d.  Slot n + j past the
        # goal's level 0 becomes n + j - drop.
        column_read, column_dist = base.column_read[c_lo:c_hi], base.column_dist[c_lo:c_hi]
        short, columns = len(base.land), c_hi - c_lo

        def splice(x: np.ndarray, column: np.ndarray) -> np.ndarray:
            return np.concatenate(
                (x[..., :a], column, x[..., b:short + la], x[..., short + lb:]), axis=-1)

        self.read = splice(base.move_read, column_read)
        self.leave, self.charge = splice(
            base.moves, np.array([column_dist, column_dist * price[(column_read - 1) % n]]))
        self.land = np.concatenate(
            (base.land[:a], np.zeros(columns, np.int32), base.land[b:]), dtype=np.intp)
        self.land[a:a + columns] = n + g_lo
        self.land[a + columns:] -= drop
        self.runs = base.long_runs
        if ra < self.runs.shape[1]:  # long runs from the goal's states on
            self.runs = np.concatenate((self.runs[:, :ra], self.runs[:, rb:]), axis=1)
            self.runs[0, ra:] -= drop
            self.runs[1, ra:] -= lb - la
        # The grid is as wide as the most levels, and one more with initial
        # fuel.
        self.width = base.width.item()
        self.fresh = None
        if merged is not None:
            self.fresh = (pick >= base.states.shape[1]).nonzero()[0]
            # A new level x of v takes a cell of v, above the levels below
            # it, so a move from v that buys above x (or up to x, into the
            # goal) reads one rank higher.  No move lands in a new level, so
            # it stays +inf past layer 0.
            self.width += 1
            self.cell = 1 + (np.arange(size) - offset[state_v]) * n + state_v
            x = np.full(n, math.inf)
            x[state_v[self.fresh]] = state_q[self.fresh]
            x = x[(self.read - 1) % n]
            up = x < self.leave
            into_goal = slice(a, a + columns)
            up[into_goal] = x[into_goal] <= self.leave[into_goal]
            self.read += n * up
            # Slot n + i becomes n + merged[i], in order.
            slot = np.concatenate((np.arange(n), n + merged))
            self.land = slot[self.land]
            if self.runs.shape[1]:
                self.runs = np.array([slot[self.runs[0]], self.runs[1]])
        self.cell[self.goal] = 0
        self.grid = np.full(1 + self.width * n, math.inf)
        self.lanes = self.grid[1:].reshape(self.width, n)

    def minima(self, layer: np.ndarray) -> np.ndarray:
        """The grid of a layer's prefix minima: cell 1 + j·n + v
        holds the least A - c·q over the levels of v up to the j-th."""
        grid, lanes = self.grid, self.lanes
        grid[self.cell] = layer[:self.size] - self.worth
        if len(lanes[0]) < _ROW_BY_ROW:
            np.minimum.accumulate(lanes, axis=0, out=lanes)
        else:
            for j in range(1, len(lanes)):
                np.minimum(lanes[j], lanes[j - 1], out=lanes[j])
        return grid

    def moves_into(self, state: int) -> tuple[int, int]:
        """The range of the per-arc moves that land in state."""
        slot, short = len(self.offset) - 1 + state, len(self.land)
        lo, hi = self.land.searchsorted([slot, slot + 1]).tolist()
        if lo == hi:  # a long run
            slots, starts = self.runs[0], self.runs[1]
            r = int(slots.searchsorted(slot))
            lo, hi = short + starts.item(r), len(self.read)
            if r + 1 < len(starts):
                hi = short + starts.item(r + 1)
        return lo, hi

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
    """Relax table.depth layers and return (table, layers).

    inst and reach are in integral units (``reach.integral``).
    layers[k, :table.size] is A_k, and layers[k, table.size + u] the hub of
    u after it: the least cost of reaching u in k stops and filling up there
    (+inf on the last row, which nothing relaxes from).  Every move reads
    the prefix minima of the layer before, then the short runs land by one
    scatter-minimum and the long runs by one segment minimum.  Past the
    deadline, raises SolveTimeout with the states of the layers relaxed so
    far.
    """
    table = _Table(inst, reach)
    n, size = inst.graph.n, table.size
    layers = np.full((table.depth + 1, size + n), math.inf)
    layers[0][table.initial] = 0.0
    # The hubs of layer k - 1 and the states of layer k lie side by side,
    # slot by slot, and start at +inf.
    flat, read, charge, land = layers.ravel(), table.read, table.charge, table.land
    long_slot, long_start = table.runs[0], table.runs[1]
    short = len(land)
    for k in range(1, table.depth + 1):
        if deadline is not None and perf_counter() > deadline:
            raise SolveTimeout(SearchStats(dp_states_computed=(k - 1) * size))
        cost = table.minima(layers[k - 1])[read]
        cost += charge
        end = k * (size + n)
        slots = flat[end - n:end + size]
        np.minimum.at(slots, land, cost[:short])
        if len(long_slot):
            slots[long_slot] = np.minimum.reduceat(cost[short:], long_start)
        del cost  # freed before the next layer's gather, which then reuses its pages
    return table, layers


def _arc_step(table: _Table, grid: np.ndarray, target: float, state: int) -> tuple[int, float]:
    """The per-arc move into state that attains target from the lowest
    state, given the prefix minima of the layer before: (that state, the
    amount bought).  A move from tail u leaves from the first level of u
    whose prefix minimum is the one it reads."""
    n = len(table.offset) - 1
    lo, hi = table.moves_into(state)
    optimal = (grid[table.read[lo:hi]] + table.charge[lo:hi] == target).nonzero()[0]
    best = table.size
    for i in optimal.tolist():
        i += lo
        r = table.read.item(i)
        u = (r - 1) % n
        j = grid[1 + u:r + 1:n].tolist().index(grid.item(r))
        first, last = table.offset.item(u), table.offset.item(u + 1)
        s = first + table.cell[first:last].tolist().index(1 + j * n + u)
        if s < best:
            best, move = s, i
    return best, table.leave.item(move) - table.state_q.item(best)


def _reconstruct(inst: Instance, reach: ReachGraph, table: _Table, layers: np.ndarray,
                 k_star: int) -> Solution:
    # The schedule is collected goal first; nothing is bought at the goal.
    # Each step takes the optimal move from the lowest state.
    state = table.goal
    cost = layers.item(k_star, state)
    vertices, bought, arrival = [inst.goal], [0.0], [0.0]
    for k in range(k_star, 0, -1):
        target = layers.item(k, state)
        state, amount = _arc_step(table, table.minima(layers[k - 1]), target, state)
        vertices.append(table.state_v.item(state))
        arrival.append(table.state_q.item(state))
        bought.append(amount)
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
        if inst.q0 > 0.0:
            d_direct = reach.distance(inst.start, inst.goal)
            if d_direct is not None and d_direct <= inst.q0:
                return Solution.build(reach, [inst.start, inst.goal], [],
                                      [inst.q0, inst.q0 - d_direct], 0.0).from_units(
                    unit, money), stats

        table, layers = build_layers(inst, reach, deadline=deadline)
        stats.dp_states_computed = inst.k_max * table.size
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
