import gc
import math
import tracemalloc
import weakref
from collections import Counter
from time import perf_counter

import numpy as np
import pytest

from gsp import (
    FuelGraph,
    Infeasible,
    Instance,
    InvalidInstance,
    SolveTimeout,
    brute_force_solve,
    compute_reachable_sets,
    dp_solve,
    gas_values,
    gen_binomial,
    rfastar_solve,
    validate_solution,
)
from gsp import dp
from gsp.dp import _Table, build_layers
from gsp.reach import integral

from conftest import (A, B, O, T, decimal_price_graph, random_instance, worked_example,
                      worked_example_graph)


class TestGasValues:
    def test_worked_example_levels(self, wx, wx_reach):
        g = wx.graph
        assert gas_values(wx_reach, g, A, goal=T) == [0.0, 4.0]  # fill-up from o
        assert gas_values(wx_reach, g, B, goal=T) == [0.0]  # no cheaper predecessor
        assert gas_values(wx_reach, g, T, goal=T) == [0.0]  # goal arrivals are empty

    def test_vertex_without_predecessors(self):
        g = FuelGraph.build([1.0, 2.0], [(0, 1, 1.0)])
        reach = compute_reachable_sets(g, 2.0)
        assert gas_values(reach, g, 0) == [0.0]

    def test_levels_are_sorted_and_deduplicated(self):
        inst = random_instance(3)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        for v in range(inst.graph.n):
            levels = gas_values(reach, inst.graph, v, goal=inst.goal)
            assert levels == sorted(set(levels))
            assert levels[0] == 0.0


class TestDpSolve:
    def test_worked_example_cost_and_cells(self, wx, wx_reach):
        result, stats = dp_solve(wx, reach=wx_reach)
        assert result.total_cost == 15.0
        table, layers = build_layers(wx, wx_reach)
        assert layers[1][table.state(A, 4.0)] == 12.0
        assert layers[1][table.state(B, 0.0)] == 10.0
        assert layers[2][table.state(T, 0.0)] == 15.0
        assert stats.dp_states_computed == wx.k_max * table.size

    def test_past_deadline_times_out_before_any_layer(self, wx, wx_reach):
        with pytest.raises(SolveTimeout) as info:
            dp_solve(wx, reach=wx_reach, deadline=perf_counter() - 1.0)
        assert info.value.stats.dp_states_computed == info.value.stats.dp_layers == 0
        assert info.value.stats.search_time > 0.0

    def test_degenerate_start_equals_goal(self, wx):
        inst = Instance(wx.graph, O, O, 6.0, 2)
        result, _ = dp_solve(inst)
        assert result.total_cost == 0.0

    def test_single_stop_budget_is_infeasible(self):
        result, _ = dp_solve(worked_example(k_max=1))
        assert isinstance(result, Infeasible)

    def test_solution_replays_to_reported_cost(self, wx, wx_reach):
        result, _ = dp_solve(wx, reach=wx_reach)
        assert validate_solution(wx, result, wx_reach) == result.total_cost

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_search_and_oracle(self, seed):
        inst = random_instance(seed)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        dp_result, _ = dp_solve(inst, reach=reach)
        search_result, _ = rfastar_solve(inst, reach=reach)
        oracle_result = brute_force_solve(inst, reach=reach)
        if isinstance(dp_result, Infeasible):
            assert isinstance(search_result, Infeasible)
            assert isinstance(oracle_result, Infeasible)
        else:
            assert dp_result.total_cost == search_result.total_cost
            assert dp_result.total_cost == oracle_result.total_cost
            assert validate_solution(inst, dp_result, reach) == dp_result.total_cost

    @pytest.mark.parametrize("seed", range(8))
    def test_state_count_bound(self, seed):
        inst = random_instance(seed)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        _, stats = dp_solve(inst, reach=reach)
        bound = inst.k_max * sum(
            len(gas_values(reach, inst.graph, v, goal=inst.goal))
            for v in range(inst.graph.n)
        )
        assert stats.dp_states_computed <= bound

    @pytest.mark.parametrize("seed", range(8))
    def test_level_sets_bounded_by_indegree(self, seed):
        inst = random_instance(seed)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        indegree = Counter(v for entries in reach.succ for v, _ in entries)
        for v in range(inst.graph.n):
            levels = gas_values(reach, inst.graph, v, goal=inst.goal)
            assert len(levels) <= indegree[v] + 1

    @pytest.mark.parametrize("seed", range(8))
    def test_monotone_in_stop_budget(self, seed):
        inst = random_instance(seed)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        table, layers = build_layers(inst, reach)
        goal_state = table.state(inst.goal, 0.0)
        best = math.inf
        bests = []
        for layer in layers:
            best = min(best, float(layer[goal_state]))
            bests.append(best)
        assert bests == sorted(bests, reverse=True)

    @pytest.mark.parametrize("price, edges, q_max, target, sources, stops, cost", [
        # v = 3 is reached at level 0 in two stops for 6 both ways: filling up
        # at u (price 1) on the tankful hop u -> v, and buying the deficit at
        # w (price 2, as dear as v) on the hop w -> v, after filling up at the
        # start.  Here the fill-up leaves the lower state, u = 1 ...
        pytest.param([1.0, 1.0, 2.0, 2.0, 1.0],
                     [(0, 1, 2.0), (0, 2, 2.0), (1, 3, 4.0), (2, 3, 3.0), (3, 4, 3.0)], 4.0,
                     (2, 3, 0.0), ((1, 0.0), (2, 2.0)), ((0, 2.0), (1, 4.0), (3, 3.0)), 12.0,
                     id="1-2-stops0"),
        # ... and here the deficit move does, w = 1.
        pytest.param([1.0, 2.0, 1.0, 2.0, 1.0],
                     [(0, 2, 2.0), (0, 1, 2.0), (2, 3, 4.0), (1, 3, 3.0), (3, 4, 3.0)], 4.0,
                     (2, 3, 0.0), ((2, 0.0), (1, 2.0)), ((0, 4.0), (1, 1.0), (3, 3.0)), 12.0,
                     id="2-1-stops1"),
        # x = 3 (price 5) is reached in two stops at level 6 for 14, filling
        # up at the start and at a = 1, and at level 7 for 19, buying the hop
        # to b = 2 at the start and filling up there.  Both buy the hop x -> 4
        # of fuel 9 for 29 in all: one arc whose prefix minimum of A - 5·q,
        # -16, two levels of its tail attain.
        pytest.param([1.0, 2.0, 1.0, 5.0, 5.0],
                     [(0, 1, 2.0), (0, 2, 9.0), (1, 3, 4.0), (2, 3, 3.0), (3, 4, 9.0)], 10.0,
                     (3, 4, 0.0), ((3, 6.0), (3, 7.0)), ((0, 10.0), (1, 2.0), (3, 3.0)), 29.0,
                     id="two-levels-of-one-tail"),
    ])
    def test_tie_goes_to_the_lowest_source_state(self, price, edges, q_max, target, sources,
                                                 stops, cost):
        """State (v, q) of layer k is attained from each source state of
        layer k - 1 by one move, and from 0 to 4 the optimal move from the
        lowest of them is taken."""
        graph = FuelGraph.build(price, edges)
        inst = Instance(graph, 0, 4, q_max, 3)
        reach = compute_reachable_sets(graph, q_max)
        table, layers = build_layers(inst, reach)
        k, v, q = target
        into, src = table.state(v, q), [table.state(u, level) for u, level in sources]
        _, moves = _table_moves(inst, table)
        for s, source in zip(src, sources):
            assert [layers[k - 1][s] + c for a, b, c, _ in moves if (a, b) == (source, (v, q))] == [
                layers[k][into]]
        result, _ = dp_solve(inst, reach=reach)
        assert result.stops == stops
        assert (result.route[k - 1][0], result.arrival_fuel[k - 1]) == min(sources)
        assert result.total_cost == cost

    @pytest.mark.parametrize("edges, start, goal, route", [
        # With 2 units at the start, the start and its coast arrival (1, 1)
        # each buy 1 to reach vertex 2 empty, all prices being 1, and 2 then
        # buys 4 into the goal 3 ...
        ([(0, 1, 1.0), (0, 2, 3.0), (1, 2, 2.0), (2, 3, 4.0)], 0, 3, (0, 2, 3)),
        ([(1, 0, 1.0), (1, 2, 3.0), (0, 2, 2.0), (2, 3, 4.0)], 1, 3, (1, 0, 2, 3)),
        # ... or each buys 1 into the goal 2 itself.
        ([(0, 1, 1.0), (0, 2, 3.0), (1, 2, 2.0)], 0, 2, (0, 2)),
        ([(1, 0, 1.0), (1, 2, 3.0), (0, 2, 2.0)], 1, 2, (1, 0, 2)),
    ], ids=["inner-start", "inner-coast", "goal-start", "goal-coast"])
    def test_first_stop_tie_goes_to_the_lowest_initial_state(self, edges, start, goal, route):
        """The first stop leaves the lower of two initial states, vertex 0,
        whether it is the start or a coast arrival."""
        graph = FuelGraph.build([1.0] * (max(route) + 1), edges)
        result, _ = dp_solve(Instance(graph, start, goal, 5.0, 2, 2.0))
        assert tuple(v for v, _ in result.route) == route
        assert result.stops[0] == (0, 1.0)
        assert result.total_cost == (5.0 if goal == 3 else 1.0)

    def test_a_huge_stop_limit_relaxes_no_more_layers_than_states(self, wx_reach):
        result, stats = dp_solve(worked_example(k_max=10**12), reach=wx_reach)
        table, layers = build_layers(worked_example(k_max=10**12), wx_reach)
        assert len(layers) == table.relaxed + 1
        assert repr(result) == repr(dp_solve(worked_example(k_max=2), reach=wx_reach)[0])
        assert stats.dp_states_computed == 10**12 * table.size
        assert stats.dp_layers == 2 < table.depth
        # A grid query relaxes 7 of its 1,330 layers and allocates no others.
        small = _grid_instance(40, 90, rows=22)
        huge = Instance(small.graph, small.start, small.goal, small.q_max, 10**6)
        reach = compute_reachable_sets(small.graph, small.q_max)
        cost = dp_solve(small, reach=reach)[0].total_cost  # builds reach.table
        (result, stats), peak = _traced(dp_solve, huge, reach=reach)
        assert peak < 2**20
        assert result.total_cost == cost == 68.0
        assert stats.dp_layers == 7 and _Table(huge, reach).depth == 1330

    def test_a_star_keeps_one_cell_per_state(self):
        """A hub with 600 levels and 599 leaves with one each: 1,199 states,
        which no query pads to 600 per vertex."""
        price = [100.0] + [float(1 + i % 50) for i in range(1, 600)]
        edges = [(i, 0, float(i)) for i in range(1, 600)] + [(0, i, 600.0) for i in range(1, 600)]
        inst = Instance(FuelGraph.build(price, edges), 5, 7, 600.0, 3)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        dp_solve(inst, reach=reach)  # builds reach.table
        assert _Table(inst, reach).size == 1199
        (result, _), peak = _traced(dp_solve, inst, reach=reach)
        assert peak < 2**20
        assert result.total_cost == rfastar_solve(inst, reach=reach)[0].total_cost == 4100.0

    def test_fill_up_leaves_the_lowest_level_of_its_tail(self):
        """From a dry start with 3 units, u = 3 is reached in one stop empty
        for 2 (the deficit at x = 2) or with 1 unit for 4 (a fill-up at s =
        1), and filling up there costs 10 from either level.  The schedule
        leaves u's lower level."""
        graph = FuelGraph.build([math.inf, 1.0, 2.0, 2.0, 3.0, 5.0],
                                [(0, 1, 3.0), (0, 2, 3.0), (1, 3, 3.0), (2, 3, 1.0), (3, 4, 2.0),
                                 (4, 5, 4.0)])
        inst = Instance(graph, 0, 5, 4.0, 3, 3.0)
        reach = compute_reachable_sets(graph, 4.0)
        table, layers = build_layers(inst, reach)
        low, high = table.state(3, 0.0), table.state(3, 1.0)
        price = graph.price[3]
        assert (layers[1][low] + (inst.q_max - 0.0) * price
                == layers[1][high] + (inst.q_max - 1.0) * price == 10.0)
        result, _ = dp_solve(inst, reach=reach)
        assert result.stops == ((2, 1.0), (3, 4.0), (4, 2.0))
        assert result.arrival_fuel == (3.0, 0.0, 0.0, 2.0, 0.0)
        assert result.total_cost == 16.0

    def test_initial_fuel_matches_oracle(self):
        for seed in range(6):
            inst = random_instance(seed, with_q0=True)
            dp_result, _ = dp_solve(inst)
            oracle_result = brute_force_solve(inst)
            if isinstance(dp_result, Infeasible):
                assert isinstance(oracle_result, Infeasible)
            else:
                assert dp_result.total_cost == oracle_result.total_cost


def _traced(fn, *args, **kwargs):
    """(fn's result, the peak of the memory it allocated, in bytes)."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _decimal(inst):
    """inst with fuels, tank and initial fuel in tenths and prices times 1.1,
    each the float nearest its decimal."""
    g = inst.graph
    graph = FuelGraph.build([p * 11 / 10 for p in g.price],
                            [(u, v, d / 10) for u, v, d in g.edges])
    return Instance(graph, inst.start, inst.goal, inst.q_max / 10, inst.k_max, inst.q0 / 10)


def _integral(inst):
    """inst and its reach graph in the query's integral units, as dp_solve
    relaxes them."""
    return integral(inst, None, inst.k_max)[:2]


def _grid_graph(rows=6, side=6):
    """A road grid with fuels 1..9 both ways, prices 1..9 and a dry station
    in every ninth or so: 6 x 6 with a tank of 20 gives a vertex up to 17
    levels."""
    n = rows * side
    edges = []
    for v in range(n):
        for w in (v + 1, v + side):
            if w < n and (w == v + side or w % side):
                f = float(1 + (7 * v + 3 * w) % 9)
                edges += [(v, w, f), (w, v, f)]
    price = [math.inf if v % 36 in (7, 15, 28) else float(1 + 5 * v % 9) for v in range(n)]
    return FuelGraph.build(price, edges)


def _grid_instance(start, goal, q0=0.0, rows=6):
    return Instance(_grid_graph(rows), start, goal, 20.0, 4, q0)


# The worked example with every price times m, 2 stops and a tank of 6: the
# solvers take it while 3 * 6 * (5 * m) < 2**53 and refuse it from there.
_BOUND_SCALE = (2**53 - 1) // 90


def _scaled_example(m):
    g = worked_example_graph()
    return Instance(FuelGraph.build([p * m for p in g.price], list(g.edges)), O, T, 6.0, 2)


# The inputs whose layers are checked against a Python relaxation.
_LAYER_INPUTS = [
    *(random_instance(seed, with_q0=q0) for seed in range(25) for q0 in (False, True)),
    *(_decimal(random_instance(seed, with_q0=seed % 2 == 1)) for seed in range(25)),
    *(Instance(decimal_price_graph(), s, t, 10.0, 3, q0)
      for s in range(3) for t in range(3) if s != t for q0 in (0.0, 4.0, 9.0, 10.0)),
    _grid_instance(0, 35), _grid_instance(20, 3), _grid_instance(0, 35, 7.0),
    _grid_instance(14, 21, 12.0), _grid_instance(9, 26, 20.0),
    _grid_instance(40, 90, rows=22), _grid_instance(40, 90, 9.0, rows=22),
    _scaled_example(_BOUND_SCALE), _grid_instance(9, 26, 12.5),
]


def _coasts(inst, reach):
    """Free-coast arrivals (vertex, level) on the initial fuel, in succ order."""
    return [(v, inst.q0 - d) for v, d in reach.succ[inst.start]
            if d <= inst.q0 and v != inst.goal]


def _naive_states(inst, reach):
    """The states of the naive method as (vertex, level) pairs: (the levels
    of gas_values, the initial states)."""
    levels = {(v, q) for v in range(inst.graph.n)
              for q in gas_values(reach, inst.graph, v, goal=inst.goal)}
    return levels, {(inst.start, inst.q0), *_coasts(inst, reach)}


def _reference_moves(inst, reach):
    """Every move of the purchase rule between the states of the naive
    method, (source, landing, cost, amount) with (vertex, level) states,
    from Python loops over succ."""
    g, q_max = inst.graph, inst.q_max
    levels, initial = _naive_states(inst, reach)
    moves = set()
    for u, q in levels | initial:
        cu = g.price[u]
        if u == inst.goal or not math.isfinite(cu):
            continue
        for v, d in reach.succ[u]:
            if v == inst.goal:
                a, arrive, ok = d - q, 0.0, d >= q
            elif cu < g.price[v]:
                a, arrive, ok = q_max - q, q_max - d, q < q_max
            else:
                a, arrive, ok = d - q, 0.0, d > q
            if ok:
                assert (v, arrive) in levels
                moves.add(((u, q), (v, arrive), a * cu, a))
    return moves


def _python_layers(inst, reach):
    """Layers 0 to k_max of the naive method, relaxed over the reference
    moves: dicts from every (vertex, level) state to its value."""
    moves = _reference_moves(inst, reach)
    levels, initial = _naive_states(inst, reach)
    layer = dict.fromkeys(levels | initial, math.inf) | dict.fromkeys(initial, 0.0)
    for _ in range(inst.k_max):
        yield layer
        nxt = dict.fromkeys(layer, math.inf)
        for src, dst, cost, _ in moves:
            nxt[dst] = min(nxt[dst], layer[src] + cost)
        layer = nxt
    yield layer


def _table_moves(inst, table):
    """Every (source, landing, cost, amount) move a table relaxes, with
    (vertex, level) states: (those of layer 1, out of the initial states;
    those of every later layer).  A per-arc move from tail u stands for one
    move from every level of u up to the level it reads.  The goal's cells
    are never read, and only its column lands in its level 0."""
    price, base = inst.graph.price, table.base
    level = dict(table.initial)

    def pair(s):
        return int(table.state_v[s]), float(table.state_q[s])

    levels = {}  # every vertex's levels
    for v, q in map(pair, range(len(table.state_v))):
        levels.setdefault(v, []).append(q)
    per_arc = [(pair(read), leave, pair(s)) for read, leave, s in zip(
        base.move_read.tolist(), base.moves[0].tolist(), base.land.tolist())
        if pair(s)[0] != inst.goal]
    per_arc += [(pair(read), leave, pair(table.goal))
                for read, leave in zip(table.column[0].tolist(), table.column[1].tolist())]
    later = []
    for (u, top), leave, into in per_arc:
        if u == inst.goal:
            continue
        for q in levels[u]:
            if q <= top:
                later.append(((u, q), into, (leave - q) * price[u], leave - q))
    first = [((v, x), pair(table.goal), cost, a) for cost, v, x, a in table.into_goal]
    for move, s, cost in zip(*(a.tolist() for a in table.first)):
        u = pair(base.move_read[move])[0]
        if cost < math.inf and pair(s)[0] != inst.goal:
            first.append(((u, level[u]), pair(s), cost, float(base.moves[0][move]) - level[u]))
    return first, later


def _check_moves(inst, reach, table):
    """The table's moves are the purchase rule's: those of layer 1 leave the
    initial states, those of every later layer the states of gas_values."""
    first, later = _table_moves(inst, table)
    assert len(first) == len(set(first)) and len(later) == len(set(later))
    moves = _reference_moves(inst, reach)
    levels, initial = _naive_states(inst, reach)
    assert set(first) == {m for m in moves if m[0] in initial}
    assert set(later) == {m for m in moves if m[0] in levels}


class TestArrayTable:
    @pytest.mark.parametrize("with_q0", [False, True])
    @pytest.mark.parametrize("seed", range(25))
    def test_levels_match_gas_values(self, seed, with_q0):
        inst = random_instance(seed, with_q0=with_q0)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        table = _Table(inst, reach)
        base = reach.table
        for v in range(inst.graph.n):  # the goal and the start included
            states = np.flatnonzero(table.state_v == v)  # by rank
            assert (states == base.rank_start[:len(states)] + base.ptr[0, v]).all()
            if v == inst.goal:
                assert states[0] == table.goal and states[1:].tolist() == table.above.tolist()
                states = states[:1]  # its levels above 0 are no states
            assert table.state_q[states].tolist() == gas_values(
                reach, inst.graph, v, goal=inst.goal)
        levels, initial = _naive_states(inst, reach)
        assert table.initial == sorted(initial)
        assert [table.state(v, q) for v, q in table.initial if (v, q) in levels] == (
            table.start_states)
        assert table.size == len(levels | initial)

    @pytest.mark.parametrize("with_q0", [False, True])
    @pytest.mark.parametrize("seed", range(25))
    def test_moves_match_the_purchase_rule(self, seed, with_q0):
        inst = random_instance(seed, with_q0=with_q0)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        _check_moves(inst, reach, _Table(inst, reach))

    @pytest.mark.parametrize("inst", [
        *(_decimal(random_instance(seed, with_q0=q0))
          for seed in range(10) for q0 in (False, True)),
        *(Instance(decimal_price_graph(), s, t, 10.0, 3, q0)
          for s in range(3) for t in range(3) if s != t for q0 in (0.0, 4.0, 10.0)),
    ])
    def test_rows_match_the_purchase_rule(self, inst):
        """Decimal inputs: the per-arc moves of the query's integral view."""
        inst, reach = _integral(inst)
        assert inst.graph.decimals == (0, 0) and inst.q_max.is_integer()
        _check_moves(inst, reach, _Table(inst, reach))

    @pytest.mark.parametrize("inst", _LAYER_INPUTS)
    def test_layers_match_a_python_relaxation(self, inst):
        """Every layer up to the exit equals the reference's, and no layer
        after it is allocated.  The reference stops at the same rule, the
        first layer with no state below the least goal value so far, and
        relaxed on to k_max it never gives the goal less."""
        inst, reach = _integral(inst)
        table, layers = build_layers(inst, reach)
        levels, initial = _naive_states(inst, reach)
        goal = (inst.goal, 0.0)
        assert len(layers) == table.relaxed + 1
        above = set(table.above.tolist())
        best, exit_k = math.inf, None
        for k, prev in enumerate(_python_layers(inst, reach)):
            if exit_k is None:
                # A cell of a layer is a state of the base: no hub has one.
                # The fill-up moves the hubs stood for are among the
                # reference moves.
                row = layers[k]
                assert len(row) == len(table.state_v)
                assert {(int(table.state_v[s]), float(table.state_q[s])): row[s]
                        for s in range(len(row)) if s not in above} == {
                            state: prev[state] for state in levels}
                assert (row[table.above] == math.inf).all()
                if k:  # nothing lands in an initial level the base lacks
                    assert all(prev[state] == math.inf for state in initial - levels)
                    best = min(best, prev[goal])
                    if not min(prev.values()) < best:
                        exit_k = k
            else:
                assert not prev[goal] < best
        assert table.relaxed == (inst.k_max if exit_k is None else exit_k)

    def test_layer_inputs_cover_the_per_arc_cases(self):
        """The grid inputs above: many levels per vertex, initial fuel that
        gives the start and its coasts new levels, goals with fill-up levels
        in the base table, and runs on each side of _SHORT_RUN in one
        table; the scaled examples lie on each side of the 2**53 limit, and
        the one past it is refused."""
        reach = compute_reachable_sets(_grid_graph(), 20.0)
        levels = np.bincount(reach.table.states)
        assert levels.max() >= 10
        assert levels[35] > 1 and levels[21] > 1
        assert len(set(np.diff(reach.table.rank_start).tolist())) > 2  # ranks of several lengths
        for inst in (_grid_instance(0, 35, 7.0), _grid_instance(14, 21, 12.0)):
            table = _Table(inst, reach)
            levels, _ = _naive_states(inst, reach)
            fresh = [v for v, q in table.initial if (v, q) not in levels]
            assert len(fresh) > 1
            assert (inst.start in fresh) == (inst.start == 0)
            runs = Counter(table.base.land.tolist())
            assert min(runs.values()) < dp._SHORT_RUN <= max(runs.values())
            assert 0 < table.short < len(table.base.land) and table.base.long_runs.shape[1] > 0
        inst = _scaled_example(_BOUND_SCALE)
        assert 3 * 6 * (5 * _BOUND_SCALE) < 2**53 <= 3 * 6 * (5 * (_BOUND_SCALE + 1))
        assert _Table(inst, compute_reachable_sets(inst.graph, inst.q_max)).depth == 2
        assert dp_solve(inst)[0] == rfastar_solve(inst)[0]
        past = _scaled_example(_BOUND_SCALE + 1)
        for solve in (dp_solve, rfastar_solve):
            with pytest.raises(InvalidInstance, match="2\\*\\*53"):
                solve(past)

    @pytest.mark.parametrize("short_run", [1, 10**9], ids=["segment-minima", "scatter-minima"])
    def test_either_way_of_landing_gives_the_same_layers(self, monkeypatch, short_run):
        """Landing every run by a segment minimum (every base run is long)
        or by the scatter-minimum (every run is short) relaxes the same
        layers to the bit and gives the same answers."""
        cases = [*_LAYER_INPUTS, *(random_instance(seed, with_q0=q0)
                                   for seed in range(200) for q0 in (False, True))]

        def solve_all():
            out = []
            for inst in cases:
                scaled, reach = _integral(inst)
                table, layers = build_layers(scaled, reach)
                result, stats = dp_solve(inst, reach=reach if scaled is inst else None)
                out.append(([row.tobytes() for row in layers], repr(result),
                            stats.dp_states_computed))
                if dp._SHORT_RUN == 1:  # every run is long
                    assert table.short == 0
                elif dp._SHORT_RUN == 10**9:
                    assert table.base.long_runs.shape[1] == 0
            return out

        expected = solve_all()
        monkeypatch.setattr(dp, "_SHORT_RUN", short_run)
        assert solve_all() == expected

    def test_unknown_state_raises(self, wx, wx_reach):
        table = _Table(wx, wx_reach)
        with pytest.raises(KeyError):
            table.state(B, 4.0)


class TestExit:
    """build_layers stops after the first layer with no state below the
    least goal value so far: no later move makes anything cheaper."""

    def test_a_zero_price_tie_stops_at_the_fewest_stops(self):
        """Every price is 0, so the goal costs 0 in one stop (0 -> 2) and
        again in two (0 -> 1 -> 2).  No state of layer 1 is below 0, so the
        exit fires on the tie and the answer keeps one stop."""
        graph = FuelGraph.build([0.0] * 3, [(0, 1, 2.0), (1, 2, 2.0), (0, 2, 4.0)])
        inst = Instance(graph, 0, 2, 4.0, 3)
        table, layers = build_layers(inst, compute_reachable_sets(graph, 4.0))
        assert table.depth == 3 and table.relaxed == 1
        assert len(layers) == table.relaxed + 1
        result, stats = dp_solve(inst)
        assert result.stops == ((0, 4.0),) and result.total_cost == 0.0
        assert stats.dp_layers == 1 and stats.dp_states_computed == 3 * table.size

    def test_an_infeasible_query_stops_after_its_first_empty_layer(self):
        """Vertex 1, reached in one stop, has no arc on, and nothing reaches
        the goal 2: layer 2 is empty."""
        graph = FuelGraph.build([1.0] * 3, [(0, 1, 1.0)])
        inst = Instance(graph, 0, 2, 2.0, 4)
        table, layers = build_layers(inst, compute_reachable_sets(graph, 2.0))
        assert table.depth == 3 and table.relaxed == 2
        assert len(layers) == table.relaxed + 1
        result, stats = dp_solve(inst)
        assert isinstance(result, Infeasible)
        assert stats.dp_layers == 2 and stats.dp_states_computed == 4 * table.size

    def test_a_late_improvement_is_not_cut_off(self):
        """The goal 3 costs 24 in one stop (4 units at 0), but 16 in three:
        1 unit at 0, a fill-up at the cheap vertex 1 back to 0, and the last
        unit there.  Layers 1 and 2 hold states below 24, and layer 3 one
        below 16, (1, 0) at 15, so the loop goes on to layer 4, whose states
        all cost at least 19, although its goal costs 43."""
        graph = FuelGraph.build([6.0, 1.0, 5.0, 4.0],
                                [(0, 1, 1.0), (0, 3, 4.0), (1, 0, 1.0), (1, 2, 2.0), (2, 1, 3.0)])
        inst = Instance(graph, 0, 3, 4.0, 8)
        reach = compute_reachable_sets(graph, 4.0)
        table, layers = build_layers(inst, reach)
        full = [layer[(3, 0.0)] for layer in _python_layers(inst, reach)]
        assert full[:5] == [row[table.goal] for row in layers] == [
            math.inf, 24.0, math.inf, 16.0, 43.0]
        assert min(full[4:]) > 16.0  # relaxed on to k_max
        assert table.depth == 6 and table.relaxed == 4
        assert len(layers) == table.relaxed + 1
        result, stats = dp_solve(inst, reach=reach)
        assert result.stops == ((0, 1.0), (1, 4.0), (0, 1.0)) and result.total_cost == min(full)
        assert stats.dp_layers == 4


def _overlay_graph():
    """Prices 1, 3, 2, 5 and tank 10, shaped so that each query overlay case
    occurs: vertex 0 is cheaper than goal 1, so its fill-up arc 0 -> 1 turns
    into deficit rows; vertex 3, dearer than goal 2, has level 7 (from 1 -> 3
    of fuel 3) and the arc 3 -> 2 of fuel 7, so a row into the goal buys 0."""
    return FuelGraph.build([1.0, 3.0, 2.0, 5.0], [
        (0, 1, 4.0), (1, 3, 3.0), (3, 2, 7.0), (0, 2, 4.0), (2, 0, 5.0), (2, 3, 6.0)])


def _solve_key(inst, reach):
    result, stats = dp_solve(inst, reach=reach)
    return repr(result), stats.dp_states_computed


def _table_key(inst, table):
    first, later = _table_moves(inst, table)
    return (table.state_v.tolist(), table.state_q.tolist(), table.initial, table.start_states,
            table.goal, table.above.tolist(), table.size, table.depth, sorted(first), sorted(later))


class TestTableBase:
    """The goal-independent part of the table, ReachGraph.table, is built on
    the first DP query, shared by every later query on the same reach graph,
    and never written by one."""

    @pytest.mark.parametrize("graph, q_max", [
        (_overlay_graph(), 10.0),
        *((random_instance(seed).graph, random_instance(seed).q_max) for seed in range(4)),
    ])
    def test_queries_leave_nothing_behind(self, graph, q_max):
        queries = [Instance(graph, s, t, q_max, 3, q0)
                   for s in range(graph.n) for t in range(graph.n) if s != t
                   for q0 in (0.0, q_max // 2, q_max)]
        fresh = {}
        for inst in queries:
            reach = compute_reachable_sets(graph, q_max)
            fresh[inst] = (_table_key(inst, _Table(inst, reach)), _solve_key(inst, reach))
        for order in (queries, queries[::-1]):
            shared = compute_reachable_sets(graph, q_max)
            for inst in order:
                key = (_table_key(inst, _Table(inst, shared)), _solve_key(inst, shared))
                assert key == fresh[inst]

    def test_overlay_graph_covers_each_case(self):
        graph = _overlay_graph()
        reach = compute_reachable_sets(graph, 10.0)

        def moves_into_goal(inst):
            first, later = _table_moves(inst, _Table(inst, reach))
            return [(*source, a) for source, t, _, a in first + later if t == (inst.goal, 0.0)]

        # Goal 1: the tail 0 is cheaper, so its fill-up arc of fuel 4 buys
        # 4 - q from each of its levels up to 4, here 0.
        assert (0, 0.0, 4.0) in moves_into_goal(Instance(graph, 0, 1, 10.0, 3))
        # Goal 2: the dearer tail 3 reaches it from level 7 with d = 7.
        assert (3, 7.0, 0.0) in moves_into_goal(Instance(graph, 0, 2, 10.0, 3))
        # A full start fills nothing: no move from its level buys anything.
        inst = Instance(graph, 0, 2, 10.0, 3, 10.0)
        table = _Table(inst, reach)
        assert table.initial[0] == (0, 10.0)
        first, _ = _table_moves(inst, table)
        assert not [a for source, _, _, a in first if source == (0, 10.0) and a > 0.0]
        move, _, cost = table.first
        from_start = table.state_v[table.base.move_read[move]] == 0
        assert from_start.any() and (cost[from_start] == math.inf).all()

    def test_built_once_on_the_first_dp_query(self):
        inst = random_instance(7, with_q0=True)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        assert "table" not in vars(reach)  # not part of the reach build
        dp_solve(inst, reach=reach)
        base = reach.table
        dp_solve(Instance(inst.graph, inst.goal, inst.start, inst.q_max, inst.k_max), reach=reach)
        assert reach.table is base
        assert "_views" not in vars(reach)  # integral: no query took another unit
        # A q0 in halves is solved on the view in tenths, which keeps a
        # table of its own, built once.
        for _ in range(2):
            dp_solve(Instance(inst.graph, inst.start, inst.goal, inst.q_max, inst.k_max, 0.5),
                     reach=reach)
            view = reach.in_units(10)
            assert list(vars(reach)["_views"]) == [10] and reach.table is base
        assert view.table is not base and view.q_max == 10 * reach.q_max

    def test_arrays_are_read_only(self):
        inst = random_instance(7, with_q0=True)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        dp_solve(inst, reach=reach)
        assert not any(a.flags.writeable for a in reach.table)
        with pytest.raises(ValueError, match="read-only"):
            reach.table.levels[1, 0] = 0.0

    def test_freed_with_the_reach_graph(self):
        inst = random_instance(7, with_q0=True)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        dp_solve(inst, reach=reach)
        ref = weakref.ref(reach.table.states)
        gc.disable()
        try:
            del reach
            assert ref() is None
        finally:
            gc.enable()


class _NumpyLookups:
    """numpy, counting the names looked up on it."""

    def __init__(self):
        self.names = Counter()

    def __getattr__(self, name):
        self.names[name] += 1
        return getattr(np, name)


class TestOverlay:
    """A query's _Table reads ReachGraph.table in place: per query it holds
    only arrays of the initial states' moves and of the goal's column."""

    @pytest.mark.parametrize("inst", [
        _grid_instance(40, 90, 9.0, rows=22),
        Instance(gen_binomial(128, 0.3, seed=1), 3, 77, 16.0, 4),
    ], ids=["sparse-grid", "desk"])
    def test_a_query_shares_the_base_arrays(self, inst):
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        table, base = _Table(inst, reach), reach.table
        assert table.base is base
        for a, b in [(table.state_v, base.states), (table.state_q, base.levels),
                     (table.column[0], base.column_read),
                     (table.column[1], base.column_dist)]:
            assert np.shares_memory(a, b)
        rows = sum(len(reach.succ[v]) for v, _ in table.initial)
        longest = max(rows, len(table.column[0]))
        assert longest < min(len(table.state_v), len(base.land))
        held = [a for name, value in vars(table).items() if name != "base"
                for a in (value if isinstance(value, tuple) else [value])
                if isinstance(a, np.ndarray)]
        for a in held:
            assert any(np.shares_memory(a, b) for b in base) or a.size <= longest

    @pytest.mark.parametrize("inst", [
        _grid_instance(40, 90, rows=22), _grid_instance(40, 90, 9.0, rows=22),
        _grid_instance(0, 35), random_instance(6, with_q0=True),
    ])
    def test_the_read_back_takes_no_prefix_minima(self, monkeypatch, inst):
        """build_layers looks up np.minimum for every layer it relaxes; the
        read-back prices the moves into each state it passes from the kept
        layers, and looks up neither np.minimum nor np.full."""
        inst, reach = _integral(inst)
        expected = dp_solve(inst, reach=reach)[0]
        lookups = _NumpyLookups()
        monkeypatch.setattr(dp, "np", lookups)
        table, layers = build_layers(inst, reach)
        assert lookups.names["minimum"] >= table.relaxed
        lookups.names.clear()
        k = int(np.argmin([row[table.goal] for row in layers]))
        assert k >= 2
        result = dp._reconstruct(inst, reach, table, layers, k)
        assert lookups.names and not {"minimum", "full"} & lookups.names.keys()
        assert result == expected
