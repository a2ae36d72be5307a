import math
import random
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsp import (
    FuelGraph,
    Frontier,
    Infeasible,
    Instance,
    Label,
    SolveTimeout,
    brute_force_solve,
    build_heuristic,
    compute_reachable_sets,
    dominates,
    dp_solve,
    expand,
    gen_binomial,
    rfastar_solve,
    scalarized_dominates,
    validate_solution,
)
from gsp import search
from gsp.heuristic import h_for
from gsp.search import SearchOptions, _coast_children, refuel_amount, refuel_schedule_for_route

from conftest import (
    LONG_ROW_TANK,
    SHORT_ROW_TANK,
    A,
    B,
    O,
    T,
    child_labels,
    label_key,
    long_row_graph,
    random_instance,
    reference_expand,
    short_row_graph,
    unpruned_solve,
    worked_example,
)


class TestExpand:
    def test_initial_label_children(self, wx, wx_reach):
        ctx = build_heuristic(wx_reach, wx.goal)
        root = Label(O, 0.0, 0.0, 0)
        children = child_labels(root, expand(root, wx_reach, wx, ctx))
        assert sorted(label_key(c) for c in children) == [
            (A, 12.0, 4.0, 1),  # a is pricier than o: fill the tank
            (B, 10.0, 0.0, 1),  # b is cheaper: buy just the hop
        ]

    def test_goal_child_tops_up_exactly(self, wx, wx_reach):
        l1 = Label(A, 12.0, 4.0, 1)
        children = child_labels(l1, expand(l1, wx_reach, wx, None))
        goal = [c for c in children if c.v == T]
        assert [label_key(c) for c in goal] == [(T, 15.0, 0.0, 2)]

    def test_full_tank_toward_pricier_targets_yields_nothing(self):
        g = FuelGraph.build([1.0, 2.0, 3.0], [(0, 1, 2.0), (0, 2, 3.0)])
        inst = Instance(g, 0, 2, 5.0, 3)
        reach = compute_reachable_sets(g, 5.0)
        # At o with a full tank every fill-up amount is zero, and the goal
        # hop is already covered, so no labels come out.
        children = expand(Label(0, 5.0, 5.0, 1), reach, inst, None)
        assert children == []

    def test_non_refuellable_targets_are_skipped(self):
        g = FuelGraph.build([1.0, math.inf, 2.0], [(0, 1, 2.0), (1, 2, 2.0), (0, 2, 5.0)])
        inst = Instance(g, 0, 2, 5.0, 2)
        reach = compute_reachable_sets(g, 5.0)
        root = Label(0, 0.0, 0.0, 0)
        children = child_labels(root, expand(root, reach, inst, None))
        assert {c.v for c in children} == {2}

    def test_unreachable_goal_targets_are_skipped(self):
        # Vertex 2 is a trap with no way back to the goal 0.
        g = FuelGraph.build([1.0, 1.0, 1.0], [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0)])
        inst = Instance(g, 1, 0, 5.0, 2)
        reach = compute_reachable_sets(g, 5.0)
        ctx = build_heuristic(reach, 0)
        assert math.isinf(ctx.d_to_goal[2])
        l1 = Label(1, 3.0, 0.0, 1)
        children = child_labels(l1, expand(l1, reach, inst, ctx))
        assert children and all(c.v != 2 for c in children)


class TestLazyChildren:
    """expand() returns a heap of plain tuples, or for a long row a _Run over
    arrays; the search builds a Label only for the children it takes off a
    parent's cursor."""

    @staticmethod
    def _check_entries(l: Label, reach, inst: Instance, ctx):
        """expand()'s children of l, each checked against refuel_amount and
        h_for by repr, so that -0.0 and the last bit count; a heap's entries
        are read in heap order, a _Run's in pop order."""
        price = inst.graph.price
        children = expand(l, reach, inst, ctx)
        entries = list(children)
        if isinstance(children, list):
            assert all(entries[(i - 1) // 2] <= e for i, e in enumerate(entries) if i)
        by_vertex = {e[2]: e for e in entries}
        assert len(by_vertex) == len(entries)
        for v2, d in reach.succ[l.v]:
            into_goal = v2 == inst.goal
            a, arrive = refuel_amount(price[l.v], price[v2], l.q, d, inst.q_max, into_goal)
            h = h_for(ctx, v2, arrive) if ctx is not None else 0.0
            if a <= 0.0 or math.isinf(h) or (not into_goal and math.isinf(price[v2])):
                assert v2 not in by_vertex
                continue
            g = l.g + a * price[l.v]
            assert repr(by_vertex[v2]) == repr((g + h, -arrive, v2, g, a))
        return children

    @pytest.mark.parametrize("seed", range(6))
    def test_entries_form_a_heap_priced_by_the_shared_rules(self, seed):
        inst = random_instance(seed, with_q0=True)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        ctx = build_heuristic(reach, inst.goal)
        for l in (Label(inst.start, 0.0, inst.q0, 0), Label(inst.start, 3.0, 0.0, 1)):
            self._check_entries(l, reach, inst, ctx)

    @pytest.mark.parametrize("case", ["integral-q0", "decimal-q0", "no-heuristic",
                                      "dry-goal", "zero-price", "no-price-term"])
    def test_short_rows_are_priced_by_the_shared_rules(self, case):
        """The loop over rows below the gate applies refuel_amount's rule and
        h_for's operations inline.  Every selling vertex is a parent, with an
        empty tank, the query's q0 and a full tank (no fill-up child); the
        rows reach the goal, dry stations and the dead end, and h takes the
        price-aware term on some children unless the case drops it."""
        graph = short_row_graph(3, zero_price=case == "zero-price")
        reach = compute_reachable_sets(graph, SHORT_ROW_TANK)
        price, dead_end = graph.price, graph.n - 1
        dry = [v for v in range(graph.n) if math.isinf(price[v])]
        s, t = [v for v in range(1, dead_end) if price[v] < math.inf][:2]
        goal = dry[0] if case == "dry-goal" else t
        q0 = 2.5 if case == "decimal-q0" else 4.0
        inst = Instance(graph, s, goal, SHORT_ROW_TANK, 4, q0)
        ctx = None if case == "no-heuristic" else build_heuristic(reach, goal)
        if ctx is not None:
            assert ctx.relaxed_row is not None
            assert (ctx.c_min == 0.0) == (case == "zero-price")
            if case == "no-price-term":
                ctx.relaxed_row = None  # as on a graph outside relaxed_costs' gate
        heads, price_aware = set(), 0
        for v in range(graph.n):
            if math.isinf(price[v]):
                continue
            assert len(reach.succ[v]) < search._ROW_MIN
            heads.update(v2 for v2, _ in reach.succ[v])
            for q in (0.0, q0, SHORT_ROW_TANK):
                children = self._check_entries(Label(v, 3.0, q, 1), reach, inst, ctx)
                assert isinstance(children, list)
                if q == SHORT_ROW_TANK:
                    assert children == []  # every purchase would be <= 0
                if ctx is None or ctx.relaxed_row is None:
                    continue
                for _, neg_q, v2, _, _ in children:
                    arrive = -neg_q
                    price_aware += (price[v2] < math.inf and ctx.relaxed_row.item(v2)
                                    - arrive * price[v2] > (ctx.dist[v2] - arrive) * ctx.c_min)
        assert {goal, dead_end, *dry} <= heads
        assert (price_aware > 0) == (case not in ("no-heuristic", "no-price-term"))

    @pytest.mark.parametrize("case", ["integral-q0", "decimal-q0", "no-heuristic",
                                      "dry-goal", "zero-price", "no-price-term"])
    def test_long_rows_are_priced_by_the_shared_rules(self, monkeypatch, case):
        """Rows that pass the gate take the vector pass; every entry, read off
        the _Run in pop order, is the loop's, bit for bit, and reading takes
        none off.  Every row reaches dry stations and the dead end, from
        which the goal is unreachable."""
        graph = long_row_graph(3, zero_price=case == "zero-price")
        reach = compute_reachable_sets(graph, LONG_ROW_TANK)
        price, dead_end = graph.price, graph.n - 1
        dry = [v for v in range(graph.n) if math.isinf(price[v])]
        s, t, u = [v for v in range(1, dead_end) if price[v] < math.inf][:3]
        goal = dry[0] if case == "dry-goal" else t
        q0 = 2.5 if case == "decimal-q0" else 4.0
        inst = Instance(graph, s, goal, LONG_ROW_TANK, 4, q0)
        ctx = None if case == "no-heuristic" else build_heuristic(reach, goal)
        if ctx is not None:
            assert ctx.relaxed_row is not None
            if case == "no-price-term":
                ctx.relaxed_row = None  # as on a graph outside relaxed_costs' gate
            assert h_for(ctx, dead_end, 0.0) == math.inf
        if case == "zero-price":
            assert ctx.c_min == 0.0
        parents = [Label(s, 0.0, q0, 0), Label(s, 3.0, 0.0, 1), Label(0, 7.0, 11.0, 2),
                   Label(u, 1.0, LONG_ROW_TANK, 1)]
        for l in parents:
            row = {v for v, _ in reach.succ[l.v]}
            assert len(row) >= search._ROW_MIN and {goal, dead_end, *dry} - {l.v} <= row
            run = self._check_entries(l, reach, inst, ctx)
            assert isinstance(run, search._Run)
            entries = list(run)
            assert ctx is None or dead_end not in {e[2] for e in entries}
            with monkeypatch.context() as m:
                m.setattr(search, "_ROW_MIN", math.inf)
                looped = expand(l, reach, inst, ctx)
            assert repr(entries) == repr(sorted(looped))
            # Both reads left every entry on the _Run, in the same order.
            assert len(run) == len(entries)
            popped = []
            while run:
                assert run.key() == entries[len(popped)][:2]
                popped.append(run.pop())
            assert repr(popped) == repr(entries)

    def test_dense_graph_materialises_fewer_labels_than_it_computes(self, generated_labels):
        graph = gen_binomial(40, 0.9, seed=4)
        q_max = max(d for _, _, d in graph.edges)  # one tankful covers every arc
        inst = Instance(graph, 0, 39, q_max, 4)
        reach = compute_reachable_sets(graph, q_max)
        result, stats = rfastar_solve(inst, reach=reach)
        assert stats.labels_generated < len(generated_labels)
        assert result.total_cost == dp_solve(inst, reach=reach)[0].total_cost

    def test_long_rows_materialise_fewer_labels_than_they_price(self, generated_labels):
        """generated_labels records every child a _Run holds, popped or not."""
        graph = long_row_graph(0)
        reach = compute_reachable_sets(graph, LONG_ROW_TANK)
        inst = Instance(graph, 0, 1, LONG_ROW_TANK, 4)
        result, stats = rfastar_solve(inst, reach=reach)
        assert any(row is not None for row in reach.long_rows)
        assert len(generated_labels) >= search._ROW_MIN // 2
        assert stats.labels_generated < len(generated_labels)
        assert result.total_cost == dp_solve(inst, reach=reach)[0].total_cost

    def test_unpruned_tree_walks_every_child_of_a_run(self):
        graph = long_row_graph(1)
        reach = compute_reachable_sets(graph, LONG_ROW_TANK)
        inst = Instance(graph, 2, 3, LONG_ROW_TANK, 2)
        root = Label(inst.start, 0.0, 0.0, 0)
        run = expand(root, reach, inst, None)
        assert isinstance(run, search._Run)
        assert len(child_labels(root, run)) == len(run) >= search._ROW_MIN // 2
        assert unpruned_solve(inst, reach).total_cost == rfastar_solve(inst, reach=reach)[0].total_cost

    def test_a_run_builds_tuples_only_for_the_children_it_pops(self, monkeypatch):
        graph = long_row_graph(2)
        reach = compute_reachable_sets(graph, LONG_ROW_TANK)
        inst = Instance(graph, 0, 1, LONG_ROW_TANK, 4)
        runs, built = [], []
        expand_row, entry = search._expand_row, search._Run._entry

        def recording_row(*args):
            runs.append(expand_row(*args))
            return runs[-1]

        def recording_entry(run, j):
            built.append(j)
            return entry(run, j)

        monkeypatch.setattr(search, "_expand_row", recording_row)
        monkeypatch.setattr(search._Run, "_entry", recording_entry)
        _, stats = rfastar_solve(inst, reach=reach)
        assert runs and all(isinstance(getattr(run, name), np.ndarray)
                            for run in runs for name in ("f", "neg_q", "v", "g", "a", "order"))
        # Every label but the start comes off a _Run, and each pop builds one tuple.
        assert len(built) == sum(run.top for run in runs) == stats.labels_generated - 1
        assert len(built) < sum(len(run.order) for run in runs)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("q0", [0.0, 4.0, 2.5])
def test_vector_pass_solves_like_the_loop(monkeypatch, seed, q0):
    """Whole solves on rows that pass the gate give the loop's Solution and
    counters in every mode."""
    graph = long_row_graph(seed, zero_price=seed == 1)
    reach = compute_reachable_sets(graph, LONG_ROW_TANK)
    rng = random.Random(seed)
    insts = [Instance(graph, *rng.sample(range(graph.n), 2), LONG_ROW_TANK, rng.randint(2, 4), q0)
             for _ in range(8)]
    modes = [SearchOptions(), SearchOptions(unbounded_stops=True),
             SearchOptions(use_heuristic=False)]

    def solve_all():
        return [(repr(result), stats.labels_generated, stats.labels_expanded,
                 stats.labels_pruned, stats.heuristic_settled)
                for inst in insts for opts in modes
                for result, stats in [rfastar_solve(inst, opts, reach=reach)]]

    vectored = solve_all()
    assert any(row is not None for row in reach.long_rows)
    monkeypatch.setattr(search, "_ROW_MIN", math.inf)
    assert solve_all() == vectored


@pytest.mark.parametrize("with_q0", [False, True])
def test_every_row_on_the_vector_pass_solves_like_the_loop(monkeypatch, with_q0):
    """With the gate at 1 every row with an arc takes the vector pass, so the
    search meets _Runs of one child and _Runs that keep none."""
    modes = [SearchOptions(), SearchOptions(unbounded_stops=True),
             SearchOptions(use_heuristic=False)]
    kept = set()
    expand_row = search._expand_row

    def recording_row(*args):
        run = expand_row(*args)
        kept.add(len(run))
        return run

    monkeypatch.setattr(search, "_expand_row", recording_row)

    def solve_all(row_min: float):
        monkeypatch.setattr(search, "_ROW_MIN", row_min)
        rows = []
        for seed in range(300):
            inst = random_instance(seed, with_q0)
            # A fresh reach graph: long_rows is built for the gate of its first use.
            reach = compute_reachable_sets(inst.graph, inst.q_max)
            for opts in modes:
                result, stats = rfastar_solve(inst, opts, reach=reach)
                rows.append((repr(result), stats.labels_generated, stats.labels_expanded,
                             stats.labels_pruned, stats.heuristic_settled))
        return rows

    vectored = solve_all(1)
    assert {0, 1} <= kept
    kept.clear()
    assert solve_all(math.inf) == vectored
    assert not kept


def test_inlined_loop_solves_like_the_reference_loop(monkeypatch):
    """Whole solves with expand's inlined loop give the Solution and the
    counters of conftest's reference_expand, which calls refuel_amount and
    h_for per arc, in every mode; on the short-row graphs h takes the
    price-aware term when q0 is integral."""
    cases = []
    for seed in range(150):
        for with_q0 in (False, True):
            inst = random_instance(seed, with_q0)
            cases.append((inst, compute_reachable_sets(inst.graph, inst.q_max)))
    for seed in range(3):
        graph = short_row_graph(seed, zero_price=seed == 1)
        reach = compute_reachable_sets(graph, SHORT_ROW_TANK)
        assert reach.relaxed_cost is not None
        rng = random.Random(seed)
        cases += [(Instance(graph, *rng.sample(range(graph.n), 2), SHORT_ROW_TANK,
                            rng.randint(2, 5), q0), reach)
                  for q0 in (0.0, 3.0, 2.5) for _ in range(6)]
    modes = [SearchOptions(), SearchOptions(unbounded_stops=True),
             SearchOptions(use_heuristic=False)]

    def solve_all():
        return [(repr(result), stats.labels_generated, stats.labels_expanded,
                 stats.labels_pruned, stats.heuristic_settled)
                for inst, reach in cases for opts in modes
                for result, stats in [rfastar_solve(inst, opts, reach=reach)]]

    inlined = solve_all()
    calls = []

    def recording(*args):
        calls.append(args[0])
        return reference_expand(*args)

    monkeypatch.setattr(search, "expand", recording)
    assert solve_all() == inlined
    assert len(calls) == sum(row[2] for row in inlined)


class TestCheckForPrune:
    """Frontier.dominated, the prune check run on every popped label."""

    @given(stored=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 4), st.integers(0, 3)),
                           max_size=6),
           label=st.tuples(st.integers(0, 6), st.integers(0, 4), st.integers(0, 3)),
           price=st.sampled_from([0.0, 0.5, 2.0, math.inf]),
           unbounded=st.booleans())
    def test_dominated_is_any_over_the_stored_labels(self, stored, label, price, unbounded):
        """Three-way dominance by some stored label, or in unbounded mode at a
        selling vertex the scalarized rule against some stored label."""
        frontier = Frontier((price,), unbounded=unbounded)
        stored = [Label(0, g / 2, q / 2, k) for g, q, k in stored]
        for s in stored:
            frontier.insert(s)
        g, q, k = label
        l = Label(0, g / 2, q / 2, k)
        if unbounded and math.isfinite(price):
            expected = any(scalarized_dominates(l, s, price) for s in stored)
        else:
            expected = any(dominates(s, l) for s in stored)
        assert frontier.dominated(l) == expected

    def test_empty_frontier_never_prunes(self, wx):
        frontier = Frontier(wx.graph.price)
        assert not frontier.dominated(Label(O, 0.0, 0.0, 0))

    def test_dominated_label_is_pruned(self, wx):
        frontier = Frontier(wx.graph.price)
        frontier.insert(Label(O, 0.0, 0.0, 0))
        assert frontier.dominated(Label(O, 20.0, 0.0, 2))

    def test_incomparable_labels_survive_both_ways(self, wx):
        frontier = Frontier(wx.graph.price)
        frontier.insert(Label(O, 10.0, 3.0, 1))
        assert not frontier.dominated(Label(O, 9.0, 1.0, 1))
        frontier2 = Frontier(wx.graph.price)
        frontier2.insert(Label(O, 9.0, 1.0, 1))
        assert not frontier2.dominated(Label(O, 10.0, 3.0, 1))

    def test_mode_override_switches_relation(self, wx):
        stored = Label(O, 10.0, 0.0, 1)
        candidate = Label(O, 15.0, 2.0, 2)
        bounded = Frontier(wx.graph.price, unbounded=False)
        scalarized = Frontier(wx.graph.price, unbounded=True)
        bounded.insert(stored)
        scalarized.insert(stored)
        # Bounded: more fuel makes it incomparable. Scalarized at price 2:
        # 10 + 2*2 = 14 <= 15 prunes it.
        assert not bounded.dominated(candidate)
        assert scalarized.dominated(candidate)


class TestSolve:
    def test_worked_example_cost(self, wx):
        result, stats = rfastar_solve(wx)
        assert result.total_cost == 15.0
        assert len(result.stops) == 2
        assert stats.labels_expanded <= stats.labels_generated

    def test_tie_break_prefers_fewer_stops_then_insertion_order(self, wx):
        # Both 15-cost routes tie on f; the pop order (f, fuller tank,
        # fewer stops, first pushed) settles on the route via a.
        result, _ = rfastar_solve(wx)
        assert [v for v, _ in result.route] == [O, A, T]
        assert result.stops == ((O, 6.0), (A, 1.0))

    def test_expected_labels_appear(self, wx, generated_labels):
        rfastar_solve(wx)
        keys = {label_key(l) for l in generated_labels}
        assert (A, 12.0, 4.0, 1) in keys
        assert (B, 10.0, 0.0, 1) in keys

    def test_single_stop_budget_is_infeasible(self):
        result, _ = rfastar_solve(worked_example(k_max=1))
        assert isinstance(result, Infeasible)

    def test_degenerate_start_equals_goal(self, wx):
        inst = Instance(wx.graph, O, O, 6.0, 2)
        result, stats = rfastar_solve(inst)
        assert result.total_cost == 0.0
        assert result.stops == ()
        assert stats.labels_expanded == 0

    def test_solution_replays_to_reported_cost(self, wx, wx_reach):
        result, _ = rfastar_solve(wx, reach=wx_reach)
        assert validate_solution(wx, result, wx_reach) == result.total_cost

    def test_goal_arrival_fuel_is_zero(self, wx):
        result, _ = rfastar_solve(wx)
        assert result.arrival_fuel[-1] == 0.0

    def test_deterministic_across_runs(self):
        inst = random_instance(7)
        first = rfastar_solve(inst)
        second = rfastar_solve(inst)
        assert first[0] == second[0]
        assert first[1].labels_generated == second[1].labels_generated
        assert first[1].labels_pruned == second[1].labels_pruned

    def test_disconnected_goal_is_infeasible(self):
        g = FuelGraph.build([1.0, 1.0, 1.0], [(0, 1, 1.0)], undirected=True)
        result, stats = rfastar_solve(Instance(g, 0, 2, 5.0, 3))
        assert isinstance(result, Infeasible)
        assert stats.labels_expanded == 0  # the start estimate is already infinite


class TestModes:
    @pytest.mark.parametrize("seed", range(12))
    def test_no_heuristic_matches(self, seed):
        inst = random_instance(seed)
        base, _ = rfastar_solve(inst)
        noh, _ = rfastar_solve(inst, SearchOptions(use_heuristic=False))
        if isinstance(base, Infeasible):
            assert isinstance(noh, Infeasible)
        else:
            assert noh.total_cost == base.total_cost

    @pytest.mark.parametrize("seed", range(12))
    def test_dominance_off_matches(self, seed):
        inst = random_instance(seed)
        base, _ = rfastar_solve(inst)
        off = unpruned_solve(inst, compute_reachable_sets(inst.graph, inst.q_max))
        if isinstance(base, Infeasible):
            assert isinstance(off, Infeasible)
        else:
            assert off.total_cost == base.total_cost


@pytest.mark.parametrize("opts", [
    SearchOptions(),
    SearchOptions(use_heuristic=False),
    SearchOptions(unbounded_stops=True),
], ids=["bounded", "no-heuristic", "unbounded"])
def test_past_deadline_times_out_before_expanding(wx, wx_reach, opts):
    with pytest.raises(SolveTimeout) as info:
        rfastar_solve(wx, opts, reach=wx_reach, deadline=perf_counter() - 1.0)
    assert info.value.stats.labels_expanded == 0


class TestUnbounded:
    def test_worked_example_same_optimum(self, wx):
        result, _ = rfastar_solve(wx, SearchOptions(unbounded_stops=True))
        assert result.total_cost == 15.0

    def test_single_edge_graph(self):
        g = FuelGraph.build([2.0, 5.0], [(0, 1, 3.0)])
        result, _ = rfastar_solve(Instance(g, 0, 1, 4.0, 1), SearchOptions(unbounded_stops=True))
        assert result.total_cost == 6.0
        assert result.stops == ((0, 3.0),)

    def test_extra_stops_can_beat_a_tight_budget(self):
        # A chain that needs three stops: with k_max=1 it is infeasible,
        # unbounded it costs the sum of the hops.
        g = FuelGraph.build(
            [1.0, 1.0, 1.0, 1.0],
            [(0, 1, 4.0), (1, 2, 4.0), (2, 3, 4.0)],
        )
        inst = Instance(g, 0, 3, 5.0, 1)
        bounded, _ = rfastar_solve(inst)
        assert isinstance(bounded, Infeasible)
        unbounded, _ = rfastar_solve(inst, SearchOptions(unbounded_stops=True))
        assert unbounded.total_cost == 12.0
        assert len(unbounded.stops) == 3

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_bounded_with_stop_budget_n(self, seed):
        inst = random_instance(seed)
        unbounded, _ = rfastar_solve(inst, SearchOptions(unbounded_stops=True))
        relaxed = Instance(inst.graph, inst.start, inst.goal, inst.q_max, inst.graph.n)
        bounded, _ = rfastar_solve(relaxed)
        if isinstance(unbounded, Infeasible):
            assert isinstance(bounded, Infeasible)
        else:
            assert unbounded.total_cost == bounded.total_cost


class TestInitialFuel:
    def test_coast_straight_to_goal_is_free(self):
        g = FuelGraph.build([1.0, 2.0], [(0, 1, 3.0)])
        result, _ = rfastar_solve(Instance(g, 0, 1, 5.0, 1, q0=4.0))
        assert result.total_cost == 0.0
        assert result.stops == ()

    def test_first_stop_can_be_away_from_start(self):
        # Start sells at 9; coasting to the cheap middle saves money.
        g = FuelGraph.build([9.0, 1.0, 9.0], [(0, 1, 2.0), (1, 2, 4.0)])
        inst = Instance(g, 0, 2, 4.0, 1, q0=2.0)
        result, _ = rfastar_solve(inst)
        assert result.total_cost == 4.0
        assert result.stops == ((1, 4.0),)

    def test_non_refuellable_start_with_fuel(self):
        g = FuelGraph.build([math.inf, 1.0, 2.0], [(0, 1, 2.0), (1, 2, 3.0)])
        inst = Instance(g, 0, 2, 5.0, 1, q0=2.0)
        result, _ = rfastar_solve(inst)
        assert result.total_cost == 3.0

    def test_coasts_left_on_the_open_list_are_not_counted(self):
        # The answer is the start's coast to the goal, returned before the
        # loop as its two labels; the coasts to 2 and 3 are never generated.
        g = FuelGraph.build([1.0] * 4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)], undirected=True)
        result, stats = rfastar_solve(Instance(g, 0, 1, 5.0, 1, q0=3.0))
        assert result.total_cost == 0.0
        assert stats.labels_generated == 2

    @pytest.mark.parametrize("opts", [SearchOptions(), SearchOptions(unbounded_stops=True)],
                             ids=["bounded", "unbounded"])
    def test_a_free_coast_to_the_goal_is_returned_before_the_loop(self, opts):
        """Where the initial fuel reaches the goal, the coast there is the
        answer, made of two labels; the loop once took 19 labels for the
        second instance, popping every coast with more fuel left first."""
        cases = [
            (Instance(worked_example().graph, A, T, 6.0, 2, 6.0), "Solution(stops=(), "
             "route=((1, 0.0), (3, 5.0)), total_cost=0.0, arrival_fuel=(6.0, 1.0))"),
            (Instance(gen_binomial(64, 0.3, seed=5), 0, 1, 12.0, 3, 8.0), "Solution(stops=(), "
             "route=((0, 0.0), (1, 5.0)), total_cost=0.0, arrival_fuel=(8.0, 3.0))"),
        ]
        for inst, expected in cases:
            result, stats = rfastar_solve(inst, opts)
            assert repr(result) == expected == repr(dp_solve(inst)[0])
            assert stats.labels_generated <= 2

    def test_heuristic_drops_a_coast_to_a_dead_end(self):
        # Vertex 1 sells fuel but has no arc on to the goal 2.
        g = FuelGraph.build([1.0, 1.0, 3.0], [(0, 1, 1.0), (0, 2, 3.0)])
        inst = Instance(g, 0, 2, 5.0, 2, q0=2.0)
        reach = compute_reachable_sets(g, 5.0)
        ctx = build_heuristic(reach, inst.goal)
        root = Label(0, 0.0, 2.0, 0)
        assert math.isinf(h_for(ctx, 1, 1.0))
        assert _coast_children(root, reach, inst, ctx) == []
        assert _coast_children(root, reach, inst, None) == [(0.0, -1.0, 1, 0.0, 0.0)]
        for opts in (SearchOptions(), SearchOptions(use_heuristic=False)):
            assert rfastar_solve(inst, opts, reach=reach)[0].total_cost == 1.0
        assert dp_solve(inst, reach=reach)[0].total_cost == 1.0
        assert brute_force_solve(inst, reach=reach).total_cost == 1.0

    def test_label_invariants_hold_for_every_generated_label(self, generated_labels):
        for seed in range(8):
            inst = random_instance(seed, with_q0=True)
            generated_labels.clear()
            rfastar_solve(inst)
            for l in generated_labels:
                assert 0.0 <= l.q <= inst.q_max
                assert l.g >= 0.0
                assert 0 <= l.k <= inst.k_max
                # Parent chains terminate at the initial label.
                node, depth = l, 0
                while node.parent is not None:
                    node = node.parent
                    depth += 1
                    assert depth <= inst.k_max + 1
                assert node.v == inst.start


class TestAwkwardEndpoints:
    def test_non_refuellable_goal_is_fine(self):
        g = FuelGraph.build([2.0, 1.0, math.inf],
                            [(0, 1, 3.0), (1, 2, 3.0), (0, 2, 5.0)])
        inst = Instance(g, 0, 2, 5.0, 2)
        reach = compute_reachable_sets(g, 5.0)
        bounded, _ = rfastar_solve(inst, reach=reach)
        unbounded, _ = rfastar_solve(inst, SearchOptions(unbounded_stops=True), reach=reach)
        from gsp import brute_force_solve, dp_solve

        dp_result, _ = dp_solve(inst, reach=reach)
        oracle = brute_force_solve(inst, reach=reach)
        assert bounded.total_cost == unbounded.total_cost
        assert bounded.total_cost == dp_result.total_cost == oracle.total_cost
        assert validate_solution(inst, bounded, reach) == bounded.total_cost

    def test_non_refuellable_start_with_empty_tank_is_infeasible(self):
        g = FuelGraph.build([math.inf, 1.0], [(0, 1, 2.0)], undirected=True)
        inst = Instance(g, 0, 1, 5.0, 2)
        from gsp import brute_force_solve, dp_solve

        assert isinstance(rfastar_solve(inst)[0], Infeasible)
        assert isinstance(dp_solve(inst)[0], Infeasible)
        assert isinstance(brute_force_solve(inst), Infeasible)


def test_concurrent_solves_share_immutable_structures():
    from concurrent.futures import ThreadPoolExecutor

    inst = random_instance(3)
    reach = compute_reachable_sets(inst.graph, inst.q_max)

    def solve(_):
        return rfastar_solve(inst, reach=reach)

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(solve, range(8)))
    costs = {r[0].total_cost for r in results}
    stats = {(r[1].labels_generated, r[1].labels_expanded) for r in results}
    assert len(costs) == 1
    assert len(stats) == 1


class TestLabelBudget:
    @pytest.mark.parametrize("seed", range(10))
    def test_generated_labels_within_polynomial_budget(self, seed):
        inst = random_instance(seed)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        _, stats = rfastar_solve(inst, reach=reach)
        budget = inst.k_max * (reach.edge_count() + inst.graph.n)  # sum of (in-degree + 1)
        assert stats.labels_generated <= budget


@given(
    c_here=st.integers(0, 10).map(float),
    c_next=st.integers(0, 10).map(float),
    q=st.integers(0, 8).map(float),
    d=st.integers(1, 8).map(float),
    into_goal=st.booleans(),
)
def test_refuel_amount_keeps_the_tank_in_range(c_here, c_next, q, d, into_goal):
    q_max = 8.0
    a, arrive = refuel_amount(c_here, c_next, q, d, q_max, into_goal)
    if a > 0.0:
        assert q + a <= q_max
        assert q + a - d == arrive
        assert 0.0 <= arrive <= q_max
    if into_goal and a > 0.0:
        assert arrive == 0.0


def test_refuel_schedule_for_route_matches_hand_values(wx):
    cost, amounts = refuel_schedule_for_route((O, B, T), (5.0, 5.0), wx)
    assert cost == 15.0
    assert amounts == (5.0, 5.0)
    cost, amounts = refuel_schedule_for_route((O, A, T), (2.0, 5.0), wx)
    assert cost == 15.0
    assert amounts == (6.0, 1.0)
