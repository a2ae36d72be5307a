import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsp import (
    FuelGraph,
    Instance,
    InvalidInstance,
    Label,
    SearchStats,
    Solution,
    dominates,
    scalarized_dominates,
    validate_solution,
)
from gsp.core import BadEndpoints, FuelNegative, InvalidSolution, TankExceeded, TooManyStops

from conftest import A, B, O, T, worked_example


class TestFuelGraph:
    def test_duplicate_arcs_collapse_to_min_fuel(self):
        g = FuelGraph.build([1.0, 1.0], [(0, 1, 5.0), (0, 1, 3.0)])
        assert g.edges == ((0, 1, 3.0),)

    def test_undirected_expands_to_two_arcs(self):
        g = FuelGraph.build([1.0, 1.0], [(0, 1, 2.0)], undirected=True)
        assert g.edges == ((0, 1, 2.0), (1, 0, 2.0))
        # Each pred row holds exactly the arcs into its vertex, in tail
        # order, whatever order the edges come in.
        edges = [(3, 0, 2.0), (1, 0, 5.0), (2, 3, 1.0), (0, 2, 4.0), (2, 0, 3.0), (1, 3, 6.0)]
        g = FuelGraph.build([1.0] * 4, edges, undirected=True)
        for v in range(g.n):
            assert list(g.pred[v]) == sorted((u, d) for u, w, d in g.edges if w == v)

    def test_zero_fuel_rejected(self):
        with pytest.raises(InvalidInstance):
            FuelGraph.build([1.0, 1.0], [(0, 1, 0.0)])

    def test_infinite_fuel_rejected(self):
        with pytest.raises(InvalidInstance, match="finite"):
            FuelGraph.build([1.0, 1.0], [(0, 1, math.inf)])

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidInstance):
            FuelGraph.build([1.0, 1.0], [(0, 0, 1.0)])

    def test_negative_price_rejected(self):
        with pytest.raises(InvalidInstance):
            FuelGraph.build([-1.0, 1.0], [(0, 1, 1.0)])

    def test_non_refuellable_price_is_inf(self):
        g = FuelGraph.build([math.inf, 1.0], [(0, 1, 1.0)])
        assert math.isinf(g.price[0])


class TestInstance:
    def test_bounds_checked(self):
        g = FuelGraph.build([1.0, 1.0], [(0, 1, 1.0)])
        with pytest.raises(InvalidInstance):
            Instance(g, 0, 5, 1.0, 1)
        for q_max in (0.0, math.inf, math.nan):  # inf made search and DP disagree
            with pytest.raises(InvalidInstance):
                Instance(g, 0, 1, q_max, 1)
        with pytest.raises(InvalidInstance):
            Instance(g, 0, 1, 1.0, 0)
        with pytest.raises(InvalidInstance):
            Instance(g, 0, 1, 1.0, 1, q0=2.0)

    def test_start_may_equal_goal(self):
        g = FuelGraph.build([1.0, 1.0], [(0, 1, 1.0)])
        assert Instance(g, 0, 0, 1.0, 1).start == 0


class TestDominates:
    def test_initial_label_dominates_costlier_empty_label(self):
        l0 = Label(O, 0.0, 0.0, 0)
        l3 = Label(O, 20.0, 0.0, 2)
        assert dominates(l0, l3)
        assert not dominates(l3, l0)

    def test_identical_labels_dominate_each_other(self):
        l = Label(1, 4.0, 2.0, 1)
        other = Label(1, 4.0, 2.0, 1)
        assert dominates(l, other) and dominates(other, l)

    def test_cheaper_but_emptier_is_incomparable(self):
        l = Label(2, 10.0, 3.0, 1)
        l2 = Label(2, 9.0, 1.0, 1)
        assert not dominates(l, l2)
        assert not dominates(l2, l)

    def test_vertex_mismatch_raises(self):
        with pytest.raises(ValueError):
            dominates(Label(0, 0.0, 0.0, 0), Label(1, 0.0, 0.0, 0))


labels_at_shared_vertex = st.builds(
    Label,
    v=st.just(0),
    g=st.integers(0, 20).map(float),
    q=st.integers(0, 10).map(float),
    k=st.integers(0, 4),
)


@given(labels_at_shared_vertex)
def test_dominance_is_reflexive(l):
    assert dominates(l, l)


@given(labels_at_shared_vertex, labels_at_shared_vertex, labels_at_shared_vertex)
def test_dominance_is_transitive(a, b, c):
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)


@given(labels_at_shared_vertex, labels_at_shared_vertex, labels_at_shared_vertex,
       st.integers(0, 10).map(float))
def test_scalarized_dominance_is_transitive(a, b, c, price):
    if scalarized_dominates(a, b, price) and scalarized_dominates(b, c, price):
        assert scalarized_dominates(a, c, price)


class TestScalarizedDominates:
    def test_buying_the_gap_is_cheaper(self):
        l = Label(0, 15.0, 2.0, 1)
        l2 = Label(0, 10.0, 0.0, 1)
        assert scalarized_dominates(l, l2, 2.0)  # 10 + 2*2 = 14 <= 15

    def test_identical_labels(self):
        l = Label(0, 7.0, 1.0, 3)
        assert scalarized_dominates(l, Label(0, 7.0, 1.0, 3), 2.0)

    def test_gap_too_expensive(self):
        l = Label(0, 11.0, 2.0, 1)
        l2 = Label(0, 10.0, 0.0, 1)
        assert not scalarized_dominates(l, l2, 2.0)  # 14 > 11

    def test_vertex_mismatch_raises(self):
        with pytest.raises(ValueError):
            scalarized_dominates(Label(0, 0.0, 0.0, 0), Label(1, 0.0, 0.0, 0), 1.0)

    def test_infinite_price_rejected(self):
        l = Label(0, 0.0, 0.0, 0)
        with pytest.raises(ValueError):
            scalarized_dominates(l, l, math.inf)


def _solution(stops, route, cost, fuels=()):
    return Solution(stops=tuple(stops), route=tuple(route), total_cost=cost,
                    arrival_fuel=tuple(fuels))


class TestValidateSolution:
    def test_replays_optimal_schedule(self, wx, wx_reach):
        sol = _solution([(O, 5.0), (B, 5.0)], [(O, 0.0), (B, 5.0), (T, 5.0)], 15.0)
        assert validate_solution(wx, sol, wx_reach) == 15.0

    def test_alternative_route_same_cost(self, wx, wx_reach):
        sol = _solution([(O, 6.0), (A, 1.0)], [(O, 0.0), (A, 2.0), (T, 5.0)], 15.0)
        assert validate_solution(wx, sol, wx_reach) == 15.0

    def test_degenerate_start_equals_goal(self):
        inst = Instance(worked_example().graph, O, O, 6.0, 2)
        sol = _solution([], [(O, 0.0)], 0.0)
        assert validate_solution(inst, sol) == 0.0

    def test_tank_exceeded(self, wx, wx_reach):
        sol = _solution([(O, 7.0), (B, 5.0)], [(O, 0.0), (B, 5.0), (T, 5.0)], 0.0)
        with pytest.raises(TankExceeded):
            validate_solution(wx, sol, wx_reach)

    def test_fuel_negative(self, wx, wx_reach):
        sol = _solution([(O, 4.0), (B, 6.0)], [(O, 0.0), (B, 5.0), (T, 5.0)], 0.0)
        with pytest.raises(FuelNegative):
            validate_solution(wx, sol, wx_reach)

    def test_untraversable_hop(self, wx, wx_reach):
        # o -> t exceeds the tank, so the refuel graph has no such arc.
        sol = _solution([(O, 6.0)], [(O, 0.0), (T, 7.0)], 0.0)
        with pytest.raises(FuelNegative):
            validate_solution(wx, sol, wx_reach)

    def test_too_many_stops(self, wx, wx_reach):
        sol = _solution(
            [(O, 5.0), (B, 5.0), (O, 5.0)],
            [(O, 0.0), (B, 5.0), (O, 5.0), (B, 5.0), (T, 5.0)],
            0.0,
        )
        with pytest.raises(TooManyStops):
            validate_solution(wx, sol, wx_reach)

    def test_bad_endpoints(self, wx, wx_reach):
        sol = _solution([(A, 5.0)], [(A, 0.0), (T, 5.0)], 0.0)
        with pytest.raises(BadEndpoints):
            validate_solution(wx, sol, wx_reach)
        sol = _solution([(O, 2.0)], [(O, 0.0), (A, 2.0)], 0.0)
        with pytest.raises(BadEndpoints):
            validate_solution(wx, sol, wx_reach)

    def test_non_positive_amount_rejected(self, wx, wx_reach):
        sol = _solution([(O, 0.0)], [(O, 0.0), (B, 5.0), (T, 5.0)], 0.0)
        with pytest.raises(InvalidSolution):
            validate_solution(wx, sol, wx_reach)

    def test_stop_off_route_rejected(self, wx_reach):
        inst = worked_example(k_max=3)
        sol = _solution(
            [(O, 5.0), (B, 5.0), (A, 1.0)], [(O, 0.0), (B, 5.0), (T, 5.0)], 0.0
        )
        with pytest.raises(InvalidSolution):
            validate_solution(inst, sol, wx_reach)

    def test_unmatched_stop_causing_dry_hop_is_fuel_negative(self, wx, wx_reach):
        sol = _solution([(A, 1.0), (O, 5.0)], [(O, 0.0), (B, 5.0), (T, 5.0)], 0.0)
        with pytest.raises(FuelNegative):
            validate_solution(wx, sol, wx_reach)

    def test_replay_is_deterministic(self, wx, wx_reach):
        sol = _solution([(O, 5.0), (B, 5.0)], [(O, 0.0), (B, 5.0), (T, 5.0)], 15.0)
        first = validate_solution(wx, sol, wx_reach)
        assert all(validate_solution(wx, sol, wx_reach) == first for _ in range(3))


def test_search_stats_defaults():
    stats = SearchStats()
    assert stats.labels_generated == 0
    assert stats.labels_expanded <= stats.labels_generated
