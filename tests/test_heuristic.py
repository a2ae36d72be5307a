import math

from gsp import FuelGraph, build_heuristic, rfastar_solve
from gsp.heuristic import h_for

from conftest import A, B, O, T, worked_example, worked_example_graph


def test_worked_example_context():
    ctx = build_heuristic(worked_example_graph(), T)
    assert ctx.d_to_goal == (7.0, 5.0, 5.0, 0.0)
    assert ctx.c_min == 1.0


def test_h_of_known_labels():
    ctx = build_heuristic(worked_example_graph(), T)
    assert h_for(ctx, B, 0.0) == 5.0
    assert h_for(ctx, A, 4.0) == 1.0
    assert h_for(ctx, T, 0.0) == 0.0
    assert h_for(ctx, T, 6.0) == 0.0


def test_unreachable_vertex_gets_infinite_estimate():
    g = FuelGraph.build([1.0, 1.0, 1.0], [(0, 1, 1.0), (2, 1, 1.0)])
    ctx = build_heuristic(g, 0)
    assert math.isinf(ctx.d_to_goal[2])
    assert math.isinf(h_for(ctx, 2, 0.0))


def test_all_non_refuellable_degenerates_to_zero():
    g = FuelGraph.build([math.inf, math.inf, 2.0], [(0, 2, 1.0), (1, 2, 1.0)],
                        undirected=True)
    ctx = build_heuristic(g, 2)
    assert ctx.c_min == 0.0
    assert h_for(ctx, 0, 0.0) == 0.0


def test_estimate_is_nonnegative_and_monotone_in_fuel():
    ctx = build_heuristic(worked_example_graph(), T)
    for v in range(4):
        values = [h_for(ctx, v, q / 2) for q in range(0, 17)]
        assert all(val >= 0.0 for val in values)
        assert values == sorted(values, reverse=True)


def test_surplus_fuel_floors_at_zero():
    ctx = build_heuristic(worked_example_graph(), T)
    assert h_for(ctx, B, 6.0) == 0.0  # 5 fuel needed, 6 at hand


class TestCache:
    """Contexts are built afresh for every query; nothing is cached."""

    def test_distinct_goals_get_distinct_contexts(self):
        g = worked_example_graph()
        ctx_t = build_heuristic(g, T)
        ctx_o = build_heuristic(g, O)
        assert ctx_t.goal != ctx_o.goal
        assert ctx_t.d_to_goal != ctx_o.d_to_goal

    def test_cache_disabled_rebuilds_every_time(self):
        inst = worked_example()
        _, s1 = rfastar_solve(inst)
        _, s2 = rfastar_solve(inst)
        assert s1.heuristic_build_time > 0.0
        assert s2.heuristic_build_time > 0.0
