import math

import pytest

from gsp import (
    FuelGraph,
    Infeasible,
    Instance,
    build_mip,
    check_assignment,
    compute_reachable_sets,
    rfastar_solve,
    solution_to_assignment,
    validate_lp_text,
    write_lp,
)

from conftest import B, O, T, random_instance


@pytest.fixture
def wx_model(wx, wx_reach):
    return build_mip(wx, reach=wx_reach)


class TestBuildMip:
    def test_structure_counts(self, wx, wx_reach, wx_model):
        n_edges = wx_reach.edge_count()
        n = wx.graph.n
        x_vars = [v for v in wx_model.variables if v.name.startswith("x_")]
        assert len(x_vars) == n_edges
        assert sum(v.name.startswith("y_") for v in wx_model.variables) == n
        assert sum(v.name.startswith("a_") for v in wx_model.variables) == n
        assert sum(v.name.startswith("q_") for v in wx_model.variables) == n
        cons = [r for r in wx_model.rows if r.name.startswith("cons_")]
        assert len(cons) == 2 * n_edges
        assert sum(r.name.startswith("flow_") for r in wx_model.rows) == n
        assert sum(r.name.startswith("smart_") for r in wx_model.rows) == n_edges
        assert sum(r.name == "stops" for r in wx_model.rows) == 1
        assert wx_model.big_m == wx.q_max + 5.0  # longest reach hop is 5

    def test_stop_row_present_even_with_roomy_budget(self, wx):
        model = build_mip(Instance(wx.graph, O, T, 6.0, 10))
        stops = [r for r in model.rows if r.name == "stops"]
        assert stops and stops[0].rhs == 10.0

    def test_non_refuellable_vertex_has_purchase_fixed_to_zero(self):
        g = FuelGraph.build([1.0, math.inf, 2.0], [(0, 1, 2.0), (1, 2, 2.0)],
                            undirected=True)
        model = build_mip(Instance(g, 0, 2, 5.0, 2))
        a_v1 = next(v for v in model.variables if v.name == "a_v1")
        assert a_v1.ub == 0.0
        assert all(var != "a_v1" for _, var in model.objective)

    @staticmethod
    def _assert_unique_names(model):
        variables = [v.name for v in model.variables]
        rows = [r.name for r in model.rows]
        assert len(set(variables)) == len(variables)
        assert len(set(rows)) == len(rows)

    def test_names_stay_unique_when_a_station_name_is_not_an_identifier(self):
        # "a b" is no LP identifier; its fallback must not reuse the name "v1".
        g = FuelGraph.build([1.0, 2.0, 3.0], [(0, 1, 2.0), (1, 2, 2.0)],
                            names=["v1", "a b", "t"], undirected=True)
        self._assert_unique_names(build_mip(Instance(g, 0, 2, 5.0, 2)))

    def test_names_stay_unique_when_station_names_hold_underscores(self):
        # Joined with "_", arcs a -> b_c and a_b -> c would both be x_a_b_c.
        g = FuelGraph.build([1.0] * 4, [(0, 2, 1.0), (1, 3, 1.0), (0, 1, 1.0)],
                            names=["a", "a_b", "b_c", "c"])
        model = build_mip(Instance(g, 0, 3, 2.0, 2))
        self._assert_unique_names(model)
        assert validate_lp_text(write_lp(model)) == []


class TestCheckAssignment:
    def test_known_optimum_satisfies_all_rows(self, wx_model):
        assignment = {
            "x_o_b": 1.0, "x_b_t": 1.0,
            "a_o": 5.0, "a_b": 5.0,
            "y_o": 1.0, "y_b": 1.0,
        }
        report = check_assignment(wx_model, assignment)
        assert report.ok
        assert report.objective == 15.0

    def test_all_zeros_breaks_flow_at_the_endpoints(self, wx_model):
        report = check_assignment(wx_model, {})
        assert {name for name, _ in report.violations} == {"flow_o", "flow_t"}

    def test_smart_refuel_cuts_reject_lazy_fill(self, wx, wx_reach, wx_model):
        # Buying only the hop at o when a (pricier) is next violates the
        # fill-up cut; without the cuts the schedule is feasible.
        assignment = {
            "x_o_a": 1.0, "x_a_t": 1.0,
            "a_o": 2.0, "a_a": 5.0,
            "y_o": 1.0, "y_a": 1.0,
        }
        with_cuts = check_assignment(wx_model, assignment)
        assert any(name == "smart_fill_o_a" for name, _ in with_cuts.violations)
        relaxed = build_mip(wx, include_smart_refuel=False, reach=wx_reach)
        assert check_assignment(relaxed, assignment).ok

    def test_tank_violation_detected(self, wx_model):
        assignment = {
            "x_o_b": 1.0, "x_b_t": 1.0,
            "a_o": 7.0, "a_b": 5.0, "q_b": 2.0,
            "y_o": 1.0, "y_b": 1.0,
        }
        report = check_assignment(wx_model, assignment)
        assert any(name == "tank_o" for name, _ in report.violations)

    def test_binary_and_bound_violations_are_reported(self, wx, wx_reach):
        # The start fuel is pinned at q0 = 1, y is binary and a is at least 0.
        model = build_mip(Instance(wx.graph, O, T, wx.q_max, wx.k_max, 1.0), reach=wx_reach)

        def domain(assignment):
            return {(name, x) for name, x in check_assignment(model, assignment).violations
                    if name.startswith(("binary_", "bound_"))}

        assert domain({"q_o": 1.0, "y_a": 1.0}) == set()
        assert domain({"y_a": -1.0, "a_a": -1.0, "q_o": 3.0}) == {
            ("binary_y_a", -1.0), ("bound_a_a", -1.0), ("bound_q_o", 2.0)}
        assert domain({"y_a": 0.5, "q_o": 0.25}) == {("binary_y_a", 0.5), ("bound_q_o", -0.75)}

    @pytest.mark.parametrize("seed", range(15))
    def test_search_optimum_satisfies_model(self, seed):
        inst = random_instance(seed)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        result, _ = rfastar_solve(inst, reach=reach)
        if isinstance(result, Infeasible):
            return
        model = build_mip(inst, reach=reach)
        assignment = solution_to_assignment(inst, result)
        report = check_assignment(model, assignment)
        assert report.ok, report.violations
        assert report.objective == result.total_cost


class TestWriteLp:
    def test_objective_terms_in_vertex_order(self, wx_model):
        assert "2 a_o + 3 a_a + 1 a_b" in write_lp(wx_model)

    def test_grammar_checker_accepts_output(self, wx_model):
        assert validate_lp_text(write_lp(wx_model)) == []

    def test_byte_identical_across_runs(self, wx, wx_reach):
        first = write_lp(build_mip(wx, reach=wx_reach))
        second = write_lp(build_mip(wx, reach=wx_reach))
        assert first == second

    def test_isolated_vertices_have_no_flow_rows(self):
        g = FuelGraph.build([1.0, 1.0, 1.0], [(0, 1, 2.0)], undirected=True)
        model = build_mip(Instance(g, 0, 1, 5.0, 1))
        lp = write_lp(model)
        assert "flow_v2" not in lp
        assert validate_lp_text(lp) == []

    def test_start_fuel_is_pinned_in_bounds(self, wx_model):
        assert " q_o = 0" in write_lp(wx_model)


class TestGrammarChecker:
    def test_rejects_missing_sections(self):
        assert validate_lp_text("Subject To\n r1: 1 x <= 2\nEnd\n")
        assert validate_lp_text("Minimize\n obj: 1 x\nEnd\n")

    def test_rejects_malformed_rows(self, wx_model):
        lp = write_lp(wx_model).replace("flow_o:", "flow_o")
        assert validate_lp_text(lp)

    def test_rejects_trailing_content(self, wx_model):
        assert validate_lp_text(write_lp(wx_model) + "leftover\n")


class TestSolutionConversion:
    def test_revisiting_route_is_rejected(self, wx):
        from gsp.core import Solution

        looping = Solution(
            stops=((O, 1.0),),
            route=((O, 0.0), (B, 5.0), (O, 5.0)),
            total_cost=1.0,
            arrival_fuel=(0.0, 0.0, 0.0),
        )
        with pytest.raises(ValueError):
            solution_to_assignment(wx, looping)
