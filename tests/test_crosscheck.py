"""Cross-solver agreement on awkward price and tank distributions.

The per-module suites draw prices from 1..10 with empty starting tanks;
these instances add free fuel, all-equal prices, sprinkled non-refuellable
vertices, boundary-tight tanks and full starting tanks, and demand exact
agreement between every solver and the state-space oracle.
"""

import math
import random

import pytest

from gsp import (
    FuelGraph,
    Infeasible,
    Instance,
    brute_force_solve,
    completion_costs,
    compute_reachable_sets,
    dp_solve,
    gen_binomial,
    rfastar_solve,
    validate_solution,
)
from gsp.core import FuelNegative
from gsp.search import SearchOptions

from conftest import unpruned_solve


def _corner_instance(trial: int) -> Instance:
    rng = random.Random(515_000 + trial)
    n = rng.randint(3, 8)
    base = gen_binomial(n, 0.6, seed=rng.getrandbits(32), fuel_lo=1, fuel_hi=6)
    mode = trial % 4
    if mode == 0:
        prices = [3.0] * n
    elif mode == 1:
        prices = [float(rng.choice([0, 0, 1, 5])) for _ in range(n)]
    elif mode == 2:
        prices = [float(rng.randint(1, 10)) for _ in range(n)]
    else:
        prices = [math.inf if rng.random() < 0.3 else float(rng.randint(1, 10))
                  for _ in range(n)]
    graph = FuelGraph.build(prices, list(base.edges))
    start, goal = rng.sample(range(n), 2)
    q_max = float(rng.choice([2, 3, 6, 6, 12]))
    q0 = float(rng.choice([0, 0, 0, int(q_max)]))
    return Instance(graph, start, goal, q_max, rng.randint(1, 4), q0)


def _cost(result) -> float:
    return math.inf if isinstance(result, Infeasible) else result.total_cost


@pytest.mark.parametrize("trial", range(80))
def test_all_solvers_agree_on_corner_distributions(trial):
    inst = _corner_instance(trial)
    reach = compute_reachable_sets(inst.graph, inst.q_max)
    plain, _ = rfastar_solve(inst, reach=reach)
    noh, _ = rfastar_solve(inst, SearchOptions(use_heuristic=False), reach=reach)
    nodom = unpruned_solve(inst, reach)
    dp, _ = dp_solve(inst, reach=reach)
    oracle = brute_force_solve(inst, reach=reach)
    assert _cost(plain) == _cost(noh) == _cost(nodom) == _cost(dp) == _cost(oracle)

    unbounded, _ = rfastar_solve(inst, SearchOptions(unbounded_stops=True), reach=reach)
    relaxed = Instance(inst.graph, inst.start, inst.goal, inst.q_max,
                       inst.graph.n, inst.q0)
    budget_n, _ = rfastar_solve(relaxed, reach=reach)
    assert _cost(unbounded) == _cost(budget_n)
    assert _cost(unbounded) <= _cost(plain)

    if not isinstance(plain, Infeasible):
        assert validate_solution(inst, plain, reach) == plain.total_cost
        assert validate_solution(inst, dp, reach) == dp.total_cost
        comp = completion_costs(inst)
        assert comp.get((inst.start, int(inst.q0), inst.k_max), math.inf) == _cost(plain)


_PATH = FuelGraph.build([2.0, 1.0], [(0, 1, 3.0)])


@pytest.mark.parametrize("inst, with_oracle", [
    # Decimal fuels: the coast 0 -> 1 on initial fuel must carry the reach
    # distance 0.3, not 1.3 - (1.3 - 0.3).
    (Instance(FuelGraph.build([math.inf, 1.0, 1.0], [(0, 1, 0.3), (1, 2, 3.0)]),
              0, 2, 5.0, 1, 1.3), False),
    (Instance(_PATH, 0, 0, 5.0, 1, 2.0), True),  # start == goal with initial fuel
    (Instance(_PATH, 0, 1, 5.0, 1, 4.0), True),  # a direct coast to the goal
], ids=["decimal-coast", "start-is-goal", "direct-coast"])
def test_every_solver_returns_the_same_solution(inst, with_oracle):
    reach = compute_reachable_sets(inst.graph, inst.q_max)
    results = [
        dp_solve(inst, reach=reach)[0],
        rfastar_solve(inst, reach=reach)[0],
        rfastar_solve(inst, SearchOptions(unbounded_stops=True), reach=reach)[0],
    ]
    if with_oracle:
        results.append(brute_force_solve(inst, reach=reach))
    assert all(r == results[0] for r in results), results
    assert validate_solution(inst, results[0], reach) == results[0].total_cost


# Pinned defects of decimal inputs (ROADMAP item 4); exact arithmetic fixes both.

@pytest.mark.xfail(raises=FuelNegative, strict=True,
                   reason="decimal fuels with initial fuel buy one ulp too little")
def test_decimal_fuels_with_initial_fuel_validate():
    inst = Instance(FuelGraph.build([1, 1], [(0, 1, 3.4)]), 0, 1, 5.4, 1, 1.3)
    for solve in (dp_solve, rfastar_solve):
        sol, _ = solve(inst)
        validate_solution(inst, sol)


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the oracle sums decimal prices to 7.7, the others to 7.700000000000001")
def test_decimal_prices_cost_the_same_in_every_solver():
    graph = FuelGraph.build([1.1, 0.1, 1.1], [(0, 1, 6), (1, 0, 8), (1, 2, 2), (2, 0, 1)])
    inst = Instance(graph, 2, 1, 8.0, 2)
    oracle = brute_force_solve(inst)
    assert _cost(dp_solve(inst)[0]) == _cost(rfastar_solve(inst)[0]) == _cost(oracle)
