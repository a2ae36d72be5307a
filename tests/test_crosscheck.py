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
