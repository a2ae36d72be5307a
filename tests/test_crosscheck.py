"""Cross-solver agreement on awkward price and tank distributions.

The per-module suites draw prices from 1..10 with empty starting tanks;
these instances add free fuel, all-equal prices, sprinkled non-refuellable
vertices, boundary-tight tanks and full starting tanks, and demand exact
agreement between every solver and the state-space oracle.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsp import (
    FuelGraph,
    Infeasible,
    Instance,
    InvalidInstance,
    apply_initial_fuel_transform,
    brute_force_solve,
    completion_costs,
    compute_reachable_sets,
    dp_solve,
    gen_binomial,
    rfastar_solve,
    validate_solution,
)
from gsp.oracle import InstanceTooLarge
from gsp.search import SearchOptions

from conftest import random_instance, unpruned_solve


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


# Decimal inputs, once pinned as defects of float arithmetic: every solver
# and the validator now run in the query's integral units.

def test_decimal_fuels_with_initial_fuel_validate():
    """The search and the DP once bought 2.0999999999999996 where 2.1 is due."""
    inst = Instance(FuelGraph.build([1, 1], [(0, 1, 3.4)]), 0, 1, 5.4, 1, 1.3)
    for solve in (dp_solve, rfastar_solve):
        sol, _ = solve(inst)
        assert sol.stops == ((0, 2.1),)
        assert validate_solution(inst, sol) == sol.total_cost == 2.1


def test_decimal_prices_cost_the_same_in_every_solver():
    """The oracle once summed these prices to 7.7, the others to 7.700000000000001."""
    graph = FuelGraph.build([1.1, 0.1, 1.1], [(0, 1, 6), (1, 0, 8), (1, 2, 2), (2, 0, 1)])
    inst = Instance(graph, 2, 1, 8.0, 2)
    oracle = brute_force_solve(inst)
    assert _cost(dp_solve(inst)[0]) == _cost(rfastar_solve(inst)[0]) == _cost(oracle) == 7.7


def _by_product(inst: Instance, fuel_factor, price_factor=1) -> Instance:
    """inst with every fuel, the tank and q0 times fuel_factor and every
    price times price_factor, each a float product."""
    graph = FuelGraph.build([p * price_factor for p in inst.graph.price],
                            [(u, v, d * fuel_factor) for u, v, d in inst.graph.edges])
    return Instance(graph, inst.start, inst.goal, inst.q_max * fuel_factor, inst.k_max,
                    inst.q0 * fuel_factor)


def test_decimal_fuels_with_initial_fuel_cost_the_same_in_search_and_dp():
    """random_instance(138, with_q0=True) with fuels, tank and q0 in tenths:
    start 2, goal 5, q_max 1.0, k_max 3, q0 0.2.  The search once spent a
    third stop on 1.1e-16 of fuel and cost 1.3000000000000007."""
    base = random_instance(138, with_q0=True)
    graph = FuelGraph.build(list(base.graph.price), [(u, v, d / 10) for u, v, d in base.graph.edges])
    inst = Instance(graph, base.start, base.goal, base.q_max / 10, base.k_max, base.q0 / 10)
    search, dp = rfastar_solve(inst)[0], dp_solve(inst)[0]
    assert search == dp and search.total_cost == 1.3
    assert validate_solution(inst, search) == 1.3


def test_float_products_of_tenths_are_refused():
    """d * 0.1 and p * 1.1 give values such as 0.30000000000000004 and
    3.3000000000000003, whose 16 and 17 places put the query's sums past
    2**53: every solver and the validator refuse them."""
    base = random_instance(138, with_q0=True)
    assert 3.0 in {d for _, _, d in base.graph.edges} and 3.0 in base.graph.price
    good = rfastar_solve(base)[0]
    for inst in (_by_product(base, 0.1), _by_product(base, 1, 1.1)):
        for solve in (lambda i: rfastar_solve(i)[0], lambda i: dp_solve(i)[0],
                      lambda i: rfastar_solve(i, SearchOptions(unbounded_stops=True))[0],
                      brute_force_solve, lambda i: validate_solution(i, good)):
            with pytest.raises(InvalidInstance, match="2\\*\\*53"):
                solve(inst)


def test_unbounded_search_limits_its_sums_by_the_states():
    """Without a stop limit a chain may stop at every state, so the limit
    takes n + arcs for k_max: a price that the bounded search takes is
    refused there."""
    graph = FuelGraph.build([1.0, 2.0**50, 1.0], [(0, 1, 1.0), (1, 2, 1.0)])
    inst = Instance(graph, 0, 2, 2.0, 1)  # (1 + 1) * 2 * 2**50 < 2**53 <= (6 + 1) * 2 * 2**50
    assert rfastar_solve(inst)[0].total_cost == 2.0
    with pytest.raises(InvalidInstance):
        rfastar_solve(inst, SearchOptions(unbounded_stops=True))


@st.composite
def _decimal_instances(draw):
    """Small instances on two-way roads with fuels, tank and q0 in tenths or
    hundredths, prices in tenths, about one station in six selling nothing."""
    n = draw(st.integers(2, 6))
    unit = 10 ** draw(st.sampled_from([1, 1, 2]))
    tank = draw(st.integers(1, 5 * unit))
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                   st.integers(1, tank)), min_size=n, max_size=3 * n))
    prices = draw(st.lists(st.integers(0, 60).map(lambda p: p / 10 if p <= 50 else math.inf),
                           min_size=n, max_size=n))
    graph = FuelGraph.build(prices, [(u, v, d / unit) for u, v, d in arcs if u != v],
                            undirected=True)
    start, goal = draw(st.sampled_from([(s, t) for s in range(n) for t in range(n) if s != t]))
    q0 = draw(st.sampled_from([0, draw(st.integers(0, tank))]))
    return Instance(graph, start, goal, tank / unit, draw(st.integers(1, 4)), q0 / unit)


@settings(max_examples=150, deadline=None)
@given(inst=_decimal_instances())
def test_every_solver_is_exact_on_decimal_inputs(inst):
    """Every schedule validates, and every solver agrees exactly, the oracle
    wherever its size guard takes the instance and the initial-fuel
    transform wherever it applies; without a stop limit the search agrees
    with the DP given a stop per state."""
    reach = compute_reachable_sets(inst.graph, inst.q_max)
    results = [rfastar_solve(inst, reach=reach)[0], dp_solve(inst, reach=reach)[0],
               rfastar_solve(inst, SearchOptions(use_heuristic=False), reach=reach)[0]]
    try:
        results.append(brute_force_solve(inst, reach=reach))
    except InstanceTooLarge:
        pass
    states = inst.graph.n + reach.edge_count()
    free = Instance(inst.graph, inst.start, inst.goal, inst.q_max, states, inst.q0)
    unbounded = [rfastar_solve(inst, SearchOptions(unbounded_stops=True), reach=reach)[0],
                 dp_solve(free, reach=reach)[0]]
    if 0.0 < inst.q0 < inst.q_max:  # the pseudo vertex's arc, q_max - q0, is exact
        assert _cost(rfastar_solve(apply_initial_fuel_transform(inst))[0]) == _cost(results[0])
    for group in (results, unbounded):
        assert len({_cost(r) for r in group}) == 1, group
        assert _cost(group[0]) >= _cost(unbounded[0])
        case = free if group is unbounded else inst
        for r in group:
            if not isinstance(r, Infeasible):
                assert validate_solution(case, r, reach) == r.total_cost
