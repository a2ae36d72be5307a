import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsp import (
    FuelGraph,
    Infeasible,
    compute_reachable_sets,
    gen_binomial,
    rfastar_solve,
    validate_solution,
)
from gsp.graphio import (
    ParseError,
    SchemaError,
    load_reach_cache,
    parse_graph,
    resolve_instance,
    save_reach_cache,
    solution_from_json,
    solution_to_json,
    write_graph,
)

from conftest import worked_example, worked_example_graph

WX_JSON = """
{
  "directed": false,
  "vertices": [
    {"id": "o", "price": 2},
    {"id": "a", "price": 3},
    {"id": "b", "price": 1},
    {"id": "t", "price": 5}
  ],
  "edges": [
    {"from": "o", "to": "a", "fuel": 2},
    {"from": "o", "to": "b", "fuel": 5},
    {"from": "a", "to": "t", "fuel": 5},
    {"from": "b", "to": "t", "fuel": 5}
  ]
}
"""


def test_parse_worked_example_equals_programmatic_build():
    assert parse_graph(WX_JSON) == worked_example_graph()


def test_round_trip_is_stable():
    g = parse_graph(WX_JSON)
    assert parse_graph(write_graph(g)) == g


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 12))
def test_round_trip_on_generated_graphs(seed, n):
    g = gen_binomial(n, 0.6, seed=seed)
    assert parse_graph(write_graph(g)) == g


def test_malformed_json_reports_position():
    with pytest.raises(ParseError, match="line"):
        parse_graph("{ nope }")


def test_zero_fuel_edge_names_the_entry():
    doc = WX_JSON.replace('{"from": "b", "to": "t", "fuel": 5}',
                          '{"from": "b", "to": "t", "fuel": 0}')
    with pytest.raises(SchemaError, match=r"edges\[3\].fuel must be > 0"):
        parse_graph(doc)


@pytest.mark.parametrize("fuel", ["Infinity", "1e400", "1" + "0" * 400],
                         ids=["Infinity", "1e400", "int-too-large"])
def test_infinite_fuel_edge_rejected(fuel):
    # Python's json reads the first two as inf, which would make the edge
    # unusable and the written graph not JSON; the third overflows a float.
    doc = WX_JSON.replace('{"from": "b", "to": "t", "fuel": 5}',
                          f'{{"from": "b", "to": "t", "fuel": {fuel}}}')
    with pytest.raises(SchemaError, match=r"edges\[3\].fuel must be > 0 and finite"):
        parse_graph(doc)


def test_duplicate_vertex_id_rejected():
    doc = WX_JSON.replace('{"id": "a", "price": 3}', '{"id": "o", "price": 3}')
    with pytest.raises(SchemaError, match="duplicates"):
        parse_graph(doc)


def test_unknown_edge_endpoint_rejected():
    doc = WX_JSON.replace('{"from": "o", "to": "a", "fuel": 2}',
                          '{"from": "o", "to": "zz", "fuel": 2}')
    with pytest.raises(SchemaError, match="unknown vertex"):
        parse_graph(doc)


def test_negative_price_rejected():
    doc = WX_JSON.replace('{"id": "a", "price": 3}', '{"id": "a", "price": -3}')
    with pytest.raises(SchemaError, match="price"):
        parse_graph(doc)


@pytest.mark.parametrize("price", ["Infinity", "1e400", "1" + "0" * 400],
                         ids=["Infinity", "1e400", "int-too-large"])
def test_non_finite_price_rejected(price):
    # json reads the first two as inf, which would silently mean what null
    # means; the third is an int too large for a float.
    doc = WX_JSON.replace('{"id": "a", "price": 3}', f'{{"id": "a", "price": {price}}}')
    with pytest.raises(SchemaError, match=r"vertices\[1\].price must be >= 0 and finite, or null"):
        parse_graph(doc)


def test_null_price_means_no_refuelling_there():
    doc = WX_JSON.replace('{"id": "a", "price": 3}', '{"id": "a", "price": null}')
    g = parse_graph(doc)
    assert math.isinf(g.price[1])
    # With both midpoints unusable the trip cannot be made.
    doc2 = doc.replace('{"id": "b", "price": 1}', '{"id": "b", "price": null}')
    inst = resolve_instance(parse_graph(doc2), "o", "t", 6.0, 2)
    result, _ = rfastar_solve(inst)
    assert isinstance(result, Infeasible)


def test_solution_json_round_trip():
    inst = worked_example()
    result, stats = rfastar_solve(inst)
    text = solution_to_json(inst.graph, result, stats)
    parsed, stated = solution_from_json(inst.graph, text)
    assert stated == result.total_cost
    assert validate_solution(inst, parsed) == result.total_cost


@pytest.mark.parametrize("key, value", [
    ("cost", "15"), ("cost", True), ("amount", "5"), ("amount", True),
], ids=["cost-string", "cost-bool", "amount-string", "amount-bool"])
def test_solution_numbers_must_be_json_numbers(key, value):
    doc = {"cost": 15.0, "stops": [{"vertex": "o", "amount": 5.0}], "route": ["o", "b", "t"]}
    if key == "cost":
        doc["cost"] = value
    else:
        doc["stops"][0]["amount"] = value
    with pytest.raises(SchemaError, match="is not a number"):
        solution_from_json(worked_example_graph(), json.dumps(doc))


def test_reach_cache_round_trip(tmp_path):
    g = worked_example_graph()
    reach = compute_reachable_sets(g, 6.0)
    path = tmp_path / "reach.json"
    save_reach_cache(reach, g, path)
    loaded = load_reach_cache(g, 6.0, path)
    assert loaded is not None
    assert loaded.succ == reach.succ
    assert loaded == reach


def test_reach_cache_rejects_mismatched_key(tmp_path):
    g = worked_example_graph()
    reach = compute_reachable_sets(g, 6.0)
    path = tmp_path / "reach.json"
    save_reach_cache(reach, g, path)
    assert load_reach_cache(g, 7.0, path) is None
    other = parse_graph(WX_JSON.replace('"price": 2', '"price": 4'))
    assert load_reach_cache(other, 6.0, path) is None


def _pair_graph(prices=(1.0, 2.0), fuel=3.0, names=("a", "b")):
    return FuelGraph.build(list(prices), [(0, 1, fuel)], names=list(names), undirected=True)


# The file save_reach_cache writes for _pair_graph() at tank 5; the format
# and its keys are fixed, so files written by earlier versions still load.
PAIR_CACHE = (
    '{"graph_hash": "da8ce6a384a075f0afcd907d2a80a943ef6d25039513b0e10d09e81d49d1b776", '
    '"q_max": 5.0, "succ": [[[1, 3.0]], [[0, 3.0]]], '
    '"succ_sha256": "5e4f1cf3c7f83351b55eae006e3c04cb26d2d3db38baa724f523a93afe755699"}\n'
)


def _saved_pair_cache(tmp_path):
    """The pair graph, the path of the reach cache saved for it at tank 5,
    and that file's document."""
    graph = _pair_graph()
    path = tmp_path / "reach.json"
    save_reach_cache(compute_reachable_sets(graph, 5.0), graph, path)
    assert path.read_text() == PAIR_CACHE
    return graph, path, json.loads(PAIR_CACHE)


@pytest.mark.parametrize("doc", [
    pytest.param([[[1, 3.0]], [[0, 3.0]]], id="top-level-array"),
    pytest.param({"succ": [[1], [0]]}, id="entry-not-a-pair"),
    pytest.param({"succ": [[[1, 3.0]]]}, id="one-row-for-two-vertices"),
    pytest.param({"succ": [[[7, 3.0]], [[0, 3.0]]]}, id="vertex-out-of-range"),
    pytest.param({"succ": [[[0, 3.0]], [[0, 3.0]]]}, id="vertex-is-source"),
    pytest.param({"succ": [[[1, 99.0]], [[0, 3.0]]]}, id="fuel-above-tank"),
    pytest.param({"succ": [[[1, 0.0]], [[0, 3.0]]]}, id="fuel-zero"),
    pytest.param({"succ": [[[1, math.nan]], [[0, 3.0]]]}, id="fuel-nan"),
    pytest.param({"succ": [[[1, 10**400]], [[0, 3.0]]]}, id="fuel-int-too-large"),
])
def test_malformed_reach_cache_raises_schema_error(tmp_path, doc):
    """A file keyed to the graph and tank whose arcs are malformed is
    rejected, never read as a reach graph and never taken as stale."""
    graph, path, saved = _saved_pair_cache(tmp_path)
    path.write_text(json.dumps({**saved, **doc} if isinstance(doc, dict) else doc))
    with pytest.raises(SchemaError, match="reach cache"):
        load_reach_cache(graph, 5.0, path)


@pytest.mark.parametrize("digest", ["absent", "stale"])
def test_reach_cache_with_wrong_fuels_is_stale(tmp_path, digest):
    graph, path, doc = _saved_pair_cache(tmp_path)
    doc["succ"] = [[[1, 1.0]], [[0, 1.0]]]  # well formed, but the true fuel is 3
    if digest == "absent":
        del doc["succ_sha256"]
    path.write_text(json.dumps(doc))
    assert load_reach_cache(graph, 5.0, path) is None


@pytest.mark.parametrize("other", [
    pytest.param({"prices": (1.0, 2.5)}, id="price"),
    pytest.param({"fuel": 4.0}, id="fuel"),
    pytest.param({"names": ("a", "c")}, id="name"),
])
def test_reach_cache_is_keyed_to_the_graph_content(tmp_path, other):
    graph, path, _ = _saved_pair_cache(tmp_path)
    equal = parse_graph(write_graph(graph))
    assert equal is not graph
    assert load_reach_cache(equal, 5.0, path) == compute_reachable_sets(graph, 5.0)
    assert load_reach_cache(_pair_graph(**other), 5.0, path) is None


def test_resolve_instance_checks_ids():
    g = worked_example_graph()
    with pytest.raises(SchemaError, match="unknown start"):
        resolve_instance(g, "zz", "t", 6.0, 2)


@pytest.mark.parametrize("k_max", [2.7, True, "3", math.nan, math.inf, None])
def test_resolve_instance_rejects_a_stop_limit_that_is_not_whole(k_max):
    with pytest.raises(SchemaError, match="stop limit"):
        resolve_instance(worked_example_graph(), "o", "t", 6.0, k_max)


@pytest.mark.parametrize("k_max", [2, 2.0])
def test_resolve_instance_takes_a_whole_stop_limit(k_max):
    inst = resolve_instance(worked_example_graph(), "o", "t", 6.0, k_max)
    assert inst.k_max == 2 and type(inst.k_max) is int


@pytest.mark.parametrize("q_max, q0, what", [
    ("6", 0.0, "tank capacity"),
    (True, 0.0, "tank capacity"),
    (None, 0.0, "tank capacity"),
    (6.0, "1", "initial fuel"),
    (6.0, True, "initial fuel"),
    (6, False, "initial fuel"),
])
def test_resolve_instance_rejects_a_tank_or_fuel_that_is_not_a_number(q_max, q0, what):
    with pytest.raises(SchemaError, match=what):
        resolve_instance(worked_example_graph(), "o", "t", q_max, 2, q0)


@pytest.mark.parametrize("q_max, q0", [(6, 1), (6.0, 1.5), (6, 0.0)])
def test_resolve_instance_takes_int_and_float_fuel(q_max, q0):
    inst = resolve_instance(worked_example_graph(), "o", "t", q_max, 2, q0)
    assert (inst.q_max, inst.q0) == (float(q_max), float(q0))
    assert type(inst.q_max) is float and type(inst.q0) is float


@pytest.mark.parametrize("q_max, q0, what", [
    (10**400, 2, "tank capacity"),
    (-10**400, 2, "tank capacity"),
    (6, 10**400, "initial fuel"),
    (6, 10**5000, "initial fuel"),  # past the digits str() converts
], ids=["tank", "negative-tank", "fuel", "fuel-of-5001-digits"])
def test_resolve_instance_rejects_an_int_too_large_for_a_float(q_max, q0, what):
    with pytest.raises(SchemaError, match=f"{what} .* too large"):
        resolve_instance(worked_example_graph(), "o", "t", q_max, 2, q0)
