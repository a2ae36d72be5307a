import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsp import Infeasible, compute_reachable_sets, gen_binomial, rfastar_solve, validate_solution
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


def test_resolve_instance_checks_ids():
    g = worked_example_graph()
    with pytest.raises(SchemaError, match="unknown start"):
        resolve_instance(g, "zz", "t", 6.0, 2)
