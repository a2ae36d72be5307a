import csv
import io
import json

import pytest

from gsp import FuelGraph, gen_binomial
from gsp.bench import BenchSpec, bench_run, load_bench_spec
from gsp.graphio import SchemaError, write_graph
from gsp.oracle import MAX_VERTICES

from conftest import worked_example_graph

GOLDEN_HEADER = (
    "instance_id,solver,status,cost,stops,"
    "labels_generated,labels_expanded,labels_pruned,dp_states,dp_layers,"
    "reach_ms,heuristic_build_ms,search_ms,total_ms"
)


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_header_is_stable():
    spec = BenchSpec(
        graph=worked_example_graph(), q_max=6.0, k_max=2,
        instances=(), solvers=("rfastar",),
    )
    text = bench_run(spec)
    assert text.splitlines() == [GOLDEN_HEADER]


def test_all_solvers_agree_on_the_worked_example():
    spec = BenchSpec(
        graph=worked_example_graph(), q_max=6.0, k_max=2,
        instances=((0, 3),),
        solvers=("rfastar", "rfastar-noh", "dp", "oracle"),
    )
    rows = _rows(bench_run(spec))
    assert len(rows) == 4
    assert all(r["status"] == "solved" for r in rows)
    assert {r["cost"] for r in rows} == {"15"}
    assert {r["stops"] for r in rows} == {"2"}
    assert [r["dp_layers"] for r in rows] == ["0", "0", "2", "0"]  # the DP relaxed 2 layers
    assert len({r["reach_ms"] for r in rows}) == 1  # the one build, on every row
    assert float(rows[0]["reach_ms"]) > 0


def test_infeasible_status():
    spec = BenchSpec(
        graph=worked_example_graph(), q_max=6.0, k_max=1,
        instances=((0, 3),), solvers=("rfastar", "dp"),
    )
    rows = _rows(bench_run(spec))
    assert {r["status"] for r in rows} == {"infeasible"}
    assert all(r["cost"] == "" for r in rows)


def test_timeout_rows_carry_partial_stats():
    graph = gen_binomial(96, 0.3, seed=9)
    spec = BenchSpec(
        graph=graph, q_max=16.0, k_max=6,
        instances=((0, 95),), solvers=("dp", "rfastar-noh"),
        time_limit=1e-5,
    )
    rows = _rows(bench_run(spec))
    assert all(r["status"] == "timeout" for r in rows)
    assert all(r["total_ms"] != "" for r in rows)


def test_oracle_over_its_size_guard_writes_an_error_row():
    graph = FuelGraph.build([1.0] * (MAX_VERTICES + 1),
                            [(i, i + 1, 1.0) for i in range(MAX_VERTICES)])
    spec = BenchSpec(
        graph=graph, q_max=2.0, k_max=MAX_VERTICES,
        instances=((0, MAX_VERTICES),), solvers=("rfastar", "oracle"),
    )
    search, oracle = _rows(bench_run(spec))
    assert search["status"] == "solved"
    assert oracle["status"] == "error"
    assert oracle["cost"] == oracle["labels_generated"] == oracle["search_ms"] == ""
    assert oracle["total_ms"] != ""


def test_row_order_is_instance_major():
    spec = BenchSpec(
        graph=worked_example_graph(), q_max=6.0, k_max=2,
        instances=((0, 3), (2, 3)), solvers=("rfastar", "dp"),
    )
    rows = _rows(bench_run(spec))
    assert [(r["instance_id"], r["solver"]) for r in rows] == [
        ("i0000", "rfastar"), ("i0000", "dp"),
        ("i0001", "rfastar"), ("i0001", "dp"),
    ]


def test_spec_validation():
    with pytest.raises(ValueError):
        BenchSpec(graph=worked_example_graph(), q_max=6.0, k_max=2,
                  instances=(), solvers=())
    with pytest.raises(ValueError):
        BenchSpec(graph=worked_example_graph(), q_max=6.0, k_max=2,
                  instances=(), solvers=("nope",))


def test_load_spec_from_json(tmp_path):
    (tmp_path / "g.json").write_text(write_graph(worked_example_graph()))
    (tmp_path / "spec.json").write_text(
        '{"graph": "g.json", "q_max": 6, "k_max": 2,'
        ' "instances": [{"start": "o", "goal": "t"}],'
        ' "solvers": ["rfastar", "dp"], "time_limit": 10}'
    )
    spec = load_bench_spec(tmp_path / "spec.json")
    assert spec.instances == ((0, 3),)
    assert spec.solvers == ("rfastar", "dp")
    rows = _rows(bench_run(spec))
    assert {r["cost"] for r in rows} == {"15"}


def test_load_spec_with_sampled_instances(tmp_path):
    (tmp_path / "g.json").write_text(write_graph(worked_example_graph()))
    (tmp_path / "spec.json").write_text(
        '{"graph": "g.json", "q_max": 6, "k_max": 2,'
        ' "instances": {"count": 4, "seed": 7}, "solvers": ["rfastar"]}'
    )
    spec = load_bench_spec(tmp_path / "spec.json")
    assert len(spec.instances) == 4
    assert all(s != g for s, g in spec.instances)
    assert spec.instances == load_bench_spec(tmp_path / "spec.json").instances


@pytest.mark.parametrize("change, message", [
    pytest.param({"k_max": 1.9}, "k_max must be an integer >= 1", id="k_max-fractional"),
    pytest.param({"k_max": 0}, "k_max must be an integer >= 1", id="k_max-zero"),
    pytest.param({"instances": {"count": 2.7}}, "count must be an integer >= 0",
                 id="count-fractional"),
    pytest.param({"instances": {"count": -1}}, "count must be an integer >= 0",
                 id="count-negative"),
    pytest.param({"instances": {"count": 2, "seed": 0.5}}, "seed must be an integer",
                 id="seed-fractional"),
])
def test_load_spec_rejects_what_an_integer_field_would_truncate(tmp_path, change, message):
    (tmp_path / "g.json").write_text(write_graph(worked_example_graph()))
    doc = {"graph": "g.json", "q_max": 6, "k_max": 2, "instances": {"count": 4, "seed": 7}}
    (tmp_path / "spec.json").write_text(json.dumps({**doc, **change}))
    with pytest.raises(SchemaError, match=message):
        load_bench_spec(tmp_path / "spec.json")


def test_load_spec_takes_integral_floats(tmp_path):
    (tmp_path / "g.json").write_text(write_graph(worked_example_graph()))
    (tmp_path / "spec.json").write_text(
        '{"graph": "g.json", "q_max": 6, "k_max": 2.0, "instances": {"count": 3.0, "seed": -7}}')
    spec = load_bench_spec(tmp_path / "spec.json")
    assert spec.k_max == 2 and isinstance(spec.k_max, int) and len(spec.instances) == 3
