import json
import math

import pytest

from gsp import FuelGraph
from gsp.cli import main
from gsp.graphio import load_graph, write_graph
from gsp.mip import validate_lp_text

from conftest import decimal_price_graph, worked_example_graph


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "wx.json"
    path.write_text(write_graph(worked_example_graph()))
    return path


def _solve_args(graph_file, *extra):
    return ["solve", "--graph", str(graph_file), "--start", "o", "--goal", "t",
            "--qmax", "6", "--kmax", "2", *extra]


def test_gen_writes_a_parseable_graph(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["gen", "--n", "8", "--p", "0.5", "--seed", "3", "--out", str(out)]) == 0
    assert load_graph(out).n == 8


def test_solve_reports_cost(graph_file, capsys):
    assert main(_solve_args(graph_file)) == 0
    assert "cost 15" in capsys.readouterr().out


@pytest.mark.parametrize("algo", ["rfastar", "rfastar-noh", "dp", "oracle"])
def test_every_algorithm_solves(graph_file, capsys, algo):
    assert main(_solve_args(graph_file, "--algo", algo)) == 0
    assert "cost 15" in capsys.readouterr().out


def test_solve_json_schema(graph_file, capsys):
    assert main(_solve_args(graph_file, "--json")) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"cost", "stops", "route", "stats"}
    assert doc["cost"] == 15.0
    assert doc["route"][0] == "o" and doc["route"][-1] == "t"
    assert all(set(s) == {"vertex", "amount"} for s in doc["stops"])


def test_infeasible_exit_code(graph_file, capsys):
    args = _solve_args(graph_file)
    args[args.index("--kmax") + 1] = "1"
    assert main(args) == 2


def test_unbounded_flag(graph_file, capsys):
    assert main(_solve_args(graph_file, "--unbounded")) == 0
    assert main(_solve_args(graph_file, "--unbounded", "--algo", "dp")) == 3


def test_invalid_inputs_exit_3(graph_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(_solve_args(bad)) == 3
    args = _solve_args(graph_file)
    args[args.index("--start") + 1] = "zz"
    assert main(args) == 3


@pytest.mark.parametrize("flag, value", [
    ("--qmax", "inf"),
    ("--time-limit", "0"),
    ("--time-limit", "nan"),
    ("--time-limit", "-1"),
])
def test_infinite_tank_or_non_positive_time_limit_exits_3(graph_file, capsys, flag, value):
    args = _solve_args(graph_file)
    if flag in args:
        args[args.index(flag) + 1] = value
    else:
        args += [flag, value]
    assert main(args) == 3


def test_export_mip_passes_grammar_check(graph_file, tmp_path):
    out = tmp_path / "model.lp"
    assert main([
        "export-mip", "--graph", str(graph_file), "--start", "o", "--goal", "t",
        "--qmax", "6", "--kmax", "2", "--out", str(out),
    ]) == 0
    text = out.read_text()
    assert validate_lp_text(text) == []
    assert "smart_" in text
    assert main([
        "export-mip", "--graph", str(graph_file), "--start", "o", "--goal", "t",
        "--qmax", "6", "--kmax", "2", "--out", str(out), "--no-smart-refuel",
    ]) == 0
    assert "smart_" not in out.read_text()


def test_validate_round_trip(graph_file, tmp_path, capsys):
    sol_path = tmp_path / "sol.json"
    assert main(_solve_args(graph_file, "--json")) == 0
    sol_path.write_text(capsys.readouterr().out)
    assert main([
        "validate", "--graph", str(graph_file), "--start", "o", "--goal", "t",
        "--qmax", "6", "--kmax", "2", "--solution", str(sol_path),
    ]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_rejects_wrong_cost(graph_file, tmp_path, capsys):
    sol_path = tmp_path / "sol.json"
    assert main(_solve_args(graph_file, "--json")) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["cost"] = 14.0
    sol_path.write_text(json.dumps(doc))
    assert main([
        "validate", "--graph", str(graph_file), "--start", "o", "--goal", "t",
        "--qmax", "6", "--kmax", "2", "--solution", str(sol_path),
    ]) == 3


def test_validate_rejects_broken_schedule(graph_file, tmp_path, capsys):
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps({
        "cost": 120.0,
        "stops": [{"vertex": "o", "amount": 20.0}],
        "route": ["o", "b", "t"],
        "stats": {},
    }))
    assert main([
        "validate", "--graph", str(graph_file), "--start", "o", "--goal", "t",
        "--qmax", "6", "--kmax", "2", "--solution", str(sol_path),
    ]) == 3


def test_reach_cache_flag_creates_and_reuses(graph_file, tmp_path, capsys):
    cache = tmp_path / "reach.json"
    assert main(_solve_args(graph_file, "--reach-cache", str(cache))) == 0
    assert cache.exists()
    first = cache.read_bytes()
    assert main(_solve_args(graph_file, "--reach-cache", str(cache))) == 0
    assert cache.read_bytes() == first
    assert "cost 15" in capsys.readouterr().out


@pytest.mark.parametrize("doc", [
    pytest.param([[[1, 3.0]], [[0, 3.0]]], id="top-level-array"),
    pytest.param({"succ": [[1], [0]]}, id="entry-not-a-pair"),
    pytest.param({"succ": [[[1, 3.0]]]}, id="one-row-for-two-vertices"),
    pytest.param({"succ": [[[7, 3.0]], [[0, 3.0]]]}, id="vertex-out-of-range"),
    pytest.param({"succ": [[[0, 3.0]], [[0, 3.0]]]}, id="vertex-is-source"),
    pytest.param({"succ": [[[1, 99.0]], [[0, 3.0]]]}, id="fuel-above-tank"),
    pytest.param({"succ": [[[1, 0.0]], [[0, 3.0]]]}, id="fuel-zero"),
    pytest.param({"succ": [[[1, math.nan]], [[0, 3.0]]]}, id="fuel-nan"),
])
def test_malformed_reach_cache_exits_3(tmp_path, capsys, doc):
    graph_path = tmp_path / "pair.json"
    graph = FuelGraph.build([1.0, 2.0], [(0, 1, 3.0)], names=["a", "b"], undirected=True)
    graph_path.write_text(write_graph(graph))
    if isinstance(doc, dict):
        doc = {"graph_hash": load_graph(graph_path).content_hash(), "q_max": 5.0, **doc}
    cache = tmp_path / "reach.json"
    cache.write_text(json.dumps(doc))
    assert main(["solve", "--graph", str(graph_path), "--start", "a", "--goal", "b",
                 "--qmax", "5", "--kmax", "2", "--reach-cache", str(cache)]) == 3
    assert "reach cache" in capsys.readouterr().err


@pytest.mark.parametrize("digest", ["absent", "stale"])
def test_reach_cache_with_wrong_fuels_is_rebuilt(tmp_path, capsys, digest):
    graph_path = tmp_path / "pair.json"
    graph = FuelGraph.build([1.0, 2.0], [(0, 1, 3.0)], names=["a", "b"], undirected=True)
    graph_path.write_text(write_graph(graph))
    cache = tmp_path / "reach.json"
    args = ["solve", "--graph", str(graph_path), "--start", "a", "--goal", "b",
            "--qmax", "5", "--kmax", "2", "--reach-cache", str(cache)]
    doc = {"graph_hash": load_graph(graph_path).content_hash(), "q_max": 5.0}
    if digest == "stale":
        assert main(args) == 0
        doc = json.loads(cache.read_text())
    doc["succ"] = [[[1, 1.0]], [[0, 1.0]]]  # well formed, but the true fuel is 3
    cache.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(args) == 0
    assert "cost 3" in capsys.readouterr().out
    assert json.loads(cache.read_text())["succ"] == [[[1, 3.0]], [[0, 3.0]]]


def test_bench_command(graph_file, tmp_path):
    spec = tmp_path / "spec.json"
    out = tmp_path / "results.csv"
    spec.write_text(json.dumps({
        "graph": graph_file.name,
        "q_max": 6, "k_max": 2,
        "instances": [{"start": "o", "goal": "t"}],
        "solvers": ["rfastar", "dp", "oracle"],
    }))
    assert main(["bench", "--spec", str(spec), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("instance_id,solver,status")


def test_oracle_solves_short_decimal_prices(tmp_path, capsys):
    path = tmp_path / "decimal.json"
    path.write_text(write_graph(decimal_price_graph()))
    code = main(["solve", "--graph", str(path), "--start", "v0", "--goal", "v2",
                 "--qmax", "10", "--kmax", "2", "--q0", "9", "--algo", "oracle"])
    assert code == 0
    assert "cost 1.1\n" in capsys.readouterr().out


@pytest.mark.parametrize("algo", ["rfastar", "rfastar-noh", "dp"])
def test_tiny_time_limit_exits_4(graph_file, algo):
    assert main(_solve_args(graph_file, "--algo", algo, "--time-limit", "1e-9")) == 4


def test_solve_timeout_exit_code(tmp_path):
    from gsp import gen_binomial

    path = tmp_path / "big.json"
    path.write_text(write_graph(gen_binomial(96, 0.3, seed=5)))
    code = main([
        "solve", "--graph", str(path), "--start", "v0", "--goal", "v95",
        "--qmax", "16", "--kmax", "6", "--algo", "dp", "--time-limit", "1e-4",
    ])
    assert code == 4
