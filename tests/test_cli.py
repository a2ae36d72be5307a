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


@pytest.mark.parametrize("algo", ["rfastar", "dp"])
def test_a_huge_stop_limit_solves(graph_file, capsys, algo):
    args = _solve_args(graph_file, "--algo", algo)
    args[args.index("--kmax") + 1] = "1000000000000"
    assert main(args) == 0
    assert "cost 15" in capsys.readouterr().out


def test_dp_reports_the_layers_it_relaxed(graph_file, capsys):
    """The cheapest route takes 2 stops and no state of layer 2 costs less,
    so the DP relaxes 2 layers; the state count stays k_max × 6 states."""
    args = _solve_args(graph_file, "--algo", "dp")
    args[args.index("--kmax") + 1] = "12"
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("dp states 72 layers 2")
    assert main([*args, "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["dp_layers"] == 2 and stats["dp_states_computed"] == 72


def test_solve_json_schema(graph_file, capsys):
    assert main(_solve_args(graph_file, "--json")) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"cost", "stops", "route", "stats"}
    assert doc["cost"] == 15.0
    assert doc["route"][0] == "o" and doc["route"][-1] == "t"
    assert all(set(s) == {"vertex", "amount"} for s in doc["stops"])


def test_solve_json_reports_heuristic_settled(graph_file, capsys):
    assert main(_solve_args(graph_file, "--json")) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["heuristic_settled"] == 1  # only o lies beyond one tank of t


def test_infeasible_exit_code(graph_file, capsys):
    args = _solve_args(graph_file)
    args[args.index("--kmax") + 1] = "1"
    assert main(args) == 2


def test_infeasible_json_reports_the_search_stats(graph_file, capsys):
    args = _solve_args(graph_file, "--json")
    args[args.index("--kmax") + 1] = "1"
    assert main(args) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["cost"] is None and doc["stops"] == [] and doc["route"] == []
    assert doc["stats"]["labels_expanded"] > 0


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


@pytest.mark.parametrize("fuel", ["Infinity", "1e400"])
def test_non_finite_edge_fuel_exits_3(tmp_path, capsys, fuel):
    path = tmp_path / "g.json"
    path.write_text('{"vertices": [{"id": "o", "price": 1}, {"id": "t", "price": 1}],'
                    f' "edges": [{{"from": "o", "to": "t", "fuel": {fuel}}}]}}')
    assert main(_solve_args(path)) == 3
    assert "fuel must be > 0 and finite" in capsys.readouterr().err


@pytest.mark.parametrize("price", ["Infinity", "1e400"])
def test_non_finite_vertex_price_exits_3(tmp_path, capsys, price):
    # json reads both as inf; only null marks a station that sells nothing.
    path = tmp_path / "g.json"
    path.write_text(f'{{"vertices": [{{"id": "o", "price": {price}}}, {{"id": "t", "price": 1}}],'
                    ' "edges": [{"from": "o", "to": "t", "fuel": 2}]}')
    assert main(_solve_args(path)) == 3
    assert "vertices[0].price must be >= 0 and finite, or null" in capsys.readouterr().err


@pytest.mark.parametrize("change, message", [
    (("--kmax", "abc"), "argument --kmax: invalid int value: 'abc'"),
    (("--qmax", "six"), "argument --qmax: invalid float value: 'six'"),
    (("--kmax", None), "the following arguments are required: --kmax"),
    (("--algo", "astar"), "argument --algo: invalid choice: 'astar'"),
], ids=["bad-int", "bad-float", "missing-flag", "unknown-algo"])
def test_usage_errors_exit_3(graph_file, capsys, change, message):
    # argparse exits 2, which the CLI keeps for an infeasible instance.
    flag, value = change
    args = _solve_args(graph_file)
    if flag in args:
        i = args.index(flag)
        if value is None:
            del args[i:i + 2]
        else:
            args[i + 1] = value
    else:
        args += [flag, value]
    with pytest.raises(SystemExit) as exit_:
        main(args)
    assert exit_.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: gsp solve") and f"gsp solve: error: {message}" in err


def test_unknown_subcommand_exits_3(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["route"])
    assert exit_.value.code == 3
    assert "gsp: error: argument command: invalid choice: 'route'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gsp")


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


def test_solve_prints_exact_numbers(tmp_path, capsys):
    # 1234.56 * 1000 = 1234560.0, which :g would print as 1.23456e+06.
    path = tmp_path / "g.json"
    path.write_text(write_graph(FuelGraph.build([1234.56, 1.0], [(0, 1, 1000.0)],
                                                names=["o", "t"])))
    code = main(["solve", "--graph", str(path), "--start", "o", "--goal", "t",
                 "--qmax", "1000", "--kmax", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cost 1234560\n" in out and "stops o+1000\n" in out


def test_validate_reports_the_exact_mismatch(tmp_path, capsys):
    # The replay of buying 1 at 7.7 costs 7.7; :g would print both as 7.7.
    graph_path = tmp_path / "g.json"
    graph_path.write_text(write_graph(FuelGraph.build([7.7, 1.0], [(0, 1, 1.0)], names=["s", "t"])))
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps({
        "cost": 7.700000000000001, "stops": [{"vertex": "s", "amount": 1.0}], "route": ["s", "t"],
    }))
    assert main([
        "validate", "--graph", str(graph_path), "--start", "s", "--goal", "t",
        "--qmax", "1", "--kmax", "1", "--solution", str(sol_path),
    ]) == 3
    assert "stated cost 7.700000000000001 but replay gives 7.7\n" in capsys.readouterr().err


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


@pytest.mark.parametrize("cost, amount", [
    ("1", "1"), (True, 1.0), (1.0, True), (10**400, 1.0), (1.0, 10**400),
], ids=["strings", "bool-cost", "bool-amount", "int-too-large-cost", "int-too-large-amount"])
def test_validate_rejects_numbers_that_are_not_json_numbers(tmp_path, capsys, cost, amount):
    # Buying 1 at s for the one hop to t costs 1: read as floats, "1" and
    # true would pass as that valid schedule.
    graph_path = tmp_path / "g.json"
    graph_path.write_text(write_graph(FuelGraph.build([1.0, 1.0], [(0, 1, 1.0)], names=["s", "t"])))
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps({
        "cost": cost, "stops": [{"vertex": "s", "amount": amount}], "route": ["s", "t"],
    }))
    assert main([
        "validate", "--graph", str(graph_path), "--start", "s", "--goal", "t",
        "--qmax", "1", "--kmax", "1", "--solution", str(sol_path),
    ]) == 3
    assert "error: solution document is malformed" in capsys.readouterr().err


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
    pytest.param({"succ": [[[1, 10**400]], [[0, 3.0]]]}, id="fuel-int-too-large"),
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


@pytest.mark.parametrize("change", [
    pytest.param([], id="top-level-array"),
    pytest.param({"instances": 5}, id="instances-a-number"),
    pytest.param({"instances": [["o", "t"]]}, id="instance-not-an-object"),
    pytest.param({"solvers": None}, id="solvers-null"),
    pytest.param({"graph": 3}, id="graph-a-number"),
    pytest.param({"k_max": float("inf")}, id="k_max-infinite"),
    pytest.param({"k_max": 1.9}, id="k_max-fractional"),
    pytest.param({"instances": {"count": 2.7}}, id="count-fractional"),
    pytest.param({"instances": {"count": 2, "seed": 0.5}}, id="seed-fractional"),
])
def test_malformed_bench_spec_exits_3(graph_file, tmp_path, capsys, change):
    doc = change
    if isinstance(change, dict):
        doc = {"graph": graph_file.name, "q_max": 6, "k_max": 2,
               "instances": [{"start": "o", "goal": "t"}], **change}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert main(["bench", "--spec", str(spec), "--out", str(tmp_path / "out.csv")]) == 3
    assert "bench spec" in capsys.readouterr().err


def _bench_args(spec):
    return ["bench", "--spec", str(spec), "--out", str(spec.parent / "out.csv")]


def _spec_that_is_a_directory(tmp_path):
    (tmp_path / "spec.json").mkdir()
    return _bench_args(tmp_path / "spec.json")


def _spec_whose_graph_is_a_directory(tmp_path):
    (tmp_path / "graphs").mkdir()
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"graph": "graphs", "q_max": 6, "k_max": 2,
                                "instances": [{"start": "o", "goal": "t"}]}))
    return _bench_args(spec)


@pytest.mark.parametrize("argv", [
    pytest.param(_solve_args, id="solve-graph-a-directory"),
    pytest.param(_spec_that_is_a_directory, id="bench-spec-a-directory"),
    pytest.param(_spec_whose_graph_is_a_directory, id="spec-graph-a-directory"),
])
def test_path_naming_a_directory_exits_3(tmp_path, capsys, argv):
    assert main(argv(tmp_path)) == 3
    assert "error:" in capsys.readouterr().err


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


def _decimal_graph_file(tmp_path, fuel=3.4, price=1.1):
    path = tmp_path / "tenths.json"
    path.write_text(write_graph(FuelGraph.build([price, 1.0], [(0, 1, fuel)], names=["s", "t"])))
    return path


def _decimal_args(path, *extra):
    return ["--graph", str(path), "--start", "s", "--goal", "t", "--qmax", "4.4", "--kmax", "1",
            "--q0", "1.3", *extra]


@pytest.mark.parametrize("algo", ["rfastar", "rfastar-noh", "dp", "oracle"])
def test_decimal_graph_solves_exactly_and_validates(tmp_path, capsys, algo):
    """Buying 2.1 at 1.1 costs 2.31 exactly, and the written schedule replays."""
    path = _decimal_graph_file(tmp_path)
    assert main(["solve", *_decimal_args(path, "--algo", algo)]) == 0
    assert "cost 2.31\nroute s->t\nstops s+2.1\n" in capsys.readouterr().out
    assert main(["solve", *_decimal_args(path, "--algo", algo, "--json")]) == 0
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(capsys.readouterr().out)
    assert main(["validate", *_decimal_args(path, "--solution", str(sol_path))]) == 0
    assert capsys.readouterr().out == "valid, cost 2.31\n"


@pytest.mark.parametrize("fuel, price", [
    pytest.param(3 * 0.1, 1.0, id="fuel-of-17-places"),
    pytest.param(3.4, 2.0**51, id="price-past-2**53"),
])
@pytest.mark.parametrize("command", ["solve", "validate"])
def test_sums_past_2_53_in_integral_units_exit_3(tmp_path, capsys, fuel, price, command):
    path = _decimal_graph_file(tmp_path, fuel, price)
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps({"cost": 1.0, "stops": [{"vertex": "s", "amount": 1.0}],
                                    "route": ["s", "t"]}))
    extra = ["--solution", str(sol_path)] if command == "validate" else []
    assert main([command, *_decimal_args(path, *extra)]) == 3
    assert "2**53" in capsys.readouterr().err
