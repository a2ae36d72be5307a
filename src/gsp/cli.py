"""Command line interface.

Subcommands: gen, solve, bench, export-mip, validate.  Exit codes:
0 solved or valid, 2 infeasible, 3 invalid input (a usage error too),
4 timeout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

from .bench import SOLVER_NAMES, bench_run, format_number, load_bench_spec, run_solver
from .core import Infeasible, SolveTimeout, validate_solution
from .generate import GenerationFailed, gen_binomial
from .graphio import load_graph, resolve_instance, solution_from_json, solution_to_json, write_graph
from .mip import build_mip, write_lp

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INVALID = 3
EXIT_TIMEOUT = 4

# ParseError, SchemaError, InvalidInstance, SolutionError and
# InstanceTooLarge are ValueErrors.  OSError covers a path that is missing,
# names a directory or cannot be read.
_INPUT_ERRORS = (ValueError, KeyError, OSError, GenerationFailed)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting EXIT_INVALID, as 2 means infeasible."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _add_instance_args(p: argparse.ArgumentParser):
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--start", required=True, help="start vertex id")
    p.add_argument("--goal", required=True, help="goal vertex id")
    p.add_argument("--qmax", required=True, type=float, help="tank capacity")
    p.add_argument("--kmax", required=True, type=int, help="refuelling stop limit")
    p.add_argument("--q0", type=float, default=0.0, help="initial fuel (default 0)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gsp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a connected random graph")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--p", required=True, type=float)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--price-lo", type=int, default=1)
    p.add_argument("--price-hi", type=int, default=10)
    p.add_argument("--fuel-lo", type=int, default=1)
    p.add_argument("--fuel-hi", type=int, default=10)
    p.add_argument("--out", help="output file (stdout when omitted)")

    p = sub.add_parser("solve", help="solve one instance")
    _add_instance_args(p)
    p.add_argument("--algo", default="rfastar",
                   choices=SOLVER_NAMES)
    p.add_argument("--unbounded", action="store_true", help="ignore the stop limit")
    p.add_argument("--time-limit", type=float, help="seconds before giving up")
    p.add_argument("--json", action="store_true", help="emit the solution as JSON")

    p = sub.add_parser("bench", help="run a solver matrix from a spec file")
    p.add_argument("--spec", required=True, help="bench spec JSON")
    p.add_argument("--out", help="CSV output path (overrides the spec)")

    p = sub.add_parser("export-mip", help="write the instance as an LP file")
    _add_instance_args(p)
    p.add_argument("--out", required=True, help="LP output path")
    p.add_argument("--no-smart-refuel", action="store_true",
                   help="omit the purchase-rule cuts")

    p = sub.add_parser("validate", help="replay a solution file against an instance")
    _add_instance_args(p)
    p.add_argument("--solution", required=True, help="solution JSON file")
    return parser


def _cmd_gen(args) -> int:
    graph = gen_binomial(args.n, args.p, args.seed, args.price_lo, args.price_hi,
                         args.fuel_lo, args.fuel_hi)
    text = write_graph(graph)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_solve(args) -> int:
    graph = load_graph(args.graph)
    inst = resolve_instance(graph, args.start, args.goal, args.qmax, args.kmax, args.q0)
    if args.time_limit is not None and not (args.time_limit > 0):  # also rejects NaN
        raise ValueError("time limit must be positive")
    deadline = perf_counter() + args.time_limit if args.time_limit is not None else None
    result, stats = run_solver(args.algo, inst, None, deadline, args.unbounded)
    if args.json:
        sys.stdout.write(solution_to_json(graph, result, stats))
    elif isinstance(result, Infeasible):
        print("infeasible")
    else:
        stops = " ".join(f"{graph.names[v]}+{format_number(a)}"
                         for v, a in result.stops) or "(none)"
        route = "->".join(graph.names[v] for v, _ in result.route)
        print(f"cost {format_number(result.total_cost)}")
        print(f"route {route}")
        print(f"stops {stops}")
        print(f"labels generated {stats.labels_generated} expanded {stats.labels_expanded} "
              f"pruned {stats.labels_pruned} dp states {stats.dp_states_computed} "
              f"layers {stats.dp_layers}")
    return EXIT_INFEASIBLE if isinstance(result, Infeasible) else EXIT_OK


def _cmd_bench(args) -> int:
    spec = load_bench_spec(args.spec)
    if args.out:
        spec.out = args.out
    text = bench_run(spec)
    if not spec.out:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_export_mip(args) -> int:
    graph = load_graph(args.graph)
    inst = resolve_instance(graph, args.start, args.goal, args.qmax, args.kmax, args.q0)
    model = build_mip(inst, include_smart_refuel=not args.no_smart_refuel)
    Path(args.out).write_text(write_lp(model))
    return EXIT_OK


def _cmd_validate(args) -> int:
    graph = load_graph(args.graph)
    inst = resolve_instance(graph, args.start, args.goal, args.qmax, args.kmax, args.q0)
    sol, stated = solution_from_json(graph, Path(args.solution).read_text())
    cost = validate_solution(inst, sol)
    if cost != stated:
        print(f"stated cost {format_number(stated)} but replay gives {format_number(cost)}",
              file=sys.stderr)
        return EXIT_INVALID
    print(f"valid, cost {format_number(cost)}")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "bench": _cmd_bench,
    "export-mip": _cmd_export_mip,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SolveTimeout:
        print("timed out", file=sys.stderr)
        return EXIT_TIMEOUT
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
