"""Benchmark harness: a solver matrix over an instance list, CSV out.

One row per (instance, solver).  The refuel graph is built once per run
and shared, mirroring how the preprocessing cost is amortised in practice:
its build time is the reach_ms of every row, and the other row timings
cover only the per-solve work.  Deadlines are cooperative and rows that
hit them report status "timeout" with whatever counters the solver had
accumulated.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from .core import FuelGraph, Infeasible, Instance, SearchStats, Solution, SolveTimeout
from .dp import dp_solve
from .graphio import SchemaError, load_graph
from .oracle import InstanceTooLarge, NonIntegralInput, brute_force_solve
from .reach import compute_reachable_sets
from .search import SearchOptions, rfastar_solve

SOLVER_NAMES = ("rfastar", "rfastar-noh", "dp", "oracle")

CSV_COLUMNS = (
    "instance_id", "solver", "status", "cost", "stops",
    "labels_generated", "labels_expanded", "labels_pruned", "dp_states",
    "reach_ms", "heuristic_build_ms", "search_ms", "total_ms",
)


@dataclass
class BenchSpec:
    graph: FuelGraph
    q_max: float
    k_max: int
    instances: tuple[tuple[int, int], ...]
    solvers: tuple[str, ...]
    q0: float = 0.0
    time_limit: float = 30.0
    out: str | None = None

    def __post_init__(self):
        if not self.solvers:
            raise ValueError("need at least one solver")
        for s in self.solvers:
            if s not in SOLVER_NAMES:
                raise ValueError(f"unknown solver {s!r}")
        if not (self.time_limit > 0):
            raise ValueError("time limit must be positive")


def _spec_number(doc: dict, key: str, default: float | None = None) -> float:
    x = doc.get(key, default)
    if not isinstance(x, (int, float)) or isinstance(x, bool) or not math.isfinite(x):
        raise SchemaError(f"bench spec: {key} must be a finite number")
    return x


def _spec_int(doc: dict, key: str, default: int | None = None, minimum: int | None = None) -> int:
    """A whole number, at least minimum: 2.0 reads as 2, and 1.9 is rejected, not cut."""
    x = _spec_number(doc, key, default)
    if x != int(x) or (minimum is not None and x < minimum):
        at_least = "" if minimum is None else f" >= {minimum}"
        raise SchemaError(f"bench spec: {key} must be an integer{at_least}")
    return int(x)


def _spec_pairs(doc: dict, graph: FuelGraph) -> list[tuple[int, int]]:
    """Instances as (start, goal) vertex ids: sampled from {"count", "seed"},
    or named by a list of {"start", "goal"} objects."""
    spec_instances = doc.get("instances")
    if isinstance(spec_instances, dict):
        rng = random.Random(_spec_int(spec_instances, "seed", 0))
        count = _spec_int(spec_instances, "count", minimum=0)
        return [tuple(rng.sample(range(graph.n), 2)) for _ in range(count)]
    if not isinstance(spec_instances, list):
        raise SchemaError("bench spec: instances must be an object or a list")
    index = graph.name_index()
    pairs: list[tuple[int, int]] = []
    for i, entry in enumerate(spec_instances):
        if not isinstance(entry, dict) or not {"start", "goal"} <= entry.keys():
            raise SchemaError(f"bench spec: instances[{i}] must be an object with start and goal")
        for key in ("start", "goal"):
            if str(entry[key]) not in index:
                raise SchemaError(f"bench spec: instances[{i}].{key} names no vertex")
        pairs.append((index[str(entry["start"])], index[str(entry["goal"])]))
    return pairs


def load_bench_spec(path: str | Path) -> BenchSpec:
    """Read a bench spec file; a document of the wrong shape raises SchemaError."""
    p = Path(path)
    doc = json.loads(p.read_text())
    if not isinstance(doc, dict):
        raise SchemaError("bench spec: top level must be an object")
    if not isinstance(doc.get("graph"), str):
        raise SchemaError("bench spec: graph must be a file name")
    solvers = doc.get("solvers", list(SOLVER_NAMES))
    if not isinstance(solvers, list) or not all(isinstance(s, str) for s in solvers):
        raise SchemaError("bench spec: solvers must be a list of names")
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise SchemaError("bench spec: out must be a file name")
    graph = load_graph((p.parent / doc["graph"]).resolve())
    return BenchSpec(
        graph=graph,
        q_max=float(_spec_number(doc, "q_max")),
        k_max=_spec_int(doc, "k_max", minimum=1),
        q0=float(_spec_number(doc, "q0", 0.0)),
        instances=tuple(_spec_pairs(doc, graph)),
        solvers=tuple(solvers),
        time_limit=float(_spec_number(doc, "time_limit", 30.0)),
        out=out,
    )


def format_number(x: float) -> str:
    """x exactly: an integral value as an int, any other with repr."""
    return str(int(x)) if float(x).is_integer() else repr(x)


def run_solver(name: str, inst: Instance, reach, deadline: float | None,
               unbounded: bool = False) -> tuple[Solution | Infeasible, SearchStats]:
    """Run one of SOLVER_NAMES on inst; returns (result, stats).

    unbounded drops the stop limit and applies to the search solvers only
    (ValueError otherwise).  The oracle keeps no stats of its own, so its
    wall time is reported as the search time.
    """
    if unbounded and name in ("dp", "oracle"):
        raise ValueError("--unbounded applies only to the search algorithms")
    if name in ("rfastar", "rfastar-noh"):
        opts = SearchOptions(use_heuristic=name == "rfastar", unbounded_stops=unbounded)
        return rfastar_solve(inst, opts, reach=reach, deadline=deadline)
    if name == "dp":
        return dp_solve(inst, reach=reach, deadline=deadline)
    t0 = perf_counter()
    result = brute_force_solve(inst, reach=reach, deadline=deadline)
    stats = SearchStats()
    stats.search_time = perf_counter() - t0
    return result, stats


def bench_run(spec: BenchSpec) -> str:
    """Execute the matrix and return (and optionally write) the CSV text."""
    t0 = perf_counter()
    reach = compute_reachable_sets(spec.graph, spec.q_max)
    reach_ms = f"{(perf_counter() - t0) * 1e3:.3f}"

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for idx, (start, goal) in enumerate(spec.instances):
        inst = Instance(spec.graph, start, goal, spec.q_max, spec.k_max, spec.q0)
        for solver in spec.solvers:
            row = {
                "instance_id": f"i{idx:04d}",
                "solver": solver,
                "status": "", "cost": "", "stops": "",
                "labels_generated": "", "labels_expanded": "", "labels_pruned": "",
                "dp_states": "", "reach_ms": reach_ms,
                "heuristic_build_ms": "", "search_ms": "", "total_ms": "",
            }
            t0 = perf_counter()
            stats = None
            try:
                result, stats = run_solver(solver, inst, reach, t0 + spec.time_limit)
                if isinstance(result, Infeasible):
                    row["status"] = "infeasible"
                else:
                    row["status"] = "solved"
                    row["cost"] = format_number(result.total_cost)
                    row["stops"] = str(len(result.stops))
            except SolveTimeout as t:
                row["status"] = "timeout"
                stats = t.stats
            except (InstanceTooLarge, NonIntegralInput):
                row["status"] = "error"
            total = perf_counter() - t0
            if stats is not None:
                row["labels_generated"] = str(stats.labels_generated)
                row["labels_expanded"] = str(stats.labels_expanded)
                row["labels_pruned"] = str(stats.labels_pruned)
                row["dp_states"] = str(stats.dp_states_computed)
                row["heuristic_build_ms"] = f"{stats.heuristic_build_time * 1e3:.3f}"
                row["search_ms"] = f"{stats.search_time * 1e3:.3f}"
            row["total_ms"] = f"{total * 1e3:.3f}"
            writer.writerow([row[c] for c in CSV_COLUMNS])

    text = buf.getvalue()
    if spec.out:
        Path(spec.out).write_text(text)
    return text
