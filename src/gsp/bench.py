"""Benchmark harness: a solver matrix over an instance list, CSV out.

One row per (instance, solver).  The refuel graph is built once per run
and shared, mirroring how the preprocessing cost is amortised in practice;
row timings cover only the per-solve work.  Deadlines are cooperative and
rows that hit them report status "timeout" with whatever counters the
solver had accumulated.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from .core import FuelGraph, Infeasible, Instance, SearchStats, Solution, SolveTimeout
from .dp import dp_solve
from .graphio import load_graph
from .oracle import InstanceTooLarge, NonIntegralInput, brute_force_solve
from .reach import compute_reachable_sets
from .search import SearchOptions, rfastar_solve

SOLVER_NAMES = ("rfastar", "rfastar-noh", "dp", "oracle")

CSV_COLUMNS = (
    "instance_id", "solver", "status", "cost", "stops",
    "labels_generated", "labels_expanded", "labels_pruned", "dp_states",
    "heuristic_build_ms", "search_ms", "total_ms",
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


def load_bench_spec(path: str | Path) -> BenchSpec:
    p = Path(path)
    doc = json.loads(p.read_text())
    graph = load_graph((p.parent / doc["graph"]).resolve())
    index = graph.name_index()
    spec_instances = doc["instances"]
    pairs: list[tuple[int, int]] = []
    if isinstance(spec_instances, dict):
        rng = random.Random(int(spec_instances.get("seed", 0)))
        for _ in range(int(spec_instances["count"])):
            s, g = rng.sample(range(graph.n), 2)
            pairs.append((s, g))
    else:
        for entry in spec_instances:
            pairs.append((index[str(entry["start"])], index[str(entry["goal"])]))
    return BenchSpec(
        graph=graph,
        q_max=float(doc["q_max"]),
        k_max=int(doc["k_max"]),
        q0=float(doc.get("q0", 0.0)),
        instances=tuple(pairs),
        solvers=tuple(doc.get("solvers", list(SOLVER_NAMES))),
        time_limit=float(doc.get("time_limit", 30.0)),
        out=doc.get("out"),
    )


def _fmt_cell(x: float) -> str:
    if x == int(x):
        return str(int(x))
    return repr(x)


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
    reach = compute_reachable_sets(spec.graph, spec.q_max)

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
                "dp_states": "", "heuristic_build_ms": "", "search_ms": "", "total_ms": "",
            }
            t0 = perf_counter()
            stats = None
            try:
                result, stats = run_solver(solver, inst, reach, t0 + spec.time_limit)
                if isinstance(result, Infeasible):
                    row["status"] = "infeasible"
                else:
                    row["status"] = "solved"
                    row["cost"] = _fmt_cell(result.total_cost)
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
