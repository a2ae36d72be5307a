#!/usr/bin/env python3
"""Desk-scale solver comparison on a random connected graph.

Generates G(n, p), picks random start-goal pairs, runs the label search
(plain and no-heuristic) and the DP baseline over the shared refuel graph,
writes the per-run CSV and prints median work and per-query time (heuristic
build included) with the speedup of the label search over DP.  Defaults reproduce the 256-vertex comparison used by the
acceptance suite.

    python scripts/desk_bench.py --out results.csv
    python scripts/desk_bench.py --n 512 --pairs 100 --seed 7
"""

import argparse
import csv
import io
import random
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gsp.bench import BenchSpec, bench_run
from gsp.generate import gen_binomial


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=256)
    ap.add_argument("--p", type=float, default=0.3)
    ap.add_argument("--seed", type=int, default=60001)
    ap.add_argument("--pairs", type=int, default=50)
    ap.add_argument("--kmax", type=int, default=6)
    ap.add_argument("--qmax", type=float, default=None,
                    help="tank capacity (default: 3x mean edge fuel)")
    ap.add_argument("--time-limit", type=float, default=30.0)
    ap.add_argument("--out", default="desk_bench.csv")
    args = ap.parse_args()

    graph = gen_binomial(args.n, args.p, seed=args.seed)
    mean_fuel = sum(d for _, _, d in graph.edges) / len(graph.edges)
    q_max = args.qmax if args.qmax is not None else float(round(3 * mean_fuel))
    print(f"graph: n={graph.n}, arcs={len(graph.edges)}, mean fuel {mean_fuel:.2f}, "
          f"q_max {q_max:g}, k_max {args.kmax}")

    rng = random.Random(args.seed + 1)
    pairs = tuple(tuple(rng.sample(range(graph.n), 2)) for _ in range(args.pairs))
    spec = BenchSpec(
        graph=graph, q_max=q_max, k_max=args.kmax, instances=pairs,
        solvers=("rfastar", "rfastar-noh", "dp"),
        time_limit=args.time_limit, out=args.out,
    )
    text = bench_run(spec)
    rows = list(csv.DictReader(io.StringIO(text)))

    def med(solver, column):
        vals = [float(r[column]) for r in rows if r["solver"] == solver and r[column]]
        return statistics.median(vals) if vals else float("nan")

    print(f"rows written to {args.out}")
    print(f"{'solver':<16} {'median ms':>10} {'median states':>14}")
    for solver, col in (("rfastar", "labels_generated"),
                        ("rfastar-noh", "labels_generated"),
                        ("dp", "dp_states")):
        print(f"{solver:<16} {med(solver, 'total_ms'):>10.2f} {med(solver, col):>14.0f}")
    ratio = med("dp", "total_ms") / med("rfastar", "total_ms")
    print(f"rfastar speedup over DP: {ratio:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
