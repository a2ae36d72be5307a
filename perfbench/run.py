#!/usr/bin/env python3
"""Query benchmark for gsp: set-up, query latency and memory per workload.

    python3 perfbench/run.py --workload dense-desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One caller in one process issues queries one after another (a closed loop),
with numpy held to one thread.  A run generates its inputs from --seed,
times set-up (load every graph file, build every reach graph) a few times,
then spends --seconds on rounds of queries: bounded and unbounded
``rfastar_solve`` on successive start-goal pairs, with ``dp_solve`` on
some of the same pairs.  Every time is scaled to a fixed machine speed
(probe.py).  Every answer is then checked apart from the program (check.py),
outside the timed region.  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics, which are the
end-to-end ones with --trace 0 and the per-layer ones with --trace 1.

--trace 1 runs a fixed list of operations twice each, alternately with and
without spans around the program's public functions (spans.py), and reports
per-layer times and counts plus the overhead of tracing.  The program is
imported from ``src/`` beside this directory; without it the run fails.
"""

import os

# Before numpy loads: the workloads model one caller on one core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Callable  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402
from probe import ScaledClock  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


@dataclass(frozen=True)
class Plan:
    make: Callable[[int, Path], gen.Inputs]
    pairs: int         # start-goal pairs per round
    dp_every: int      # DP runs on the first pair of a round and every dp_every-th after it
    ref_pairs: int     # leading pairs checked against the fuel-level reference
    oracle_pairs: int  # leading pairs also checked against gsp.oracle
    trace_pairs: int
    trace_dp: int


SETUP_REPS = 3  # set-ups per run, spread over it; the median is reported
MIN_BOUNDED = 200  # bounded queries per run, at least, so that 10 samples lie beyond the p95
MIN_DP = 3  # DP queries per run, at least
UNBOUNDED_EVERY = 2  # pairs; the bounded p95 needs the samples more than the unbounded p50

# Rounds take successive pairs of the generated list, so a run spends its
# time on as many distinct pairs as it can: the percentiles then vary
# little with the seed.  tiny-batch has 2000 instances and goes round them
# all again.  51 pairs per round put successive DP queries on the two desk
# graphs in turn; 155 pairs with DP on the first and the 79th put two DP
# queries per round on the four grids, each grid once every two rounds.
PLANS = {
    "dense-desk": Plan(gen.dense_desk, pairs=51, dp_every=51, ref_pairs=50,
                       oracle_pairs=0, trace_pairs=100, trace_dp=6),
    "sparse-grid": Plan(gen.sparse_grid, pairs=155, dp_every=78, ref_pairs=30,
                        oracle_pairs=0, trace_pairs=80, trace_dp=2),
    "tiny-batch": Plan(gen.tiny_batch, pairs=2000, dp_every=1, ref_pairs=1000,
                       oracle_pairs=1000, trace_pairs=2000, trace_dp=2000),
}


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def load_program():
    """Import gsp from the source tree next to the benchmark, and only there."""
    src = ROOT / "src"
    if not (src / "gsp" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src / 'gsp'}")
    sys.path.insert(0, str(src))
    gsp = importlib.import_module("gsp")
    if Path(gsp.__file__).resolve().parent != (src / "gsp").resolve():
        raise SystemExit(f"error: gsp imported from {gsp.__file__}, not {src}")


class Session:
    """One workload's inputs, program objects, answers and check results.

    The program's functions are looked up on their modules at each call, so
    that spans installed by a Tracer see them.
    """

    def __init__(self, label: str, plan: Plan, inputs: gen.Inputs, folder: Path):
        self.label, self.plan, self.inputs, self.folder = label, plan, inputs, folder
        for name in ("core", "dp", "graphio", "oracle", "reach", "search"):
            setattr(self, name, importlib.import_module(f"gsp.{name}"))
        self.results: dict[tuple[str, int], object] = {}
        self.runs: Counter = Counter()
        self.errors: Counter = Counter()
        self.wrong: dict[tuple[str, int], str] = {}
        self.faults: list[str] = []  # wrong outputs outside the query operations
        self.stats: dict[tuple[str, int], object] = {}

    def setup(self, note: Callable[[float], None] = lambda seconds: None):
        """Load every graph file and build every reach graph.

        Each load and each build is timed on its own and passed to note, so
        that a ScaledClock can scale it by the machine speed around it.
        """
        self.graphs = self.reaches = None  # let the previous round's objects go
        graphs, reaches = {}, {}
        for net in self.inputs.nets:
            t0 = perf_counter()
            graphs[net.file] = self.graphio.load_graph(self.folder / net.file)
            note(perf_counter() - t0)
        for q in self.inputs.queries:
            key = (self.inputs.nets[q.net].file, q.q_max)
            if key not in reaches:
                t0 = perf_counter()
                reaches[key] = self.reach.compute_reachable_sets(graphs[key[0]], float(q.q_max))
                note(perf_counter() - t0)
        self.graphs, self.reaches = graphs, reaches

    def resolve(self):
        """Program instances from the generated instance list, one per query."""
        doc = json.loads((self.folder / "instances.json").read_text())
        self.instances = [
            (self.graphio.resolve_instance(self.graphs[e["graph"]], e["start"], e["goal"],
                                           e["q_max"], e["k_max"], e["q0"]),
             self.reaches[(e["graph"], e["q_max"])])
            for e in doc
        ]
        self.ids = {f: tuple(int(name[1:]) for name in g.names) for f, g in self.graphs.items()}

    def call(self, kind: str, i: int) -> float:
        """Run one operation on query i and record its answer; returns seconds.

        kind is "b" (bounded rfastar), "u" (unbounded rfastar) or "d" (DP).
        """
        inst, reach = self.instances[i]
        key = (kind, i)
        self.runs[key] += 1
        t0 = perf_counter()
        try:
            if kind == "b":
                result, stats = self.search.rfastar_solve(inst, reach=reach)
            elif kind == "u":
                result, stats = self.search.rfastar_solve(
                    inst, self.search.SearchOptions(unbounded_stops=True), reach=reach)
            else:
                result, stats = self.dp.dp_solve(inst, reach=reach)
        except Exception as e:  # a failed operation is counted, the run goes on
            self.errors[key] += 1
            print(f"{kind}{i}: {type(e).__name__}: {e}", file=sys.stderr)
            return perf_counter() - t0
        elapsed = perf_counter() - t0
        self.stats[key] = stats
        answer = self._compact(result, self.inputs.queries[i])
        first = self.results.setdefault(key, answer)
        if first != answer:
            self.wrong[key] = f"answer {answer} differs from an earlier run's {first}"
        return elapsed

    def _compact(self, result, q: gen.Query):
        """(cost, route, stops) in the generator's vertex numbering; None if infeasible."""
        if isinstance(result, self.core.Infeasible):
            return None
        ids = self.ids[self.inputs.nets[q.net].file]
        return (result.total_cost, tuple(ids[v] for v, _ in result.route),
                tuple((ids[v], a) for v, a in result.stops))

    def check(self):
        """Exact replay, fuel-level reference, solver agreement and oracle."""
        plan, queries, nets = self.plan, self.inputs.queries, self.inputs.nets
        limits: dict[int, int] = {}
        for q in queries:
            limits[q.net] = max(limits.get(q.net, 0), q.q_max)
        replayers: dict[int, check.Replayer] = {}
        references: dict[tuple[int, int], check.Reference] = {}
        for (kind, i), answer in self.results.items():
            q = queries[i]
            cost = float("inf") if answer is None else answer[0]
            problems = []
            if answer is not None:
                if q.net not in replayers:
                    replayers[q.net] = check.Replayer(nets[q.net], limits[q.net])
                replayed = replayers[q.net].replay(q, list(answer[1]), list(answer[2]),
                                                   bounded=kind != "u")
                if replayed != cost:
                    problems.append(f"replay gives {replayed}, answer says {cost}")
            if kind in "du" and ("b", i) in self.results:
                bounded = self.results[("b", i)]
                b_cost = float("inf") if bounded is None else bounded[0]
                if kind == "d" and cost != b_cost:
                    problems.append(f"dp cost {cost} != rfastar cost {b_cost}")
                if kind == "u" and cost > b_cost:
                    problems.append(f"unbounded cost {cost} > bounded cost {b_cost}")
            if kind in "bu" and i < plan.ref_pairs:
                if (q.net, q.q_max) not in references:
                    references[(q.net, q.q_max)] = check.Reference(nets[q.net], q.q_max)
                expected = references[(q.net, q.q_max)].cost(q, bounded=kind == "b")
                if expected != cost:
                    problems.append(f"reference optimum {expected}, answer {cost}")
            if kind == "b" and i < plan.oracle_pairs:
                inst, reach = self.instances[i]
                oracle = self.oracle.brute_force_solve(inst, reach=reach)
                o_cost = (float("inf") if isinstance(oracle, self.core.Infeasible)
                          else oracle.total_cost)
                if o_cost != cost:
                    problems.append(f"oracle optimum {o_cost}, answer {cost}")
            if problems:
                self.wrong[(kind, i)] = "; ".join(problems)
        for (kind, i), why in sorted(self.wrong.items()):
            print(f"WRONG {kind}{i} {queries[i]}: {why}", file=sys.stderr)
        for why in self.faults:
            print(f"WRONG {why}", file=sys.stderr)

    def tally(self) -> tuple[int, int]:
        attempted = sum(self.runs.values())
        failed = sum(n for key, n in self.runs.items() if key in self.wrong or key in self.errors)
        return attempted, failed


def round_ops(plan: Plan, r: int, n: int) -> list[tuple[str, int]]:
    """Round r: bounded rfastar on each of its pairs, unbounded on every
    second one and DP on every dp_every-th, interleaved so that a slow spell
    of the machine weighs on every kind of query alike.  Every round has
    the same mix of operations."""
    ops = []
    for j in range(plan.pairs):
        i = (r * plan.pairs + j) % n
        ops.append(("b", i))
        if j % UNBOUNDED_EVERY == 0:
            ops.append(("u", i))
        if j % plan.dp_every == 0:
            ops.append(("d", i))
    return ops


def measure(session: Session, seconds: float) -> dict[str, tuple[float, str]]:
    """Set-ups and whole rounds of queries for about the given wall time.

    Every time is scaled to a fixed machine speed (probe.py), because the
    shared machine slows by up to 2x in spells of seconds to minutes.  The
    percentiles are taken over every query of the run.  Set-ups are spread
    over the run and reported as their median.
    """
    n = len(session.inputs.queries)
    clock = ScaledClock()
    setups = rounds = 0
    spent = 0.0  # on rounds of queries
    gc.collect()
    t0 = perf_counter()
    while True:
        if setups < SETUP_REPS and perf_counter() - t0 >= setups * seconds / SETUP_REPS:
            session.setup(partial(clock.note, f"s{setups}"))
            session.resolve()
            setups += 1
        start = perf_counter()
        for kind, i in round_ops(session.plan, rounds, n):
            elapsed = session.call(kind, i)
            if (kind, i) not in session.errors:
                clock.note(kind, elapsed)
        spent += perf_counter() - start
        rounds += 1
        enough = len(clock.samples["b"]) >= MIN_BOUNDED and len(clock.samples["d"]) >= MIN_DP
        if enough and perf_counter() - t0 + spent / rounds > seconds:
            break
    for r in range(setups, SETUP_REPS):
        session.setup(partial(clock.note, f"s{r}"))
        session.resolve()
    clock.flush()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ms = {kind: [t * 1e3 for t in clock.samples[kind]] for kind in "bud"}
    print(f"{rounds} rounds, {len(ms['b'])} bounded queries in {perf_counter() - t0:.1f} s; "
          f"the probe ran {clock.slowdown():.2f}x slower than its reference")
    return {
        "setup_s": (statistics.median(sum(clock.samples[f"s{r}"]) for r in range(SETUP_REPS)),
                    "s"),
        "query_ms_p50": (statistics.median(ms["b"]), "ms"),
        "query_ms_p95": (percentile(ms["b"], 95), "ms"),
        "unbounded_ms_p50": (statistics.median(ms["u"]), "ms"),
        "dp_ms_p50": (statistics.median(ms["d"]), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def measure_traced(session: Session) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from spans over a fixed list of operations."""
    plan = session.plan
    tracer = Tracer()
    tracer.install()
    for r in range(SETUP_REPS):
        tracer.query = f"setup{r}"
        session.setup()
    tracer.uninstall()
    session.resolve()

    if hasattr(session.graphio, "load_reach_cache"):
        files = {key: session.folder / f"reach-{key[1]}-{key[0]}" for key in session.reaches}
        for (file, q_max), path in files.items():
            session.graphio.save_reach_cache(session.reaches[(file, q_max)],
                                             session.graphs[file], path)
        tracer.query = "cache"
        tracer.install()
        loaded = {key: session.graphio.load_reach_cache(session.graphs[key[0]], float(key[1]),
                                                        path)
                  for key, path in files.items()}
        tracer.uninstall()
        for key, reach in loaded.items():
            if reach != session.reaches[key]:
                session.faults.append(f"reach cache for {key} did not round-trip")

    # Each operation runs once traced and once not, in alternating order.
    ops = [(kind, i) for i in range(plan.trace_pairs) for kind in "bu"]
    ops += [("d", j) for j in range(plan.trace_dp)]
    spent = {False: 0.0, True: 0.0}
    for k, (kind, i) in enumerate(ops):
        for traced in (False, True) if k % 2 == 0 else (True, False):
            if traced:
                tracer.query = f"{kind}{i}"
                tracer.install()
            spent[traced] += session.call(kind, i)
            if traced:
                tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{session.label}.tsv.gz")
    for name in tracer.absent:
        print(f"absent span: {name}", file=sys.stderr)
    return layer_metrics(tracer, session, spent)


def layer_metrics(tracer: Tracer, session: Session,
                  spent: dict[bool, float]) -> dict[str, tuple[float, str]]:
    """Self times, span counts and solver counters; absent spans give no metric."""
    metrics: dict[str, tuple[float, str]] = {}
    kids = tracer.children()

    def put(name: str, values: list[float], unit: str, how=statistics.median):
        if values:
            metrics[name] = (how(values), unit)

    def total_s(query: str, name: str) -> list[float]:
        spans = [s.ms for s in tracer.spans if s.query == query and s.name == name]
        return [sum(spans) / 1e3] if spans else []

    def tops(name: str, kind: str) -> list[tuple[float, list]]:
        """(ms, child spans) of each top-level span of one operation kind."""
        return [(s.ms, kids.get(idx, [])) for idx, s in enumerate(tracer.spans)
                if s.name == name and s.parent == -1 and s.query[0] == kind]

    def child_ms(spans, child: str) -> list[float]:
        return [c.ms for _, cs in spans for c in cs if c.name == child]

    def self_ms(spans, child: str) -> list[float]:
        return [ms - sum(c.ms for c in cs if c.name == child) for ms, cs in spans]

    def stat(kind: str, field: str) -> int:
        return sum(getattr(s, field) for (k, _), s in session.stats.items() if k == kind)

    setups = [f"setup{r}" for r in range(SETUP_REPS)]
    put("graphio.load_s", [t for q in setups for t in total_s(q, "graphio.load_graph")], "s")
    put("graphio.reach_cache_load_s", total_s("cache", "graphio.load_reach_cache"), "s")
    put("reach.build_s",
        [t for q in setups for t in total_s(q, "reach.compute_reachable_sets")], "s")
    put("reach.arcs", [r.edge_count() for r in session.reaches.values()
                       if hasattr(r, "edge_count")], "count", sum)

    bounded = tops("search.rfastar_solve", "b")
    put("heuristic.build_ms_p50", child_ms(bounded, "search.build_heuristic"), "ms")
    put("search.self_ms_p50", self_ms(bounded, "search.build_heuristic"), "ms")
    put("search.expand_calls", child_ms(bounded, "search.expand"), "count", len)
    put("search.expand_ms", child_ms(bounded, "search.expand"), "ms", sum)
    generated = stat("b", "labels_generated")
    metrics["search.labels_generated"] = (generated, "count")
    metrics["search.labels_expanded"] = (stat("b", "labels_expanded"), "count")
    metrics["search.labels_pruned"] = (stat("b", "labels_pruned"), "count")
    metrics["search.pruned_share"] = (stat("b", "labels_pruned") / generated, "ratio")
    metrics["search.unbounded.labels_generated"] = (stat("u", "labels_generated"), "count")
    put("search.unbounded.self_ms_p50",
        self_ms(tops("search.rfastar_solve", "u"), "search.build_heuristic"), "ms")

    dps = tops("dp.dp_solve", "d")
    put("dp.build_layers_ms_p50", child_ms(dps, "dp.build_layers"), "ms")
    put("dp.self_ms_p50", self_ms(dps, "dp.build_layers"), "ms")
    metrics["dp.states"] = (stat("d", "dp_states_computed"), "count")
    metrics["trace.overhead_pct"] = ((spent[True] / spent[False] - 1) * 100, "%")
    return metrics


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    load_program()
    plan = PLANS[name]
    OUT.mkdir(exist_ok=True)
    folder = Path(tempfile.mkdtemp(prefix=f"{name}-seed{seed}-", dir=OUT))
    try:
        session = Session(f"{name}-seed{seed}", plan, plan.make(seed, folder), folder)
        if traced:
            metrics = measure_traced(session)
        else:
            metrics = measure(session, seconds)
        session.check()
    finally:
        shutil.rmtree(folder, ignore_errors=True)
    attempted, failed = session.tally()
    print(f"{name} seed {seed}: attempted {attempted}, errors {sum(session.errors.values())}, "
          f"wrong {len(session.wrong) + len(session.faults)}")
    return {
        "correct": not session.wrong and not session.faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*PLANS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload == "all":
        # Each workload in its own process, so that peak memory is its own.
        results = {}
        for name in PLANS:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=True)
            results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{name}: attempted {results[name]['attempted']}, "
                  f"failed {results[name]['failed']}, correct {results[name]['correct']}")
            for metric, m in results[name]["metrics"].items():
                print(f"  {metric:36s} {m['value']:14.4f} {m['unit']}")
        print(json.dumps(results))
        return 0

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
