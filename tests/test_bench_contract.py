"""The benchmark's traced run reports every per-layer metric it declares.

perfbench/run.py finds the program's layers by module attribute (spans.py
wraps them by name) and drops a metric whose span or function is absent,
so a renamed, inlined or deleted public function passes the run with a
metric missing.  This runs the traced measurement on a small tiny-batch
set and on a few dense-desk pairs, whose reach graphs take the
Floyd-Warshall build and whose queries take the price-aware heuristic
term, and checks its metric names against BENCHMARK.json.
"""

import dataclasses
import functools
import importlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced_run(tmp_path, monkeypatch, workload: str, **changes):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py sets these on import; restored afterwards
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run = importlib.import_module("run")
    gen = importlib.import_module("gen")
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    make = {"tiny-batch": functools.partial(gen.tiny_batch, count=40),
            "dense-desk": functools.partial(gen.dense_desk, pairs=12)}[workload]
    plan = dataclasses.replace(run.PLANS[workload], make=make, **changes)
    folder = tmp_path / "inputs"
    folder.mkdir()
    session = run.Session("contract", plan, plan.make(0, folder), folder)

    metrics = run.measure_traced(session)
    session.check()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} <= set(metrics)
    assert not session.wrong and not session.faults and not session.errors
    return session


def test_traced_run_reports_every_declared_layer_metric(tmp_path, monkeypatch):
    _traced_run(tmp_path, monkeypatch, "tiny-batch", trace_pairs=40, trace_dp=40)


def test_traced_dense_run_reports_every_declared_layer_metric(tmp_path, monkeypatch):
    session = _traced_run(tmp_path, monkeypatch, "dense-desk",
                          trace_pairs=12, trace_dp=2, ref_pairs=12)
    assert all(map(session.reach._use_floyd_warshall, session.graphs.values()))
    # ... and every query takes the price-aware heuristic term.
    assert all(reach.relaxed_cost is not None for reach in session.reaches.values())
    assert all(float(inst.q0).is_integer() for inst, _ in session.instances)
