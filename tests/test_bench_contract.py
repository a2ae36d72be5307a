"""The benchmark's traced run reports every per-layer metric it declares.

perfbench/run.py finds the program's layers by module attribute (spans.py
wraps them by name) and drops a metric whose span or function is absent,
so a renamed, inlined or deleted public function passes the run with a
metric missing.  This runs the traced measurement on a small tiny-batch
set and checks its metric names against BENCHMARK.json.
"""

import dataclasses
import functools
import importlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_run_reports_every_declared_layer_metric(tmp_path, monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py sets these on import; restored afterwards
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run = importlib.import_module("run")
    gen = importlib.import_module("gen")
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    plan = dataclasses.replace(run.PLANS["tiny-batch"],
                               make=functools.partial(gen.tiny_batch, count=40),
                               trace_pairs=40, trace_dp=40)
    folder = tmp_path / "inputs"
    folder.mkdir()
    session = run.Session("contract", plan, plan.make(0, folder), folder)

    metrics = run.measure_traced(session)
    session.check()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} <= set(metrics)
    assert not session.wrong and not session.faults and not session.errors
