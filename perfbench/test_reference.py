"""The benchmark's own checks against gsp's brute-force oracle.

    python3 -m pytest perfbench/test_reference.py
"""

import dataclasses
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import gen  # noqa: E402
from gsp.core import Infeasible  # noqa: E402
from gsp.graphio import load_graph, resolve_instance  # noqa: E402
from gsp.oracle import brute_force_solve  # noqa: E402


def oracle_answers(tmp_path, count):
    """(query, net, oracle solution in generator numbering or None) per tiny instance."""
    inputs = gen.tiny_batch(7, tmp_path, count=count)
    for q in inputs.queries:
        net = inputs.nets[q.net]
        graph = load_graph(tmp_path / net.file)
        inst = resolve_instance(graph, gen.vertex_id(q.start), gen.vertex_id(q.goal),
                                q.q_max, q.k_max, q.q0)
        sol = brute_force_solve(inst)
        if isinstance(sol, Infeasible):
            yield q, net, None
            continue
        ids = [int(name[1:]) for name in graph.names]
        route = [ids[v] for v, _ in sol.route]
        stops = [(ids[v], a) for v, a in sol.stops]
        yield q, net, (sol.total_cost, route, stops)


def test_reference_and_replay_agree_with_oracle(tmp_path):
    seen = {"feasible": 0, "infeasible": 0, "q0": 0}
    for q, net, answer in oracle_answers(tmp_path, 300):
        ref = check.Reference(net, q.q_max)
        expected = math.inf if answer is None else answer[0]
        assert ref.cost(q, bounded=True) == expected, q
        seen["infeasible" if answer is None else "feasible"] += 1
        seen["q0"] += q.q0 > 0
        if answer is not None:
            replayed = check.Replayer(net, q.q_max).replay(q, answer[1], answer[2], bounded=True)
            assert replayed == answer[0], (q, replayed)
    assert min(seen.values()) >= 50, seen


def test_unbounded_reference_is_the_limit_of_more_stops(tmp_path):
    for q, net, _ in oracle_answers(tmp_path, 60):
        ref = check.Reference(net, q.q_max)
        many = dataclasses.replace(q, k_max=net.n * (q.q_max + 1))
        assert ref.cost(q, bounded=False) == ref.cost(many, bounded=True), q
        assert ref.cost(q, bounded=False) <= ref.cost(q, bounded=True), q


def test_replay_names_faults():
    # a --3--> b --4--> c, every station sells at price 2.
    net = gen.Net("line.json", (2.0, 2.0, 2.0), ((0, 1, 3), (1, 0, 3), (1, 2, 4), (2, 1, 4)))
    q = gen.Query(0, 0, 2, q_max=5, k_max=2)
    rep = check.Replayer(net, 5)
    assert rep.replay(q, [0, 1, 2], [(0, 3.0), (1, 4.0)], bounded=True) == 14.0
    assert "fills the tank" in rep.replay(q, [0, 1, 2], [(0, 3.0), (1, 6.0)], bounded=True)
    assert "leaves fuel" in rep.replay(q, [0, 1, 2], [(0, 3.0), (1, 3.0)], bounded=True)
    assert "exceed k_max" in rep.replay(dataclasses.replace(q, k_max=1), [0, 1, 2],
                                        [(0, 3.0), (1, 4.0)], bounded=True)
    assert "leaves fuel" in rep.replay(q, [0, 2], [(0, 5.0)], bounded=True)  # 7 > tank
    assert "does not join" in rep.replay(q, [0, 1], [(0, 3.0)], bounded=True)
    assert "not on the route" in rep.replay(dataclasses.replace(q, k_max=3), [0, 1, 2],
                                            [(0, 3.0), (1, 4.0), (0, 1.0)], bounded=True)
