import math
import random

import pytest

from gsp import FuelGraph, Infeasible, Instance, Label, compute_reachable_sets, gen_binomial
from gsp import search


def worked_example_graph() -> FuelGraph:
    """Four stations o, a, b, t with bidirectional roads.

    Prices 2, 3, 1, 5; fuels o-a 2, o-b 5, a-t 5, b-t 5.  With a tank of 6
    and two stops the optimum from o to t costs 15.
    """
    return FuelGraph.build(
        prices=[2.0, 3.0, 1.0, 5.0],
        edges=[(0, 1, 2.0), (0, 2, 5.0), (1, 3, 5.0), (2, 3, 5.0)],
        names=["o", "a", "b", "t"],
        undirected=True,
    )


def worked_example(q_max: float = 6.0, k_max: int = 2, q0: float = 0.0) -> Instance:
    return Instance(worked_example_graph(), 0, 3, q_max, k_max, q0)


def decimal_price_graph() -> FuelGraph:
    """Three vertices priced 1.1, 2.9 and 1.3 with integral edge fuels.

    Solved from v0 to v2 with tank 10, two stops and 9 units of initial
    fuel, the optimum buys 1 at v0 for 1.1.
    """
    return FuelGraph.build([1.1, 2.9, 1.3],
                           [(0, 1, 5.0), (1, 0, 2.0), (1, 2, 5.0), (2, 0, 6.0), (2, 1, 5.0)])


O, A, B, T = 0, 1, 2, 3

def label_key(l: Label) -> tuple[int, float, float, int]:
    return (l.v, l.g, l.q, l.k)


@pytest.fixture
def wx() -> Instance:
    return worked_example()


@pytest.fixture
def wx_reach(wx):
    return compute_reachable_sets(wx.graph, wx.q_max)


def random_instance(seed: int, with_q0: bool = False) -> Instance:
    """Small integral instance; the distribution used across the suite."""
    rng = random.Random(9_770_001 + seed)
    n = rng.randint(4, 8)
    graph = gen_binomial(n, 0.5, seed=rng.getrandbits(32))
    start, goal = rng.sample(range(n), 2)
    q_max = float(rng.randint(5, 15))
    k_max = rng.randint(1, 4)
    q0 = float(rng.randint(1, int(q_max) - 1)) if with_q0 else 0.0
    return Instance(graph, start, goal, q_max, k_max, q0)


def unpruned_solve(inst: Instance, reach):
    """Cheapest goal label of the whole label tree, with no pruning at all.

    Walks every label that gsp.search.expand generates from the start, plus
    the start's free coasts on initial fuel, with no frontier and no
    heuristic.  Goal labels are leaves and bounded labels stop at k_max, so
    the tree is finite.  Returns a Solution, or Infeasible when no goal
    label exists; its cost is what pruning must preserve.
    """
    root = Label(inst.start, 0.0, inst.q0, 0)
    stack = [root]
    if inst.q0 > 0.0 and inst.start != inst.goal:
        stack += search._coast_children(root, reach, inst, None)
    best = None
    while stack:
        l = stack.pop()
        if l.v == inst.goal:
            if best is None or l.g < best.g:
                best = l
        elif l.k < inst.k_max and math.isfinite(inst.graph.price[l.v]):
            stack += search.expand(l, reach, inst, None)
    return Infeasible() if best is None else search._reconstruct(best, reach)


@pytest.fixture
def generated_labels(monkeypatch) -> list[Label]:
    """Every child label the search generates while the test runs.

    Wraps gsp.search.expand and gsp.search._coast_children by module
    attribute; rfastar_solve looks both up at call time.  The start label
    itself is not a child and is not recorded.
    """
    labels: list[Label] = []
    for name in ("expand", "_coast_children"):
        def recording(*args, _original=getattr(search, name)):
            children = _original(*args)
            labels.extend(children)
            return children

        monkeypatch.setattr(search, name, recording)
    return labels
