import random

import pytest

from gsp import FuelGraph, Instance, Label, compute_reachable_sets, gen_binomial


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
