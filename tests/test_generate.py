import math

import pytest

from gsp import gen_binomial, generate
from gsp.generate import GenerationFailed, _connected
from gsp.graphio import write_graph


def test_same_seed_same_bytes():
    a = gen_binomial(8, 0.3, seed=42)
    b = gen_binomial(8, 0.3, seed=42)
    assert write_graph(a) == write_graph(b)
    assert a == b


def test_different_seed_differs():
    assert gen_binomial(8, 0.3, seed=1) != gen_binomial(8, 0.3, seed=2)


def test_p_one_gives_complete_graph():
    g = gen_binomial(6, 1.0, seed=0)
    assert len(g.edges) == 6 * 5  # both arcs of every pair


def test_result_is_connected():
    for seed in range(10):
        g = gen_binomial(9, 0.25, seed=seed)
        pairs = [(u, v) for u, v, _ in g.edges if u < v]
        assert _connected(g.n, pairs)


def test_attribute_ranges_respected():
    g = gen_binomial(16, 0.5, seed=3, price_lo=2, price_hi=4, fuel_lo=5, fuel_hi=7)
    assert all(2 <= p <= 4 and float(p).is_integer() for p in g.price)
    assert all(5 <= d <= 7 and float(d).is_integer() for _, _, d in g.edges)


def test_edge_count_within_three_sigma():
    g = gen_binomial(256, 0.3, seed=1)
    pairs = 256 * 255 // 2
    mean = 0.3 * pairs
    sigma = math.sqrt(pairs * 0.3 * 0.7)
    edges = len(g.edges) // 2
    assert abs(edges - mean) <= 3 * sigma


def test_generation_failure_after_budget(monkeypatch):
    monkeypatch.setattr(generate, "MAX_ATTEMPTS", 3)
    with pytest.raises(GenerationFailed, match="in 3 attempts"):
        gen_binomial(40, 0.01, seed=0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        gen_binomial(1, 0.5, seed=0)
    with pytest.raises(ValueError):
        gen_binomial(4, 0.0, seed=0)
    with pytest.raises(ValueError):
        gen_binomial(4, 0.5, seed=0, fuel_lo=0)
