"""Initial-fuel reduction to the empty-tank formulation.

A non-empty starting tank is simulated by a zero-price pseudo vertex with
a single arc into the original start whose fuel is q_max - q0: topping up
for free there and driving the arc delivers exactly q0 at the start.  The
pseudo stop is mandatory, so the stop budget grows by one.  The native
solver handles q0 directly; this construction exists to cross-validate it.
"""

from __future__ import annotations

from .core import FuelGraph, Instance, decimals, in_units


class TransformInapplicable(ValueError):
    """q0 is zero (nothing to do) or q_max (the arc fuel would be zero)."""


def apply_initial_fuel_transform(inst: Instance) -> Instance:
    if inst.q0 <= 0.0:
        raise TransformInapplicable("instance already starts with an empty tank")
    if inst.q0 >= inst.q_max:
        raise TransformInapplicable(
            "q0 = q_max would need a zero-fuel arc; solve the instance natively"
        )
    g = inst.graph
    unit = 10 ** max(decimals(inst.q_max), decimals(inst.q0))
    arc = (in_units(inst.q_max, unit) - in_units(inst.q0, unit)) / unit  # q_max - q0, exactly
    pseudo = "vp"
    existing = set(g.names)
    while pseudo in existing:
        pseudo += "_"
    graph2 = FuelGraph.build(
        prices=list(g.price) + [0.0],
        edges=list(g.edges) + [(g.n, inst.start, arc)],
        names=list(g.names) + [pseudo],
    )
    return Instance(
        graph=graph2,
        start=g.n,
        goal=inst.goal,
        q_max=inst.q_max,
        k_max=inst.k_max + 1,
        q0=0.0,
    )
