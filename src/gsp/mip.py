"""Mixed-integer model of the routing problem, exported as LP text.

The model lives on the refuel graph: binaries x(u,v) select hops, y(u)
marks refuelling stops, continuous a(u) and q(u) are the purchase and the
arrival fuel per vertex.  Fuel conservation along selected hops is the
bilinear condition (q(u) + a(u) - d - q(v)) x(u,v) = 0, linearised with
two big-M rows per edge using M = q_max plus the largest hop fuel, which
bounds the free slack of any deselected edge.

No solver is invoked here: the exporter writes CPLEX-LP-format text and
check_assignment replays a candidate assignment against every row, which
is how solver-grade optimality certificates are cross-checked in tests.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .core import Instance, Solution
from .reach import ReachGraph, reach_for


@dataclass(frozen=True)
class MipVar:
    name: str
    kind: str  # "B" binary, "C" continuous
    lb: float = 0.0
    ub: float | None = None  # None is +inf


@dataclass(frozen=True)
class MipRow:
    name: str
    terms: tuple[tuple[float, str], ...]
    sense: str  # "<=", ">=", "="
    rhs: float


@dataclass(frozen=True)
class MipModel:
    variables: tuple[MipVar, ...]
    rows: tuple[MipRow, ...]
    objective: tuple[tuple[float, str], ...]
    big_m: float


@dataclass(frozen=True)
class MipCheckReport:
    violations: tuple[tuple[str, float], ...]
    objective: float

    @property
    def ok(self) -> bool:
        return not self.violations


_TOKEN_OK = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")  # an LP identifier without "_"


def _vertex_tokens(inst: Instance) -> list[str]:
    """LP name of each vertex.

    The graph's names when every one is an LP identifier without "_", else
    v0, v1, ... for all.  Names are joined with "_" (x_u_v), so a name
    holding one could collide ("a_b" + "c" and "a" + "b_c"); mixing the
    two could too (a station named "v1" beside vertex 1's fallback).
    Names are unique, so neither choice does.
    """
    names = inst.graph.names
    if all(_TOKEN_OK.match(name) for name in names):
        return list(names)
    return [f"v{v}" for v in range(len(names))]


def _fmt(x: float) -> str:
    if math.isfinite(x) and x == int(x):
        return str(int(x))
    return repr(x)


def build_mip(inst: Instance, include_smart_refuel: bool = True,
              *, reach: ReachGraph | None = None) -> MipModel:
    """Assemble variables and rows for one instance.

    Non-refuellable vertices keep their a(u) fixed at zero and stay out of
    the objective.  The y indicator is encoded one-sided, a(u) <= q_max
    y(u); forcing y to one on positive purchases is enough because y only
    appears in the stop-count row.  Smart-refuel rows, when enabled, pin
    the purchase rule on every selected hop: top up to full where the next
    vertex is pricier, otherwise (and always into the goal) cover at least
    the hop.
    """
    reach = reach_for(inst, reach)
    g = inst.graph
    tok = _vertex_tokens(inst)
    edges = [(u, v, d) for u in range(g.n) for v, d in reach.succ[u]]
    big_m = inst.q_max + (max(d for _, _, d in edges) if edges else 0.0)

    variables: list[MipVar] = []
    for u, v, _ in edges:
        variables.append(MipVar(f"x_{tok[u]}_{tok[v]}", "B"))
    for v in range(g.n):
        variables.append(MipVar(f"y_{tok[v]}", "B"))
    for v in range(g.n):
        ub = 0.0 if math.isinf(g.price[v]) else None
        variables.append(MipVar(f"a_{tok[v]}", "C", 0.0, ub))
    for v in range(g.n):
        if v == inst.start:
            variables.append(MipVar(f"q_{tok[v]}", "C", inst.q0, inst.q0))
        else:
            variables.append(MipVar(f"q_{tok[v]}", "C", 0.0, None))

    objective = tuple(
        (g.price[v], f"a_{tok[v]}") for v in range(g.n) if math.isfinite(g.price[v])
    )

    rows: list[MipRow] = []
    for u in range(g.n):
        tails = reach.into[u][::2]
        if not (reach.succ[u] or tails):
            continue
        terms = [(1.0, f"x_{tok[u]}_{tok[v]}") for v, _ in reach.succ[u]]
        terms += [(-1.0, f"x_{tok[v]}_{tok[u]}") for v in tails]
        rhs = 1.0 if u == inst.start else -1.0 if u == inst.goal else 0.0
        rows.append(MipRow(f"flow_{tok[u]}", tuple(terms), "=", rhs))

    for u, v, d in edges:
        x = f"x_{tok[u]}_{tok[v]}"
        base = ((1.0, f"q_{tok[u]}"), (1.0, f"a_{tok[u]}"), (-1.0, f"q_{tok[v]}"))
        rows.append(MipRow(f"cons_ub_{tok[u]}_{tok[v]}", base + ((big_m, x),), "<=", d + big_m))
        rows.append(MipRow(f"cons_lb_{tok[u]}_{tok[v]}", base + ((-big_m, x),), ">=", d - big_m))

    for v in range(g.n):
        rows.append(MipRow(
            f"ylink_{tok[v]}",
            ((1.0, f"a_{tok[v]}"), (-inst.q_max, f"y_{tok[v]}")),
            "<=", 0.0,
        ))
    rows.append(MipRow(
        "stops",
        tuple((1.0, f"y_{tok[v]}") for v in range(g.n)),
        "<=", float(inst.k_max),
    ))
    for v in range(g.n):
        rows.append(MipRow(
            f"tank_{tok[v]}",
            ((1.0, f"q_{tok[v]}"), (1.0, f"a_{tok[v]}")),
            "<=", inst.q_max,
        ))

    if include_smart_refuel:
        for u, v, d in edges:
            x = f"x_{tok[u]}_{tok[v]}"
            terms = ((1.0, f"q_{tok[u]}"), (1.0, f"a_{tok[u]}"), (-big_m, x))
            if v != inst.goal and g.price[u] < g.price[v]:
                rows.append(MipRow(f"smart_fill_{tok[u]}_{tok[v]}", terms, ">=",
                                   inst.q_max - big_m))
            else:
                rows.append(MipRow(f"smart_min_{tok[u]}_{tok[v]}", terms, ">=",
                                   d - big_m))

    return MipModel(
        variables=tuple(variables),
        rows=tuple(rows),
        objective=objective,
        big_m=big_m,
    )


def _render_terms(terms: tuple[tuple[float, str], ...]) -> str:
    parts: list[str] = []
    for i, (coef, var) in enumerate(terms):
        mag = _fmt(abs(coef))
        if i == 0:
            parts.append(f"-{mag} {var}" if coef < 0 else f"{mag} {var}")
        else:
            parts.append(f"{'-' if coef < 0 else '+'} {mag} {var}")
    return " ".join(parts)


def write_lp(model: MipModel) -> str:
    """Emit CPLEX-LP text; byte-identical for identical models."""
    out: list[str] = []
    out.append("\\ refuel route model")
    out.append(f"\\ big-M = {_fmt(model.big_m)}")
    out.append("Minimize")
    out.append(f" obj: {_render_terms(model.objective)}" if model.objective else " obj: 0 zero")
    out.append("Subject To")
    for row in model.rows:
        out.append(f" {row.name}: {_render_terms(row.terms)} {row.sense} {_fmt(row.rhs)}")
    bounds = []
    for var in model.variables:
        if var.kind != "C":
            continue
        if var.ub is not None and var.lb == var.ub:
            bounds.append(f" {var.name} = {_fmt(var.lb)}")
        elif var.ub is not None:
            bounds.append(f" {_fmt(var.lb)} <= {var.name} <= {_fmt(var.ub)}")
        elif var.lb != 0.0:
            bounds.append(f" {var.name} >= {_fmt(var.lb)}")
    if bounds:
        out.append("Bounds")
        out.extend(bounds)
    binaries = [var.name for var in model.variables if var.kind == "B"]
    if binaries:
        out.append("Binary")
        out.extend(f" {name}" for name in binaries)
    out.append("End")
    return "\n".join(out) + "\n"


def check_assignment(model: MipModel, assignment: dict[str, float]) -> MipCheckReport:
    """Evaluate every row and bound exactly; missing variables count as zero."""
    def val(name: str) -> float:
        return assignment.get(name, 0.0)

    violations: list[tuple[str, float]] = []
    for row in model.rows:
        lhs = sum(coef * val(var) for coef, var in row.terms)
        slack = lhs - row.rhs
        bad = (
            (row.sense == "<=" and slack > 0.0)
            or (row.sense == ">=" and slack < 0.0)
            or (row.sense == "=" and slack != 0.0)
        )
        if bad:
            violations.append((row.name, slack))
    for var in model.variables:
        x = val(var.name)
        if var.kind == "B" and x not in (0.0, 1.0):
            violations.append((f"binary_{var.name}", x))
            continue
        if x < var.lb:
            violations.append((f"bound_{var.name}", x - var.lb))
        elif var.ub is not None and x > var.ub:
            violations.append((f"bound_{var.name}", x - var.ub))
    objective = sum(coef * val(var) for coef, var in model.objective)
    return MipCheckReport(violations=tuple(violations), objective=objective)


def solution_to_assignment(inst: Instance, sol: Solution) -> dict[str, float]:
    """Translate a solver schedule into model variable values.

    Routes that revisit a vertex cannot be encoded with binary edge and
    vertex variables and are rejected.
    """
    verts = [v for v, _ in sol.route]
    if len(set(verts)) != len(verts):
        raise ValueError("route revisits a vertex; not encodable as a simple path")
    tok = _vertex_tokens(inst)
    assignment: dict[str, float] = {}
    for i in range(len(verts) - 1):
        assignment[f"x_{tok[verts[i]]}_{tok[verts[i + 1]]}"] = 1.0
    for v, amount in sol.stops:
        assignment[f"a_{tok[v]}"] = amount
        assignment[f"y_{tok[v]}"] = 1.0
    for i, v in enumerate(verts):
        assignment[f"q_{tok[v]}"] = sol.arrival_fuel[i]
    return assignment


_NUM = r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
_VAR = r"[A-Za-z_][A-Za-z0-9_]*"
_TERM_FIRST = re.compile(rf"-?\s*{_NUM}\s+{_VAR}")
_TERM_NEXT = re.compile(rf"\s*[+-]\s+{_NUM}\s+{_VAR}")
_ROW = re.compile(rf"({_VAR}):\s*(.+?)\s*(<=|>=|=)\s*(-?{_NUM})\Z")
_BOUND = re.compile(
    rf"(?:{_VAR}\s*(?:=|<=|>=)\s*-?{_NUM}"
    rf"|-?{_NUM}\s*<=\s*{_VAR}\s*<=\s*-?{_NUM}"
    rf"|{_VAR}\s+free)\Z"
)


def _expr_ok(expr: str) -> bool:
    m = _TERM_FIRST.match(expr)
    if not m:
        return False
    pos = m.end()
    while pos < len(expr):
        m = _TERM_NEXT.match(expr, pos)
        if not m:
            return False
        pos = m.end()
    return True


def validate_lp_text(text: str) -> list[str]:
    """Minimal LP grammar check; returns a list of problems, empty when ok.

    Accepts the single-line-per-row dialect this package writes: comments,
    a Minimize section with one objective, Subject To rows, optional
    Bounds, optional Binary, then End.
    """
    errors: list[str] = []
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("\\")]
    pos = 0

    def peek() -> str:
        return lines[pos].strip() if pos < len(lines) else ""

    if peek() not in ("Minimize", "Maximize"):
        return [f"expected Minimize/Maximize, got {peek()!r}"]
    pos += 1
    obj = re.match(rf"({_VAR}):\s*(.+)\Z", peek())
    if not obj or not _expr_ok(obj.group(2)):
        errors.append(f"bad objective line {peek()!r}")
    pos += 1
    if peek() != "Subject To":
        errors.append(f"expected 'Subject To', got {peek()!r}")
        return errors
    pos += 1
    saw_row = False
    while pos < len(lines) and peek() not in ("Bounds", "Binary", "General", "End"):
        m = _ROW.match(peek())
        if not m or not _expr_ok(m.group(2)):
            errors.append(f"bad constraint line {peek()!r}")
        else:
            saw_row = True
        pos += 1
    if not saw_row:
        errors.append("no constraint rows")
    if peek() == "Bounds":
        pos += 1
        while pos < len(lines) and peek() not in ("Binary", "General", "End"):
            if not _BOUND.match(peek()):
                errors.append(f"bad bound line {peek()!r}")
            pos += 1
    if peek() in ("Binary", "General"):
        pos += 1
        while pos < len(lines) and peek() != "End":
            if not re.match(rf"{_VAR}\Z", peek()):
                errors.append(f"bad variable name {peek()!r}")
            pos += 1
    if peek() != "End":
        errors.append(f"expected End, got {peek()!r}")
    elif pos + 1 != len(lines):
        errors.append("content after End")
    return errors
