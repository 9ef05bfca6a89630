"""Shift plans: per-column D-power transformations applied to a matrix pair.

A plan holds four exponent vectors, one entry per column.  Column j of G is
multiplied by D^(g_mul_j) and divided by D^(g_div_j); the h vectors act on H
the same way.  A plan is admissible when the combined exponent

    (g_div_j + h_div_j) - (g_mul_j + h_mul_j)

is the same constant for every column, which is exactly the condition under
which the product G * H^T is preserved.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .gf2poly import (
    GHPair,
    PolyMatrix,
    column_delay,
    divide_by_power,
    overall_constraint_length,
    reciprocal_dual,
    row_delay,
)


@dataclass(frozen=True)
class ShiftPlan:
    g_div: tuple
    g_mul: tuple
    h_div: tuple
    h_mul: tuple

    def __post_init__(self):
        vecs = []
        for name in ("g_div", "g_mul", "h_div", "h_mul"):
            v = tuple(int(x) for x in getattr(self, name))
            if any(x < 0 for x in v):
                raise ValueError(f"{name} has a negative exponent: {v}")
            object.__setattr__(self, name, v)
            vecs.append(v)
        if len({len(v) for v in vecs}) != 1 or not vecs[0]:
            raise ValueError("exponent vectors must share one positive length")

    @property
    def n(self) -> int:
        return len(self.g_div)

    @classmethod
    def identity(cls, n: int) -> "ShiftPlan":
        z = (0,) * n
        return cls(z, z, z, z)

    def inverted(self) -> "ShiftPlan":
        """Swap divides with multiplies on both sides (the undo plan)."""
        return ShiftPlan(self.g_mul, self.g_div, self.h_mul, self.h_div)

    def exponent_vector(self) -> tuple:
        return self.g_div + self.g_mul + self.h_div + self.h_mul


def parse_plan(text: str) -> ShiftPlan:
    """Parse one line per column: four integers g_div g_mul h_div h_mul."""
    rows = []
    for ln, line in enumerate(text.strip().splitlines(), 1):
        parts = line.split()
        if len(parts) != 4 or not all(p.isdigit() for p in parts):
            raise ValueError(
                f"plan line {ln}: expected four nonnegative integers, "
                f"got {line.strip()!r}")
        rows.append(tuple(int(p) for p in parts))
    if not rows:
        raise ValueError("empty plan")
    g_div, g_mul, h_div, h_mul = (tuple(c) for c in zip(*rows))
    return ShiftPlan(g_div, g_mul, h_div, h_mul)


def format_plan(plan: ShiftPlan) -> str:
    return "\n".join(
        f"{gd} {gm} {hd} {hm}"
        for gd, gm, hd, hm in zip(plan.g_div, plan.g_mul, plan.h_div, plan.h_mul))


def csr_constant(plan: ShiftPlan) -> int:
    """The shared per-column exponent sum, or an error naming the columns
    where it fails to be constant."""
    vals = [gd + hd - gm - hm
            for gd, gm, hd, hm in zip(plan.g_div, plan.g_mul,
                                      plan.h_div, plan.h_mul)]
    bad = [j for j, v in enumerate(vals, 1) if v != vals[0]]
    if bad:
        raise ValueError(
            f"C_SR violated: columns {bad} differ from column 1 "
            f"(per-column values {vals})")
    return vals[0]


def make_type1_plan(n: int, l: int, g_cols, h_cols) -> ShiftPlan:
    """Divisions only, split over a partition of the columns.

    Columns in g_cols get g_div = l, the rest get h_div = l.  The two sets
    must be disjoint and cover 1..n.
    """
    if l < 0:
        raise ValueError(f"negative exponent {l}")
    g_set, h_set = set(g_cols), set(h_cols)
    if g_set & h_set or g_set | h_set != set(range(1, n + 1)):
        raise ValueError(
            f"column sets must partition 1..{n}: "
            f"got {sorted(g_set)} and {sorted(h_set)}")
    zeros = (0,) * n
    g_div = tuple(l if j in g_set else 0 for j in range(1, n + 1))
    h_div = tuple(l if j in h_set else 0 for j in range(1, n + 1))
    return ShiftPlan(g_div, zeros, h_div, zeros)


def make_type2_plan(n: int, shifts) -> ShiftPlan:
    """Matched divide-on-G, multiply-on-H with the same exponent per column."""
    shifts = tuple(int(s) for s in shifts)
    if len(shifts) != n:
        raise ValueError(f"expected {n} shifts, got {len(shifts)}")
    zeros = (0,) * n
    return ShiftPlan(shifts, zeros, zeros, shifts)


def _scale_columns(M: PolyMatrix, div, mul, name: str) -> PolyMatrix:
    for j in range(1, M.cols + 1):
        need = div[j - 1]
        if need == 0:
            continue
        have = column_delay(M, j)
        if have is not None and have + mul[j - 1] < need:
            raise ValueError(
                f"illegal division: {name} column {j} needs delay {need}, "
                f"has {have + mul[j - 1]} after multiplying by D^{mul[j - 1]}")
    ents = []
    for i in range(1, M.rows + 1):
        ents.extend(e << mul[j] >> div[j] for j, e in enumerate(M.row(i)))
    return PolyMatrix(M.rows, M.cols, tuple(ents))


def _scale_pair(pair: GHPair, plan: ShiftPlan):
    """The plan's scaled G and H, not yet checked as a pair."""
    if plan.n != pair.n:
        raise ValueError(f"plan has {plan.n} columns, pair has {pair.n}")
    csr_constant(plan)
    return (_scale_columns(pair.G, plan.g_div, plan.g_mul, "G"),
            _scale_columns(pair.H, plan.h_div, plan.h_mul, "H"))


def apply_plan(pair: GHPair, plan: ShiftPlan) -> GHPair:
    """Scale each column of G and H by its net D-power.

    The plan is rejected before any matrix is touched unless its combined
    exponent is constant across columns.  Per column the multiply happens
    first, so a divide is legal whenever the multiplied column supports it.
    """
    return GHPair(*_scale_pair(pair, plan))


def reduce_rows_equivalent(M: PolyMatrix):
    """Divide every row by its common D-power.

    Returns the divided matrix together with the exponents used; the result
    has row delay 0 everywhere and generates the same row space.
    """
    exps = tuple(row_delay(M, i) for i in range(1, M.rows + 1))
    ents = []
    for i in range(1, M.rows + 1):
        ents.extend(divide_by_power(e, exps[i - 1]) for e in M.row(i))
    return PolyMatrix(M.rows, M.cols, tuple(ents)), exps


def suggest_backward_shift(H: PolyMatrix) -> tuple:
    """Column delays of the reciprocal dual: candidate h_mul exponents.

    A factor D^l in column j of the reversed matrix means the column can be
    backward-shifted l time units, the cheapest reduction opening there is.
    An all-zero column can be shifted without limit and reports None.
    """
    dual = reciprocal_dual(H)
    return tuple(column_delay(dual, j) for j in range(1, H.cols + 1))


@dataclass(frozen=True)
class ReductionReport:
    original_pair: GHPair
    plan: ShiftPlan
    transformed_pair: GHPair
    row_divisions_applied: dict
    nu_before: int
    nu_before_dual: int
    nu_after: int
    nu_after_dual: int
    reduced: bool


def simultaneous_reduce(pair: GHPair, plan: ShiftPlan) -> ReductionReport:
    """Apply the plan, then row-reduce both matrices, and report the drop.

    Constraint lengths fall on both sides together or not at all.  The
    result is checked as a pair once, after row reduction; a failure there
    is a fatal internal error (RuntimeError) rather than bad input.
    """
    nu_b = overall_constraint_length(pair.G)
    nu_bd = overall_constraint_length(pair.H)
    g_scaled, h_scaled = _scale_pair(pair, plan)
    g_fin, g_exps = reduce_rows_equivalent(g_scaled)
    h_fin, h_exps = reduce_rows_equivalent(h_scaled)
    try:
        reduced = GHPair(g_fin, h_fin)
    except ValueError as exc:
        raise RuntimeError(f"GH relation broken: {exc}") from None
    nu_a = overall_constraint_length(g_fin)
    nu_ad = overall_constraint_length(h_fin)
    return ReductionReport(
        original_pair=pair,
        plan=plan,
        transformed_pair=reduced,
        row_divisions_applied={"G": g_exps, "H": h_exps},
        nu_before=nu_b,
        nu_before_dual=nu_bd,
        nu_after=nu_a,
        nu_after_dual=nu_ad,
        reduced=nu_a < nu_b)


def compose_plans(p1: ShiftPlan, p2: ShiftPlan) -> ShiftPlan:
    if p1.n != p2.n:
        raise ValueError(f"plan sizes differ: {p1.n} and {p2.n}")
    add = lambda a, b: tuple(x + y for x, y in zip(a, b))
    return ShiftPlan(add(p1.g_div, p2.g_div), add(p1.g_mul, p2.g_mul),
                     add(p1.h_div, p2.h_div), add(p1.h_mul, p2.h_mul))


def search_reduction_plan(pair: GHPair, max_exponent: int = 4) -> ReductionReport:
    """Exhaust single-step type-1 and type-2 plans up to the exponent bound.

    Returns the report of the plan with the smallest resulting constraint
    length, ties broken by the lexicographically smallest exponent vector.
    Plans whose divisions are illegal for this pair are skipped.
    """
    n = pair.n
    candidates = [ShiftPlan.identity(n)]
    for l in range(1, max_exponent + 1):
        for bits in itertools.product((0, 1), repeat=n):
            g_cols = [j for j in range(1, n + 1) if bits[j - 1]]
            h_cols = [j for j in range(1, n + 1) if not bits[j - 1]]
            candidates.append(make_type1_plan(n, l, g_cols, h_cols))
    for shifts in itertools.product(range(max_exponent + 1), repeat=n):
        if any(shifts):
            candidates.append(make_type2_plan(n, shifts))
    best = None
    for plan in candidates:
        try:
            report = simultaneous_reduce(pair, plan)
        except ValueError:
            continue
        key = (report.nu_after, plan.exponent_vector())
        if best is None or key < best[0]:
            best = (key, report)
    return best[1]
