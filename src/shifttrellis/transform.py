"""Shift plans: per-column D-power transformations applied to a matrix pair.

A plan is one signed exponent g_j per column and a constant c: column j of
G is divided by D^(g_j) and column j of H by D^(c - g_j), a negative
exponent multiplying.  The combined exponent is then c in every column,
which is the admissibility condition C_SR that preserves G * H^T = 0.
Plan files and reports write a plan as four nonnegative exponents per
column, g_div g_mul h_div h_mul; ShiftPlan.from_parts reads that form and
is the one place C_SR is checked.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .gf2poly import (
    MAX_EXPONENT,
    GHPair,
    PolyMatrix,
    column_delay,
    reciprocal_dual,
    row_delay,
)

# Most plans search_reduction_plan will try.
MAX_PLANS = 1 << 16


def _integers(name: str, raw) -> tuple:
    raw = tuple(raw)
    try:
        return tuple(map(operator.index, raw))
    except TypeError:
        raise ValueError(f"{name} has a non-integer exponent: {raw}") from None


@dataclass(frozen=True)
class ShiftPlan:
    g: tuple
    c: int

    def __post_init__(self):
        object.__setattr__(self, "g", _integers("g", self.g))
        object.__setattr__(self, "c", _integers("c", (self.c,))[0])
        if not self.g:
            raise ValueError("a plan needs at least one column")

    @classmethod
    def from_parts(cls, g_div, g_mul, h_div, h_mul) -> "ShiftPlan":
        """The plan of four nonnegative exponent vectors, refused unless
        the per-column value g_div + h_div - g_mul - h_mul is constant."""
        vecs = []
        for name, raw in zip(("g_div", "g_mul", "h_div", "h_mul"),
                             (g_div, g_mul, h_div, h_mul)):
            vecs.append(_integers(name, raw))
            if min(vecs[-1], default=0) < 0:
                raise ValueError(f"{name} has a negative exponent: {vecs[-1]}")
        if len(set(map(len, vecs))) != 1 or not vecs[0]:
            raise ValueError("exponent vectors must share one positive length")
        g = tuple(d - m for d, m in zip(vecs[0], vecs[1]))
        vals = [x + d - m for x, d, m in zip(g, vecs[2], vecs[3])]
        bad = [j for j, v in enumerate(vals, 1) if v != vals[0]]
        if bad:
            raise ValueError(
                f"C_SR violated: columns {bad} differ from column 1 "
                f"(per-column values {vals})")
        return cls(g, vals[0])

    @property
    def n(self) -> int:
        return len(self.g)

    @property
    def shifts(self) -> tuple:
        """H's exponents, also how far each column of a sequence moves."""
        return tuple(self.c - x for x in self.g)

    @classmethod
    def identity(cls, n: int) -> "ShiftPlan":
        return cls((0,) * n, 0)

    def inverted(self) -> "ShiftPlan":
        """The undo plan: every exponent negated."""
        return ShiftPlan(tuple(-x for x in self.g), -self.c)

    def parts(self) -> tuple:
        """(g_div, g_mul, h_div, h_mul), each net exponent on one side."""
        return tuple(tuple(max(sign * x, 0) for x in v)
                     for v in (self.g, self.shifts) for sign in (1, -1))

    def exponent_vector(self) -> tuple:
        return sum(self.parts(), ())


def parse_plan(text: str) -> ShiftPlan:
    """Parse one line per column: four integers g_div g_mul h_div h_mul,
    none above MAX_EXPONENT, meeting C_SR."""
    rows = []
    for ln, line in enumerate(text.strip().splitlines(), 1):
        parts = line.split()
        if len(parts) != 4 or not all(p.isdigit() for p in parts):
            raise ValueError(
                f"plan line {ln}: expected four nonnegative integers, "
                f"got {line.strip()!r}")
        row = tuple(int(p) for p in parts)
        if max(row) > MAX_EXPONENT:
            raise ValueError(f"plan line {ln}: exponent {max(row)} "
                             f"exceeds cap {MAX_EXPONENT}")
        rows.append(row)
    if not rows:
        raise ValueError("empty plan")
    return ShiftPlan.from_parts(*zip(*rows))


def format_plan(plan: ShiftPlan) -> str:
    return "\n".join(" ".join(map(str, col)) for col in zip(*plan.parts()))


def make_type1_plan(n: int, l: int, g_cols, h_cols) -> ShiftPlan:
    """Columns in g_cols divided by D^l on G, the rest on H (c = l); the
    two sets must partition 1..n."""
    if l < 0:
        raise ValueError(f"negative exponent {l}")
    g_set, h_set = set(g_cols), set(h_cols)
    if g_set & h_set or g_set | h_set != set(range(1, n + 1)):
        raise ValueError(
            f"column sets must partition 1..{n}: "
            f"got {sorted(g_set)} and {sorted(h_set)}")
    return ShiftPlan(tuple(l if j in g_set else 0 for j in range(1, n + 1)), l)


def make_type2_plan(n: int, shifts) -> ShiftPlan:
    """Matched divide-on-G, multiply-on-H with the same exponent per column,
    so c = 0."""
    plan = ShiftPlan(shifts, 0)
    if plan.n != n or min(plan.g) < 0:
        raise ValueError(f"expected {n} nonnegative shifts, got {plan.g}")
    return plan


def _scale_columns(M: PolyMatrix, exps, name: str) -> PolyMatrix:
    """Column j of M divided by D^exps[j], multiplied when negative."""
    for j, x in enumerate(exps, 1):
        if x > 0:
            have = column_delay(M, j)
            if have is not None and have < x:
                raise ValueError(f"illegal division: {name} column {j} "
                                 f"needs delay {x}, has {have}")
    ents = []
    for i in range(1, M.rows + 1):
        ents.extend(e >> x if x >= 0 else e << -x
                    for x, e in zip(exps, M.row(i)))
    return PolyMatrix(M.rows, M.cols, tuple(ents))


def _scale_pair(pair: GHPair, plan: ShiftPlan):
    """The plan's scaled G and H, not yet checked as a pair."""
    if plan.n != pair.n:
        raise ValueError(f"plan has {plan.n} columns, pair has {pair.n}")
    return (_scale_columns(pair.G, plan.g, "G"),
            _scale_columns(pair.H, plan.shifts, "H"))


def apply_plan(pair: GHPair, plan: ShiftPlan) -> GHPair:
    """Scale each column of G and H by its net D-power.

    A division by D^x is legal when the column's delay is at least x; an
    all-zero column takes any.
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
        ents.extend(e >> exps[i - 1] for e in M.row(i))
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
    g_scaled, h_scaled = _scale_pair(pair, plan)
    g_fin, g_exps = reduce_rows_equivalent(g_scaled)
    h_fin, h_exps = reduce_rows_equivalent(h_scaled)
    try:
        reduced = GHPair(g_fin, h_fin)
    except ValueError as exc:
        raise RuntimeError(f"GH relation broken: {exc}") from None
    (nu_b, nu_bd), (nu_a, nu_ad) = pair.nu, reduced.nu
    return ReductionReport(
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
    return ShiftPlan(tuple(x + y for x, y in zip(p1.g, p2.g)), p1.c + p2.c)


def search_reduction_plan(pair: GHPair, max_exponent: int = 4) -> ReductionReport:
    """The identity or type-2 plan with the smallest resulting constraint
    length, ties broken by the lexicographically smallest g.

    g_j runs up to column j's delay in G capped at the bound (the bound for
    an all-zero column), so every plan built is legal and is reduced in
    full; more than MAX_PLANS of them are refused before any is built.  No
    type-1 plan does better: dividing G columns S by D^l leaves the G' of
    the type-2 plan shifting S by l.
    """
    if max_exponent < 0:
        raise ValueError(f"negative max exponent {max_exponent}")
    n = pair.n
    delays = (column_delay(pair.G, j) for j in range(1, n + 1))
    caps = [max_exponent if d is None else min(d, max_exponent) for d in delays]
    size = math.prod(cap + 1 for cap in caps)
    if size > MAX_PLANS:
        raise ValueError(
            f"plan space too large: {size} plans for n={n} and max exponent "
            f"{max_exponent} exceeds {MAX_PLANS}")
    shifts = itertools.product(*(range(cap + 1) for cap in caps))
    reports = (simultaneous_reduce(pair, make_type2_plan(n, g)) for g in shifts)
    return min(reports, key=lambda r: (r.nu_after, r.plan.g))
