"""The signed plan normal form against the four-vector scaling it replaced.

The reference below scales column j of G by e << g_mul_j >> g_div_j and of
H by e << h_mul_j >> h_div_j, and refuses a division when the column's
delay plus its multiplier falls short of the divisor.  ShiftPlan.from_parts
keeps only the net exponent per column, so apply_plan must return the
reference pair when the reference succeeds and raise when it raises, and
the plan must survive format_plan and parse_plan unchanged.  Plans come
from random_csr_parts on the worked pairs and from a strategy with
multiplies and divides on both sides of rate1_pairs().
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shifttrellis import (
    PolyMatrix,
    ShiftPlan,
    apply_plan,
    column_delay,
    format_plan,
    parse_plan,
)

from pairs import CHAIN_PAIR, MAIN_PAIR, T2_PAIR
from test_search_property import rate1_pairs
from test_transform import random_csr_parts


def reference_scale(M, div, mul):
    for j in range(1, M.cols + 1):
        have = column_delay(M, j)
        if div[j - 1] and have is not None and have + mul[j - 1] < div[j - 1]:
            raise ValueError(f"column {j} cannot be divided")
    return PolyMatrix(M.rows, M.cols, tuple(
        e << mul[j] >> div[j]
        for i in range(1, M.rows + 1) for j, e in enumerate(M.row(i))))


def matches_reference(pair, vecs):
    """Whether the plan was legal; asserts it behaves as the reference."""
    g_div, g_mul, h_div, h_mul = vecs
    plan = ShiftPlan.from_parts(*vecs)
    assert parse_plan(format_plan(plan)) == plan
    try:
        expected = (reference_scale(pair.G, g_div, g_mul),
                    reference_scale(pair.H, h_div, h_mul))
    except ValueError:
        with pytest.raises(ValueError, match="illegal division"):
            apply_plan(pair, plan)
        return False
    got = apply_plan(pair, plan)
    assert (got.G, got.H) == expected
    return True


def test_worked_pairs_match_the_four_vector_reference():
    rng = random.Random(61)
    outcomes = set()
    for pair in (MAIN_PAIR, T2_PAIR, CHAIN_PAIR):
        for _ in range(300):
            vecs = random_csr_parts(rng, pair.n)
            outcomes.add(matches_reference(pair, vecs))
    assert outcomes == {True, False}


@st.composite
def csr_parts(draw, n, bound=3):
    """Four exponent vectors meeting C_SR with constant c, each column free
    to multiply and divide on the same side."""
    c = draw(st.integers(-bound, bound))
    exps = st.integers(0, bound)
    cols = []
    for _ in range(n):
        gd, gm = draw(exps), draw(exps)
        h = c - gd + gm
        hm = draw(st.integers(max(0, -h), max(0, -h) + bound))
        cols.append((gd, gm, h + hm, hm))
    return tuple(map(tuple, zip(*cols)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_random_pairs_match_the_four_vector_reference(data):
    pair = data.draw(rate1_pairs())
    matches_reference(pair, data.draw(csr_parts(pair.n)))
