"""Random reductions against verify and the brute-force oracle.

Pairs come from test_search_property.rate1_pairs, kept to those whose G,
stripped of row delays, generates the whole code of H (for one row: its
entries share no factor but D).  A plan is one legal type-1 step composed
with one type-2 step, the paper's two reductions, drawn within the column
delays so every division is legal.  Each reduction must pass verify, and
both reduced trellises must list exactly what brute force lists for the
reduced matrices and masks over the verify window; the shifted codewords
of the original G must be among the reduced code paths.  Four-vector
plans whose combined exponent differs between columns must be refused as
C_SR violations wherever a plan is built from them.  On every pair,
whole code or not, the code paths must be distinct, and verify must pass
exactly when they equal z' xor the error paths as a set, reporting their
sorted symmetric difference as the mismatch.
"""

import functools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shifttrellis import (
    ShiftPlan,
    brute_codewords,
    brute_errors,
    build_code_trellis,
    build_error_trellis,
    column_delay,
    compose_plans,
    delay,
    enumerate_paths,
    make_type1_plan,
    make_type2_plan,
    memory,
    parse_plan,
    shift_received,
    verify_simultaneous_reduction,
)
from shifttrellis.oracle import MAX_HORIZON, MAX_INFO_BITS

from pairs import from_bit_tuples
from test_search_property import rate1_pairs

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


def poly_gcd(a, b):
    while b:
        while a.bit_length() >= b.bit_length():
            a ^= b << a.bit_length() - b.bit_length()
        a, b = b, a
    return a


def generates_whole_code(pair):
    # rate1_pairs swaps only with a unit pivot, which makes the swapped G
    # systematic
    if pair.G.rows > 1:
        return True
    g = functools.reduce(poly_gcd, pair.G.row(1))
    return g >> delay(g) == 1


@st.composite
def reduction_plans(draw, pair, bound=2):
    """A type-1 step dividing by D^l composed with a type-2 step.

    A G-side column takes a type-2 shift up to its G delay less l; an
    H-side column needs its H delay plus its shift to reach l.  An
    all-zero column counts as delay `bound`.  If some column has no legal
    side, the type-1 step is dropped (l = 0).
    """
    n = pair.n

    def caps(M):
        delays = (column_delay(M, j) for j in range(1, n + 1))
        return [bound if d is None else min(d, bound) for d in delays]

    def options(l):
        out = []
        for gc, hc in zip(caps(pair.G), caps(pair.H)):
            col = []
            if gc >= l:
                col.append(("G", 0, gc - l))
            if max(0, l - hc) <= gc:
                col.append(("H", max(0, l - hc), gc))
            out.append(col)
        return out

    l = draw(st.integers(0, bound))
    cols = options(l)
    if not all(cols):
        l, cols = 0, options(0)
    picks = [draw(st.sampled_from(col)) for col in cols]
    g_cols = [j for j, (side, _, _) in enumerate(picks, 1) if side == "G"]
    h_cols = [j for j, (side, _, _) in enumerate(picks, 1) if side == "H"]
    shifts = [draw(st.integers(lo, hi)) for _, lo, hi in picks]
    return compose_plans(make_type1_plan(n, l, g_cols, h_cols),
                         make_type2_plan(n, shifts))


def unmasked(paths, masks):
    return {p.bits for p in paths if not p.bits & masks.bits}


def verify_case(data, whole_code):
    """A random pair (one whose G generates the whole code of H, if
    whole_code), a reduction plan, n_real and a word of n_real blocks."""
    pair = data.draw(rate1_pairs(max_n=4, max_degree=2, max_delay=1))
    assume(not whole_code or generates_whole_code(pair))
    plan = data.draw(reduction_plans(pair))
    n_real = data.draw(st.integers(1, 3))
    bit = st.integers(0, 1)
    z = from_bit_tuples(pair.n, data.draw(st.lists(
        st.tuples(*[bit] * pair.n), min_size=n_real, max_size=n_real)))
    return pair, plan, z, n_real


@SETTINGS
@given(st.data())
def test_random_reductions_verify_and_match_the_oracle(data):
    pair, plan, z, n_real = verify_case(data, whole_code=True)
    rep = verify_simultaneous_reduction(pair, plan, z, n_real)
    assert rep.passed

    g_fin, h_fin = rep.reduction.transformed_pair.G, rep.reduction.transformed_pair.H
    window = rep.window
    assume(window <= MAX_HORIZON)
    assume(g_fin.rows * (window - memory(g_fin)) <= MAX_INFO_BITS)
    assert set(rep.error_paths) == {e.bits for e in brute_errors(
        h_fin, rep.shifted_syndrome, n_real=window, masks=rep.masks)}
    assert set(rep.code_paths) == unmasked(brute_codewords(g_fin, window),
                                           rep.masks)
    if n_real >= memory(pair.G):
        shifted = {shift_received(c.padded(window), plan, n_real).bits
                   for c in brute_codewords(pair.G, n_real)}
        assert shifted <= set(rep.code_paths)


@SETTINGS
@given(st.data())
def test_verify_compares_distinct_code_paths_with_z_xor_error_paths(data):
    # without the whole-code filter some reductions fail verify
    rep = verify_simultaneous_reduction(*verify_case(data, whole_code=False))
    g_fin, h_fin = rep.reduction.transformed_pair.G, rep.reduction.transformed_pair.H
    # the listings are strictly increasing packed ints, those of the
    # public listing of the same two trellises
    for listed, trellis in (
            (rep.error_paths, build_error_trellis(
                h_fin, rep.shifted_syndrome, n_real=rep.window,
                masks=rep.masks)),
            (rep.code_paths, build_code_trellis(g_fin, rep.window,
                                                masks=rep.masks))):
        assert (all(map(int.__lt__, listed, listed[1:]))
                and list(listed) == [p.bits for p in enumerate_paths(trellis)])
    codes = set(rep.code_paths)
    assert len(codes) == len(rep.code_paths)
    xored = {rep.z_shifted.bits ^ e for e in rep.error_paths}
    assert rep.passed == (codes == xored)
    assert rep.mismatch == tuple(sorted(codes ^ xored))


@SETTINGS
@given(st.data())
def test_plans_breaking_csr_are_rejected(data):
    n = data.draw(st.integers(2, 5))
    exps = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    g_div, g_mul, h_div, h_mul = (data.draw(exps) for _ in range(4))
    net = {gd + hd - gm - hm
           for gd, gm, hd, hm in zip(g_div, g_mul, h_div, h_mul)}
    if len(net) == 1:
        g_div[data.draw(st.integers(0, n - 1))] += 1
    text = "\n".join(f"{gd} {gm} {hd} {hm}"
                     for gd, gm, hd, hm in zip(g_div, g_mul, h_div, h_mul))
    for run in (lambda: ShiftPlan.from_parts(g_div, g_mul, h_div, h_mul),
                lambda: parse_plan(text)):
        with pytest.raises(ValueError, match="C_SR violated"):
            run()
