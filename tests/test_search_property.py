"""search_reduction_plan against the exhaustive search it replaced.

The exhaustive search below builds every type-1 and type-2 plan up to the
exponent bound, skips the ones whose divisions are illegal, and keeps the
minimum of (nu_after, exponent vector).  The library search builds only
the legal identity and type-2 plans, so equal reports show both that it
misses no legal plan of those kinds and that no type-1 plan ever wins.
Pairs are rate-1/n codes like the benchmark's (G = (g_j D^a_j), each row
of H pairing a pivot column with one other column, rows delayed by D^b),
sometimes with G and H swapped, with all-zero columns and with delays on
both sides.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shifttrellis.transform as transform
from shifttrellis import (
    GHPair,
    PolyMatrix,
    make_type1_plan,
    make_type2_plan,
    search_reduction_plan,
    simultaneous_reduce,
)

from pairs import CHAIN_PAIR, MAIN_PAIR

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


def exhaustive_search(pair, max_exponent):
    """The report the full enumeration picks, and how many identity and
    type-2 plans were legal."""
    n = pair.n
    type1 = []
    for l in range(1, max_exponent + 1):
        for bits in itertools.product((0, 1), repeat=n):
            g_cols = [j for j in range(1, n + 1) if bits[j - 1]]
            h_cols = [j for j in range(1, n + 1) if not bits[j - 1]]
            type1.append(make_type1_plan(n, l, g_cols, h_cols))
    type2 = [make_type2_plan(n, shifts) for shifts in
             itertools.product(range(max_exponent + 1), repeat=n)]
    best, legal = None, 0
    for plan in type1 + type2:
        try:
            report = simultaneous_reduce(pair, plan)
        except ValueError:
            continue
        legal += plan.c == 0    # the identity and type-2 plans
        key = (report.nu_after, plan.exponent_vector())
        if best is None or key < best[0]:
            best = (key, report)
    return best[1], legal


@st.composite
def rate1_pairs(draw, max_n=5, max_degree=3, max_delay=2):
    """A full-rank rate-1/n pair, or its swap, rate (n-1)/n.

    g_j is zero or g_j(0) = 1 with degree at most max_degree, times
    D^a_j.  Row j of H holds g_j in the pivot column p and g_p in column
    j, times D^b_j.  The swap needs g_p = 1 to stay a generator of the
    whole code.
    """
    n = draw(st.integers(2, max_n))
    poly = st.builds(lambda body, a: (1 | body << 1) << a,
                     st.integers(0, (1 << max_degree) - 1),
                     st.integers(0, max_delay))
    g = draw(st.lists(st.one_of(st.just(0), poly, poly, poly),
                      min_size=n, max_size=n))
    p = draw(st.integers(0, n - 1))
    swap = draw(st.booleans())
    if swap:
        g[p] = 1
    elif not g[p]:
        g[p] = draw(poly)
    rows = []
    for j in range(n):
        if j != p:
            b = draw(st.integers(0, 1))
            rows.extend((g[j] if c == p else g[p] if c == j else 0) << b
                        for c in range(n))
    G = PolyMatrix(1, n, tuple(g))
    H = PolyMatrix(n - 1, n, tuple(rows))
    return GHPair(H, G) if swap else GHPair(G, H)


def counted_search(monkeypatch, pair, max_exponent):
    """Run the library search, recording every plan it reduces and every
    reduction that returned."""
    tried, returned = [], []
    real = transform.simultaneous_reduce

    def counted(p, plan):
        tried.append(plan)
        report = real(p, plan)
        returned.append(plan)
        return report

    monkeypatch.setattr(transform, "simultaneous_reduce", counted)
    report = search_reduction_plan(pair, max_exponent)
    return report, tried, returned


@SETTINGS
@given(rate1_pairs(), st.integers(0, 4))
def test_search_equals_exhaustion(pair, max_exponent):
    expected, legal = exhaustive_search(pair, max_exponent)
    with pytest.MonkeyPatch.context() as mp:
        report, tried, returned = counted_search(mp, pair, max_exponent)
    assert report == expected
    assert tried == returned
    assert len(tried) == legal


@pytest.mark.parametrize("pair", [MAIN_PAIR, CHAIN_PAIR],
                         ids=["main", "chain"])
def test_search_reduces_only_legal_plans(monkeypatch, pair):
    report, tried, returned = counted_search(monkeypatch, pair, 4)
    assert tried == returned
    expected, legal = exhaustive_search(pair, 4)
    assert len(tried) == legal
    assert report == expected
