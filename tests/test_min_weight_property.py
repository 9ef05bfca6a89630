"""min_weight_path against brute force on random small trellises.

The decoder's rule is the minimum of (weight, blocks) over every admissible
sequence: the least Hamming weight, then the lexicographically smallest
sequence.  Random matrices with 1-2 rows, up to 4 columns and entries of
degree at most 3 (zero constant terms allowed) give delayed columns and
inputs that never reach their own section's label, so several states can
share the best prefix; random masks add forced-zero columns.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shifttrellis import (
    BlockSequence,
    PolyMatrix,
    brute_codewords,
    brute_errors,
    build_code_trellis,
    build_error_trellis,
    memory,
    min_weight_path,
    random_feasible_syndrome,
)

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)


@st.composite
def matrices(draw):
    rows = draw(st.integers(1, 2))
    cols = draw(st.integers(1, 4))
    entries = draw(st.lists(st.integers(0, 15), min_size=rows * cols,
                            max_size=rows * cols))
    return PolyMatrix(rows, cols, tuple(entries))


def masks(draw, horizon, n):
    """horizon x n masks: any set of columns forced to zero (a one) in each
    of some sections, so every mask of that shape can be drawn."""
    pinned = draw(st.dictionaries(st.integers(1, horizon),
                                  st.frozensets(st.integers(1, n)),
                                  max_size=horizon)) if horizon else {}
    return BlockSequence(n, horizon, sum(1 << (horizon - t) * n + n - j
                                         for t, cols in pinned.items()
                                         for j in cols))


def check(trellis, admissible):
    """min_weight_path gives the (weight, blocks) minimum of admissible,
    or refuses when there is nothing to choose from."""
    if not admissible:
        with pytest.raises(ValueError, match="no admissible path"):
            min_weight_path(trellis)
        return
    best = min(admissible, key=lambda s: (s.weight, s))
    assert min_weight_path(trellis) == (best, best.weight)


@SETTINGS
@given(st.data())
def test_error_trellis_min_weight_matches_brute_force(data):
    H = data.draw(matrices())
    n_real = data.draw(st.integers(0, 3))
    seed = data.draw(st.integers(0, 2**32 - 1))
    zeta = random_feasible_syndrome(H, n_real, random.Random(seed))
    mask = masks(data.draw, len(zeta), H.cols)
    trellis = build_error_trellis(H, zeta, n_real=n_real, masks=mask)
    check(trellis, brute_errors(H, zeta, n_real=n_real, masks=mask))


@SETTINGS
@given(st.data())
def test_code_trellis_min_weight_matches_brute_force(data):
    G = data.draw(matrices())
    horizon = memory(G) + data.draw(st.integers(0, 3))
    mask = masks(data.draw, horizon, G.cols)
    trellis = build_code_trellis(G, horizon, masks=mask)
    words = [y for y in brute_codewords(G, horizon) if not y.bits & mask.bits]
    check(trellis, words)
