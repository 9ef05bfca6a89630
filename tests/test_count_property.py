"""count_paths against the earlier forward count, the listings and brute force.

reference_count below is the per-branch forward count that enumerate_paths
ran before it called count_paths, kept as the reference.  On random code
and error trellises with masks (the generators of
test_min_weight_property), on the hand-built trellises of
test_decode_property, whose sections are lists, some empty, some repeated,
with states of unequal branch counts, on its CORNER_CASES and on TIE_PAIR,
count_paths must give the same exact int.  Below the cap it is the length of
enumerate_paths, and above it enumerate_paths refuses, naming a layer of its
walk that holds more than the cap and no more than the count.  With the cap
patched to each of 1 to 16, so that these small trellises reach both sides
of it, the listing must be refused exactly when the count exceeds the cap.
Within the oracle's horizon the count is also the number of brute-force
words, wherever no two paths carry one label sequence.
"""

import random
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shifttrellis import (
    BlockSequence,
    Branch,
    Trellis,
    brute_codewords,
    brute_errors,
    build_code_trellis,
    build_error_trellis,
    count_paths,
    enumerate_paths,
    full_row_rank,
    memory,
    parse_matrix,
    random_feasible_syndrome,
    syndrome,
)
from shifttrellis import trellis as trellis_module
from shifttrellis.trellis import MAX_PATHS
from pairs import TIE_PAIR, blocks
from test_decode_property import CORNER_CASES, hand_built
from test_golden import K7_PAIR
from test_min_weight_property import SETTINGS, masks, matrices


def reference_count(trellis):
    counts = {0: 1}
    for sec in trellis.sections:
        nxt = dict.fromkeys((b.to_state for b in sec), 0)
        for s, ns, _ in sec:
            nxt[ns] += counts.get(s, 0)
        counts = nxt
    return counts.get(0, 0)


def check_cap(trellis, count, cap):
    """enumerate_paths under a cap: refused iff count exceeds it, naming
    an N with cap < N <= count; else listing all count paths."""
    with mock.patch.object(trellis_module, "MAX_PATHS", cap):
        try:
            listed = enumerate_paths(trellis)
        except ValueError as e:
            held = re.fullmatch(
                rf"too many paths: at least (\d+) exceeds {cap}", str(e))
            assert held and cap < int(held[1]) <= count, str(e)
        else:
            assert len(listed) == count <= cap


def check(trellis, words=None):
    """count_paths equals the reference count and the listing's length,
    or the listing refuses it, also under caps 1 to 16; and the
    brute-force word count if given."""
    count = count_paths(trellis)
    assert type(count) is int
    assert count == reference_count(trellis)
    for cap in (*range(1, 17), MAX_PATHS):
        check_cap(trellis, count, cap)
    if words is not None:
        assert count == len(words)


@SETTINGS
@given(st.data())
def test_error_trellis_count_matches_reference(data):
    H = data.draw(matrices())
    n_real = data.draw(st.integers(0, 3))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    zeta = random_feasible_syndrome(H, n_real, rng)
    if len(zeta) and data.draw(st.booleans()):
        # one flipped syndrome bit, often infeasible
        flip = 1 << rng.randrange(H.rows * len(zeta))
        zeta = BlockSequence(H.rows, len(zeta), zeta.bits ^ flip)
    mask = masks(data.draw, len(zeta), H.cols)
    # The syndrome former's state follows from the errors alone, so every
    # error sequence is one path.
    check(build_error_trellis(H, zeta, n_real=n_real, masks=mask),
          brute_errors(H, zeta, n_real=n_real, masks=mask))


@SETTINGS
@given(st.data())
def test_code_trellis_count_matches_reference(data):
    G = data.draw(matrices())
    horizon = memory(G) + data.draw(st.integers(0, 3))
    mask = masks(data.draw, horizon, G.cols)
    trellis = build_code_trellis(G, horizon, masks=mask)
    words = [y for y in brute_codewords(G, horizon) if not y.bits & mask.bits]
    if full_row_rank(G):
        # distinct inputs give distinct codewords, so paths are words
        check(trellis, words)
    else:
        check(trellis)
        assert count_paths(trellis) >= len(words)


@SETTINGS
@given(hand_built())
def test_hand_built_trellis_counts_like_reference(t):
    check(t)


def test_hand_built_corner_cases_count_like_reference():
    for t in CORNER_CASES:
        check(t)
    assert [count_paths(t) for t in CORNER_CASES] == [3, 0, 2, 0, 0]


# Five full 2-state sections, then one branch into state 0: 2^4 paths, but
# the unpruned walk would hold 2^5 prefixes after section 5.
FULL = (Branch(0, 0, 0), Branch(0, 1, 1), Branch(1, 0, 0), Branch(1, 1, 1))
DEAD_ENDS = Trellis(1, 6, 1, (FULL,) * 5 + (
    (Branch(0, 1, 0), Branch(1, 1, 1), Branch(1, 0, 1)),))
# One section object, repeated, with two parallel branches of one label.
PARALLEL = Trellis(1, 4, 0, (
    (Branch(0, 0, 1), Branch(0, 0, 1), Branch(0, 0, 0)),) * 4)


def test_cap_on_dead_ends_and_parallel_labels():
    assert [count_paths(t) for t in (DEAD_ENDS, PARALLEL)] == [16, 81]
    check(DEAD_ENDS)
    check(PARALLEL)


def test_tie_pair_counts():
    check(build_code_trellis(TIE_PAIR.G, 5), brute_codewords(TIE_PAIR.G, 5))
    zeta = syndrome(blocks("10 11 01 00 11 10"), TIE_PAIR.H)
    check(build_error_trellis(TIE_PAIR.H, zeta),
          brute_errors(TIE_PAIR.H, zeta))


def test_repeated_label_sequences_count_with_multiplicity():
    # Row 2's input never reaches a label: 4 words, each on 4 paths.
    G = parse_matrix("D,D+D^2;0,0")
    code = build_code_trellis(G, 4)
    check(code)
    assert count_paths(code) == 16 == 4 * len(brute_codewords(G, 4))


def test_infeasible_syndrome_and_empty_horizon():
    # With n_real 0 every error bit of H = (1+D, 1) is flushed, so only
    # the zero syndrome can be produced.
    infeasible = build_error_trellis(TIE_PAIR.H, blocks("1"), n_real=0)
    assert count_paths(infeasible) == 0
    check(infeasible, [])
    empty = [BlockSequence(2, 0, 0)]
    check(Trellis(2, 0, 0, ()), empty)
    check(build_code_trellis(parse_matrix("1,1"), 0), empty)
    check(build_error_trellis(TIE_PAIR.H, BlockSequence(1, 0, 0),
                              n_real=0), empty)


def test_k7_code_and_error_trellis_counts_at_n200():
    """Both trellises of the K=7 (171,133) code over 200 blocks list its
    2^194 terminated codewords, and the listing is refused at the 17th
    section, whose layer would hold 2^17 prefixes.  The error side
    leaves all 200 blocks free; ending in state 0 drains the syndrome
    former, so the errors of zero syndrome are exactly those codewords."""
    code = build_code_trellis(K7_PAIR.G, 200)
    assert count_paths(code) == 2**194
    err = build_error_trellis(K7_PAIR.H, BlockSequence(1, 200, 0),
                              n_real=200)
    assert count_paths(err) == 2**194
    for t in (code, err):
        with pytest.raises(ValueError, match=(
                f"^too many paths: at least {2**17} exceeds 65536$")):
            enumerate_paths(t)


def test_count_holds_one_layer_at_n20000():
    """count_paths keeps only the latest time index's counts: at 20000
    blocks the code trellis of (1+D+D^2, 1+D^2) has 2^19998 paths, and the
    count stays far below the 20000 layers of such ints (over 100 MB)."""
    code = build_code_trellis(parse_matrix("1+D+D^2,1+D^2"), 20000)
    tracemalloc.start()
    try:
        count = count_paths(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 2**19998
    assert peak < 8 << 20
