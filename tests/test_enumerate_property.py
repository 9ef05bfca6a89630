"""enumerate_paths against the earlier tuple-prefix enumeration.

reference_paths below is that enumeration, kept as the reference: every
prefix a tuple of labels unpacked to bit tuples, extended by copying, the
result sorted by its blocks.  On random code and error trellises with masks (the generators
of test_min_weight_property), on TIE_PAIR, whose code trellis has two
branches with one label at every state, and on a code whose label
sequences repeat, the packed enumeration must return the same list: same
sequences, same multiplicity, same order; with packed=True, their packed
ints in that order.  A masked trellis must list exactly the paths of the
unmasked one that have no one where the masks have one.
"""

import random

from hypothesis import given
from hypothesis import strategies as st

from shifttrellis import (
    build_code_trellis,
    build_error_trellis,
    enumerate_paths,
    memory,
    parse_matrix,
    random_feasible_syndrome,
    syndrome,
)
from pairs import TIE_PAIR, blocks, from_bit_tuples, label_bits
from test_min_weight_property import SETTINGS, masks, matrices


def reference_paths(trellis):
    paths = {0: [()]}
    for sec in trellis.sections:
        nxt = {}
        for b in sec:
            for pref in paths.get(b.from_state, ()):
                nxt.setdefault(b.to_state, []).append(
                    pref + (label_bits(b.label, trellis.n),))
        paths = nxt
    return sorted(paths.get(0, []))


def check(trellis):
    found = enumerate_paths(trellis)
    assert found == [from_bit_tuples(trellis.n, p)
                     for p in reference_paths(trellis)]
    assert all((p.block_width, len(p)) == (trellis.n, trellis.horizon)
               for p in found)
    assert enumerate_paths(trellis, packed=True) == [p.bits for p in found]


@SETTINGS
@given(st.data())
def test_error_trellis_paths_match_reference(data):
    H = data.draw(matrices())
    n_real = data.draw(st.integers(0, 3))
    seed = data.draw(st.integers(0, 2**32 - 1))
    zeta = random_feasible_syndrome(H, n_real, random.Random(seed))
    mask = masks(data.draw, len(zeta), H.cols)
    check(build_error_trellis(H, zeta, n_real=n_real, masks=mask))


@SETTINGS
@given(st.data())
def test_code_trellis_paths_match_reference(data):
    G = data.draw(matrices())
    horizon = memory(G) + data.draw(st.integers(0, 3))
    mask = masks(data.draw, horizon, G.cols)
    check(build_code_trellis(G, horizon, masks=mask))


def test_tie_pair_matches_reference():
    check(build_code_trellis(TIE_PAIR.G, 5))
    z = blocks("10 11 01 00 11 10")
    check(build_error_trellis(TIE_PAIR.H, syndrome(z, TIE_PAIR.H)))


def test_repeated_label_sequences_keep_their_multiplicity():
    # Row 2's input never reaches a label, so each of its 2^2 free choices
    # repeats every label sequence of row 1.
    code = build_code_trellis(parse_matrix("D,D+D^2;0,0"), 4)
    found = enumerate_paths(code)
    assert len(found) == 4 * len(set(found)) == 16
    check(code)


@SETTINGS
@given(st.data())
def test_masked_paths_are_the_unmasked_paths_the_masks_allow(data):
    M = data.draw(matrices())
    n_real = data.draw(st.integers(0, 3))
    seed = data.draw(st.integers(0, 2**32 - 1))
    zeta = random_feasible_syndrome(M, n_real, random.Random(seed))
    horizon = memory(M) + n_real
    mask = masks(data.draw, horizon, M.cols)
    for build, args in ((build_code_trellis, (M, horizon)),
                        (build_error_trellis, (M, zeta, n_real))):
        found = enumerate_paths(build(*args, masks=mask))
        assert all(not p.bits & mask.bits for p in found)
        assert found == [p for p in enumerate_paths(build(*args))
                         if not p.bits & mask.bits]
