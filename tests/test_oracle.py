import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shifttrellis import (
    BlockSequence,
    assert_equal_path_sets,
    boundary_masks,
    brute_codewords,
    brute_errors,
    build_code_trellis,
    build_error_trellis,
    enumerate_paths,
    format_blocks,
    memory,
    parse_blocks,
    parse_matrix,
    random_feasible_syndrome,
    shift_received,
    syndrome,
)

from pairs import (
    ALL_PAIRS,
    E_MAIN_RED,
    G_MAIN,
    H_MAIN,
    H_MAIN_RED,
    MAIN_MASKS,
    MAIN_PLAN,
    Y_MAIN_RED,
    Z_MAIN_SHIFTED,
    ZETA_MAIN,
)
from test_min_weight_property import SETTINGS, masks, matrices


def test_brute_codewords_small():
    # a repeated row adds no word: 4 distinct words, not 16
    for text in ("1,1", "1,1;1,1"):
        words = brute_codewords(parse_matrix(text), 2)
        assert [format_blocks(w) for w in words] == [
            "00 00", "00 11", "11 00", "11 11"]


def test_brute_codewords_match_trellis():
    for pair in ALL_PAIRS:
        mem = memory(pair.G)
        for n in range(2, 7):
            if n < mem:
                with pytest.raises(ValueError, match="horizon too short"):
                    brute_codewords(pair.G, n)
                with pytest.raises(ValueError, match="horizon too short"):
                    build_code_trellis(pair.G, n)
                continue
            assert_equal_path_sets(
                brute_codewords(pair.G, n),
                enumerate_paths(build_code_trellis(pair.G, n)))


def test_brute_codewords_contains_zero():
    words = brute_codewords(G_MAIN, 4)
    assert BlockSequence(3, 4, 0) in words


def test_brute_codewords_are_in_kernel():
    for pair in ALL_PAIRS:
        for y in brute_codewords(pair.G, 6):
            assert syndrome(y, pair.H).weight == 0


def test_brute_codewords_caps():
    with pytest.raises(ValueError, match="exceeds cap 6"):
        brute_codewords(G_MAIN, 7)
    # the 3x3 identity has memory 0, so 6 blocks leave 3 x 6 free bits
    identity = parse_matrix("1,0,0;0,1,0;0,0,1")
    with pytest.raises(ValueError, match=r"needs 2\^18 words, cap is 2\^16"):
        brute_codewords(identity, 6)


def test_shifted_codewords_are_reduced_code_paths():
    words = brute_codewords(G_MAIN, 4)
    shifted = {shift_received(y.padded(5), MAIN_PLAN, 4) for y in words}
    reduced = enumerate_paths(
        build_code_trellis(parse_matrix("1+D,D,1+D"), 5, masks=MAIN_MASKS))
    assert shifted == set(reduced)


def test_brute_errors_match_trellis():
    assert_equal_path_sets(
        brute_errors(H_MAIN, ZETA_MAIN),
        enumerate_paths(build_error_trellis(H_MAIN, ZETA_MAIN)))


def test_brute_errors_with_masks():
    got = brute_errors(H_MAIN_RED, ZETA_MAIN, n_real=5, masks=MAIN_MASKS)
    assert tuple(got) == E_MAIN_RED


@SETTINGS
@given(st.data())
def test_brute_errors_is_the_preimage_of_syn(data):
    """On random small H, masks and horizons, brute_errors lists exactly
    the words on the free bits (at most 3 x 4 of them) whose syndrome is
    syn, sorted; half the syndromes are drawn at random, many infeasible."""
    H = data.draw(matrices())
    m, n = H.rows, H.cols
    n_real = data.draw(st.integers(0, 3))
    horizon = n_real + memory(H) + data.draw(st.integers(0, 2))
    mask = masks(data.draw, horizon, n)
    if data.draw(st.booleans()):
        seed = data.draw(st.integers(0, 2**32 - 1))
        syn = random_feasible_syndrome(H, n_real, random.Random(seed))
        syn = syn.padded(horizon)
    else:
        syn = BlockSequence(m, horizon,
                            data.draw(st.integers(0, (1 << m * horizon) - 1)))
    forced = mask.bits | (1 << (horizon - n_real) * n) - 1
    free = [b for b in range(horizon * n) if not forced >> b & 1]
    words = (BlockSequence(n, horizon, sum(1 << b for k, b in enumerate(free)
                                           if w >> k & 1))
             for w in range(1 << len(free)))
    want = sorted(e for e in words if syndrome(e, H) == syn)
    assert brute_errors(H, syn, n_real=n_real, masks=mask) == want


def test_brute_errors_shift_onto_reduced_set():
    raw = brute_errors(H_MAIN, ZETA_MAIN)
    shifted = {shift_received(e, MAIN_PLAN, 4) for e in raw}
    assert shifted == set(E_MAIN_RED)


def test_brute_errors_zero_syndrome():
    errs = brute_errors(H_MAIN, BlockSequence(2, 5, 0))
    assert BlockSequence(3, 5, 0) in errs


def test_brute_errors_infeasible():
    bad = parse_blocks("10 00 00 00 00 00", width=2)
    assert brute_errors(parse_matrix("D^2,D^2,D^2;1,1+D+D^2,0"), bad) == []


def test_brute_errors_input_checks():
    with pytest.raises(ValueError, match="syndrome width 3"):
        brute_errors(H_MAIN, BlockSequence(3, 5, 0))
    with pytest.raises(ValueError, match="flush alone needs"):
        brute_errors(parse_matrix("D^3,D^2,1;D,1+D+D^2,0"),
                     BlockSequence(2, 2, 0))
    with pytest.raises(ValueError, match="exceeds cap"):
        brute_errors(H_MAIN, BlockSequence(2, 9, 0))


def test_brute_errors_solution_space_cap():
    # 6 blocks of 5 free bits under 6 independent equations leave 24
    with pytest.raises(ValueError,
                       match=r"solution space needs 2\^24 words, cap is 2\^16"):
        brute_errors(parse_matrix("1,1,1,1,1"), BlockSequence(1, 6, 0))


# The first two cases keep the ids of the refusals they had when masks were
# dicts of sections to columns; as horizon x n sequences every case is
# refused by shape.
@pytest.mark.parametrize("masks,case", [
    # column 1 of section 99, past the horizon of 5
    (parse_blocks("000 " * 98 + "100"), "mask section 99 outside 1..5"),
    # on packed bits column 4 of block 2 would alias into block 1
    (parse_blocks("0000 0001 0000 0000 0000"),
     r"mask columns \[4\] outside 1..3"),
    (BlockSequence(4, 5, 0), "too wide"),
    (BlockSequence(2, 5, 0), "too narrow"),
    (BlockSequence(3, 6, 0), "too long"),
    (BlockSequence(3, 4, 0), "too short"),
    ({2: {4}}, "a dict of columns"),
])
def test_brute_errors_refuses_masks_the_trellis_refuses(masks, case):
    zero = BlockSequence(2, 5, 0)
    message = "^masks must be 5 blocks of 3 bits$"
    with pytest.raises(ValueError, match=message):
        build_error_trellis(H_MAIN, zero, masks=masks)
    with pytest.raises(ValueError, match=message):
        brute_errors(H_MAIN, zero, masks=masks)


def test_random_feasible_syndrome_agreement():
    rng = random.Random(0)
    for pair in ALL_PAIRS:
        for _ in range(20):
            zeta = random_feasible_syndrome(pair.H, 4, rng)
            ref = brute_errors(pair.H, zeta)
            assert ref, "feasible by construction"
            assert_equal_path_sets(
                ref, enumerate_paths(build_error_trellis(pair.H, zeta)))


def test_random_feasible_syndrome_deterministic():
    a = random_feasible_syndrome(H_MAIN, 4, random.Random(5))
    b = random_feasible_syndrome(H_MAIN, 4, random.Random(5))
    assert a == b


def test_masked_brute_agrees_with_masked_trellis():
    masks = boundary_masks(MAIN_PLAN, 4, horizon=5)
    zeta = syndrome(Z_MAIN_SHIFTED, H_MAIN_RED)
    assert_equal_path_sets(
        brute_errors(H_MAIN_RED, zeta, n_real=5, masks=masks),
        enumerate_paths(
            build_error_trellis(H_MAIN_RED, zeta, n_real=5, masks=masks)))


def test_assert_equal_path_sets_reports_difference():
    a = [BlockSequence(3, 2, 0)]
    b = [parse_blocks("001 000")]
    with pytest.raises(AssertionError) as exc:
        assert_equal_path_sets(a, b, label="demo")
    msg = str(exc.value)
    assert "demo differ" in msg
    assert "only in first: 000 000" in msg
    assert "only in second: 001 000" in msg


def test_reconstruction_identity():
    # z' xor error paths equals the reduced code set, the oracle way round
    recon = {Z_MAIN_SHIFTED ^ e for e in E_MAIN_RED}
    assert recon == set(Y_MAIN_RED)
