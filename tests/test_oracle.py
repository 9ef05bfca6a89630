import random

import pytest

from shifttrellis import (
    BlockSequence,
    OracleConfig,
    assert_equal_path_sets,
    boundary_masks,
    brute_codewords,
    brute_errors,
    build_code_trellis,
    build_error_trellis,
    enumerate_paths,
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


def test_brute_codewords_small():
    words = brute_codewords(parse_matrix("1,1"), 2)
    got = sorted(tuple(w.blocks) for w in words)
    assert got == [
        ((0, 0), (0, 0)),
        ((0, 0), (1, 1)),
        ((1, 1), (0, 0)),
        ((1, 1), (1, 1)),
    ]


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
    assert BlockSequence.zero(3, 4) in words


def test_brute_codewords_are_in_kernel():
    for pair in ALL_PAIRS:
        for y in brute_codewords(pair.G, 6):
            assert syndrome(y, pair.H).weight == 0


def test_brute_codewords_caps():
    with pytest.raises(ValueError, match="exceeds cap 6"):
        brute_codewords(G_MAIN, 7)
    wide = OracleConfig(max_horizon=30, max_info_bits=16)
    with pytest.raises(ValueError, match=r"needs 2\^17"):
        brute_codewords(parse_matrix("1"), 17, config=wide)


def test_shifted_codewords_are_reduced_code_paths():
    words = brute_codewords(G_MAIN, 4)
    shifted = {shift_received(y.padded(5), MAIN_PLAN, 4).blocks for y in words}
    reduced = enumerate_paths(
        build_code_trellis(parse_matrix("1+D,D,1+D"), 5, masks=MAIN_MASKS))
    assert shifted == {y.blocks for y in reduced}


def test_brute_errors_match_trellis():
    assert_equal_path_sets(
        brute_errors(H_MAIN, ZETA_MAIN),
        enumerate_paths(build_error_trellis(H_MAIN, ZETA_MAIN)))


def test_brute_errors_with_masks():
    got = brute_errors(H_MAIN_RED, ZETA_MAIN, n_real=5, masks=MAIN_MASKS)
    assert tuple(got) == E_MAIN_RED


def test_brute_errors_shift_onto_reduced_set():
    raw = brute_errors(H_MAIN, ZETA_MAIN)
    shifted = {shift_received(e, MAIN_PLAN, 4).blocks for e in raw}
    assert shifted == {e.blocks for e in E_MAIN_RED}


def test_brute_errors_zero_syndrome():
    errs = brute_errors(H_MAIN, BlockSequence.zero(2, 5))
    assert BlockSequence.zero(3, 5) in errs


def test_brute_errors_infeasible():
    bad = parse_blocks("10 00 00 00 00 00", width=2)
    assert brute_errors(parse_matrix("D^2,D^2,D^2;1,1+D+D^2,0"), bad) == []


def test_brute_errors_input_checks():
    with pytest.raises(ValueError, match="syndrome width 3"):
        brute_errors(H_MAIN, BlockSequence.zero(3, 5))
    with pytest.raises(ValueError, match="flush alone needs"):
        brute_errors(parse_matrix("D^3,D^2,1;D,1+D+D^2,0"),
                     BlockSequence.zero(2, 2))
    with pytest.raises(ValueError, match="exceeds cap"):
        brute_errors(H_MAIN, BlockSequence.zero(2, 9))


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
    a = [BlockSequence.zero(3, 2)]
    b = [parse_blocks("001 000")]
    with pytest.raises(AssertionError) as exc:
        assert_equal_path_sets(a, b, label="demo")
    msg = str(exc.value)
    assert "demo differ" in msg
    assert "only in first: 000 000" in msg
    assert "only in second: 001 000" in msg


def test_reconstruction_identity():
    # z' xor error paths equals the reduced code set, the oracle way round
    recon = {(Z_MAIN_SHIFTED ^ e).blocks for e in E_MAIN_RED}
    assert recon == {y.blocks for y in Y_MAIN_RED}
