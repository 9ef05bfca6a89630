import random

import pytest

from shifttrellis import (
    BlockSequence,
    ShiftPlan,
    boundary_masks,
    format_blocks,
    make_type2_plan,
    net_shifts,
    parse_blocks,
    reconstruct_code_paths,
    shift_received,
    syndrome,
    verify_simultaneous_reduction,
)

from pairs import (
    CHAIN_PAIR,
    CHAIN_T1,
    CHAIN_T2,
    E_MAIN_RED,
    G_MAIN,
    H_MAIN,
    H_MAIN_RED,
    MAIN_MASKS,
    MAIN_PAIR,
    MAIN_PLAN,
    T2_PLAN,
    Y_MAIN_RED,
    Z_MAIN,
    Z_MAIN_SHIFTED,
    ZETA_MAIN,
)
from test_transform import random_csr_plan


def random_word(rng, width, length):
    return BlockSequence(
        width,
        tuple(tuple(rng.randrange(2) for _ in range(width))
              for _ in range(length)))


def test_net_shifts():
    assert net_shifts(MAIN_PLAN) == (0, 0, 1)
    assert net_shifts(T2_PLAN) == (0, 0, -1)
    assert net_shifts(ShiftPlan.identity(3)) == (0, 0, 0)


def test_syndrome():
    assert syndrome(Z_MAIN.padded(5), H_MAIN) == ZETA_MAIN
    zero = BlockSequence.zero(3, 5)
    assert syndrome(zero, H_MAIN) == BlockSequence.zero(2, 5)
    with pytest.raises(ValueError, match="received width 2"):
        syndrome(BlockSequence.zero(2, 5), H_MAIN)


def test_syndrome_invariant_under_shift():
    # the transformed former sees the shifted word the same way the
    # original former sees the raw word
    rng = random.Random(17)
    for _ in range(50):
        z = random_word(rng, 3, 4).padded(5)
        zs = shift_received(z, MAIN_PLAN, 4)
        assert syndrome(zs, H_MAIN_RED) == syndrome(z, H_MAIN)


def test_shift_received():
    assert shift_received(Z_MAIN.padded(5), MAIN_PLAN, 4) == Z_MAIN_SHIFTED
    ident = ShiftPlan.identity(3)
    assert shift_received(Z_MAIN, ident, 4) == Z_MAIN
    with pytest.raises(ValueError, match="shift window needs 5"):
        shift_received(Z_MAIN, MAIN_PLAN, 4)
    with pytest.raises(ValueError, match="plan has 3 columns"):
        shift_received(BlockSequence.zero(2, 5), MAIN_PLAN, 4)


def test_shift_code():
    # codewords move exactly as received data does
    y = parse_blocks("000 001 101 110 000")
    assert format_blocks(shift_received(y, MAIN_PLAN, 4)) == "000 000 101 111 000"
    zero = BlockSequence.zero(3, 5)
    assert shift_received(zero, MAIN_PLAN, 4) == zero


def test_shift_round_trip():
    rng = random.Random(29)
    for _ in range(100):
        plan = random_csr_plan(rng, 3)
        n_real = rng.randrange(2, 6)
        need = n_real + max(abs(s) for s in net_shifts(plan)) + rng.randrange(3)
        z = random_word(rng, 3, need)
        shifted = shift_received(z, plan, n_real)
        assert shift_received(shifted, plan.inverted(), n_real) == z
    assert shift_received(Z_MAIN_SHIFTED, MAIN_PLAN.inverted(), 4) \
        == Z_MAIN.padded(5)


def test_boundary_masks():
    assert boundary_masks(MAIN_PLAN, 4) == MAIN_MASKS
    assert boundary_masks(ShiftPlan.identity(3), 4) == {}


def test_boundary_masks_longer_horizon():
    got = boundary_masks(MAIN_PLAN, 4, horizon=8)
    assert got == {
        1: frozenset({3}),
        5: frozenset({1, 2}),
        6: frozenset({1, 2, 3}),
        7: frozenset({1, 2, 3}),
        8: frozenset({1, 2, 3}),
    }


def test_boundary_masks_advance():
    # a backward net shift wraps the tail instead of the head
    plan = make_type2_plan(3, (0, 0, 1))
    assert boundary_masks(plan, 4) == {4: frozenset({3}), 5: frozenset({1, 2})}


def test_reconstruct_code_paths():
    got = reconstruct_code_paths(Z_MAIN_SHIFTED, E_MAIN_RED)
    assert tuple(got) == Y_MAIN_RED
    only_z = reconstruct_code_paths(Z_MAIN_SHIFTED, (Z_MAIN_SHIFTED,))
    assert only_z == [BlockSequence.zero(3, 5)]
    with pytest.raises(ValueError):
        reconstruct_code_paths(Z_MAIN_SHIFTED, (BlockSequence.zero(2, 5),))


def test_verify_main_pair():
    rep = verify_simultaneous_reduction(MAIN_PAIR, MAIN_PLAN, Z_MAIN, 4)
    assert rep.passed
    assert rep.mismatch == ()
    assert rep.window == 5
    assert rep.z_shifted == Z_MAIN_SHIFTED
    assert rep.shifted_syndrome == ZETA_MAIN
    assert rep.masks == MAIN_MASKS
    assert rep.error_paths == E_MAIN_RED
    assert rep.code_paths == Y_MAIN_RED
    assert rep.reconstructed == Y_MAIN_RED
    assert (rep.code_states_before, rep.code_states_after) == (4, 2)
    assert (rep.error_states_before, rep.error_states_after) == (4, 2)


def test_verify_identity_plan():
    rep = verify_simultaneous_reduction(
        MAIN_PAIR, ShiftPlan.identity(3), Z_MAIN, 4)
    assert rep.passed
    # over the 6-block window the two pad sections are masked whole
    assert rep.masks == {5: frozenset({1, 2, 3}), 6: frozenset({1, 2, 3})}
    assert rep.code_states_after == rep.code_states_before


def test_verify_chain_pair_both_orders():
    rng = random.Random(41)
    for plan in (CHAIN_T1, CHAIN_T2):
        for _ in range(3):
            z = random_word(rng, 3, 4)
            rep = verify_simultaneous_reduction(CHAIN_PAIR, plan, z, 4)
            assert rep.passed, format_blocks(z)


def test_verify_equal_counts():
    rep = verify_simultaneous_reduction(MAIN_PAIR, MAIN_PLAN, Z_MAIN, 4)
    assert len(rep.code_paths) == len(rep.error_paths)


def test_verify_input_checks():
    with pytest.raises(ValueError, match="pad block 5 is nonzero"):
        verify_simultaneous_reduction(
            MAIN_PAIR, MAIN_PLAN, parse_blocks("001 000 011 010 100"), 4)
    with pytest.raises(ValueError, match="need 4 real blocks"):
        verify_simultaneous_reduction(
            MAIN_PAIR, MAIN_PLAN, parse_blocks("001 000"), 4)
    with pytest.raises(ValueError, match="received width"):
        verify_simultaneous_reduction(
            MAIN_PAIR, MAIN_PLAN, BlockSequence.zero(2, 4), 4)


def test_verify_syndrome_matches_either_side():
    rep = verify_simultaneous_reduction(MAIN_PAIR, MAIN_PLAN, Z_MAIN, 4)
    assert syndrome(rep.z_padded, H_MAIN) == rep.shifted_syndrome
    assert syndrome(rep.z_shifted, H_MAIN_RED) == rep.shifted_syndrome


def test_verify_code_trellis_respects_masks():
    rep = verify_simultaneous_reduction(MAIN_PAIR, MAIN_PLAN, Z_MAIN, 4)
    for y in rep.code_paths:
        for t, cols in rep.masks.items():
            for j in cols:
                assert y.bit(t, j) == 0
