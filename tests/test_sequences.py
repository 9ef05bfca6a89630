import random

import pytest

from shifttrellis import (
    BlockSequence,
    GHPair,
    ShiftPlan,
    boundary_masks,
    format_blocks,
    make_type1_plan,
    make_type2_plan,
    parse_blocks,
    parse_matrix,
    parse_plan,
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
    blocks,
    from_bit_tuples,
    pair,
)
from test_transform import random_csr_plan


def random_word(rng, width, length):
    return from_bit_tuples(
        width,
        [[rng.randrange(2) for _ in range(width)] for _ in range(length)])


def test_net_shifts():
    assert MAIN_PLAN.shifts == (0, 0, 1)
    assert T2_PLAN.shifts == (0, 0, -1)
    assert ShiftPlan.identity(3).shifts == (0, 0, 0)


def test_syndrome():
    assert syndrome(Z_MAIN.padded(5), H_MAIN) == ZETA_MAIN
    zero = BlockSequence(3, 5, 0)
    assert syndrome(zero, H_MAIN) == BlockSequence(2, 5, 0)
    with pytest.raises(ValueError, match="received width 2"):
        syndrome(BlockSequence(2, 5, 0), H_MAIN)


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
        shift_received(BlockSequence(2, 5, 0), MAIN_PLAN, 4)


def test_shift_code():
    # codewords move exactly as received data does
    y = parse_blocks("000 001 101 110 000")
    assert format_blocks(shift_received(y, MAIN_PLAN, 4)) == "000 000 101 111 000"
    zero = BlockSequence(3, 5, 0)
    assert shift_received(zero, MAIN_PLAN, 4) == zero


def test_shift_round_trip():
    rng = random.Random(29)
    for _ in range(100):
        plan = random_csr_plan(rng, 3)
        n_real = rng.randrange(2, 6)
        need = n_real + max(abs(s) for s in plan.shifts) + rng.randrange(3)
        z = random_word(rng, 3, need)
        shifted = shift_received(z, plan, n_real)
        assert shift_received(shifted, plan.inverted(), n_real) == z
    assert shift_received(Z_MAIN_SHIFTED, MAIN_PLAN.inverted(), 4) \
        == Z_MAIN.padded(5)


def test_boundary_masks():
    assert boundary_masks(MAIN_PLAN, 4) == MAIN_MASKS
    assert boundary_masks(ShiftPlan.identity(3), 4) == BlockSequence(3, 4, 0)


def test_boundary_masks_longer_horizon():
    got = boundary_masks(MAIN_PLAN, 4, horizon=8)
    assert got == blocks("001 000 000 000 110 111 111 111")


def test_boundary_masks_advance():
    # a backward net shift wraps the tail instead of the head
    plan = make_type2_plan(3, (0, 0, 1))
    assert boundary_masks(plan, 4) == blocks("000 000 000 001 110")


def reference_source(p, s, n_real):
    """The 0-based position that window position p of a column shifted by
    s reads: cyclic within the first n_real + |s| blocks, fixed after."""
    mod = n_real + abs(s)
    return (p - s) % mod if p < mod else p


def test_shifts_match_per_position_reference():
    """shift_received and boundary_masks rotate whole columns; the earlier
    per-bit loops over reference_source give the same results, also for
    n_real 0, horizons below n_real and sequences longer than the window."""
    rng = random.Random(31)
    for _ in range(300):
        plan = random_csr_plan(rng, 3)
        n_real = rng.randrange(7)
        horizon = rng.randrange(15)
        assert boundary_masks(plan, n_real, horizon) == from_bit_tuples(3, [
            [int(reference_source(p, s, n_real) >= n_real)
             for s in plan.shifts] for p in range(horizon)])
        need = n_real + max(abs(s) for s in plan.shifts) + rng.randrange(3)
        z = random_word(rng, 3, need)
        assert shift_received(z, plan, n_real) == from_bit_tuples(3, [
            [z.bit(reference_source(p, s, n_real) + 1, j)
             for j, s in enumerate(plan.shifts, 1)] for p in range(need)])


def test_reconstruct_code_paths():
    got = reconstruct_code_paths(Z_MAIN_SHIFTED, E_MAIN_RED)
    assert tuple(got) == Y_MAIN_RED
    only_z = reconstruct_code_paths(Z_MAIN_SHIFTED, (Z_MAIN_SHIFTED,))
    assert only_z == [BlockSequence(3, 5, 0)]
    with pytest.raises(ValueError):
        reconstruct_code_paths(Z_MAIN_SHIFTED, (BlockSequence(2, 5, 0),))


def test_verify_main_pair():
    rep = verify_simultaneous_reduction(MAIN_PAIR, MAIN_PLAN, Z_MAIN, 4)
    assert rep.passed
    assert rep.mismatch == ()
    assert rep.window == 5
    assert rep.z_shifted == Z_MAIN_SHIFTED
    assert rep.shifted_syndrome == ZETA_MAIN
    assert rep.masks == MAIN_MASKS
    # the listings are the packed ints of the paths
    assert rep.error_paths == tuple(e.bits for e in E_MAIN_RED)
    assert rep.code_paths == tuple(y.bits for y in Y_MAIN_RED)
    red = rep.reduction
    assert (red.nu_before, red.nu_after) == (2, 1)
    assert (red.nu_before_dual, red.nu_after_dual) == (2, 1)


def test_verify_fail_rebuilds_the_reconstruction():
    # G' generates only a subcode of the code of H' (the golden "subcode"
    # fixture): 8 code paths against 16 error paths
    sub = pair("D,D+D^2,0,0;0,0,D,0;0,D+D^2,0,D", "1+D,1,0,1+D")
    plan = parse_plan("1 1 0 0\n1 0 0 1\n1 1 0 0\n1 1 0 0")
    rep = verify_simultaneous_reduction(sub, plan, parse_blocks("0000 0000"), 2)
    assert not rep.passed
    assert len(rep.code_paths) == 8
    # z' is zero, so the reconstruction is the 16 error paths themselves
    recon = reconstruct_code_paths(rep.z_shifted, [
        BlockSequence(4, rep.window, e) for e in rep.error_paths])
    assert len(recon) == 16
    assert tuple(y.bits for y in recon) == rep.error_paths
    assert rep.mismatch == tuple(
        blocks(f"{a} {b} 0000 0000").bits for a in ("1001", "1011")
        for b in ("0000", "0010", "1001", "1011"))


def test_verify_identity_plan():
    rep = verify_simultaneous_reduction(
        MAIN_PAIR, ShiftPlan.identity(3), Z_MAIN, 4)
    assert rep.passed
    # over the 6-block window the two pad sections are masked whole
    assert rep.masks == blocks("000 000 000 000 111 111")
    assert rep.reduction.nu_after == rep.reduction.nu_before


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
            MAIN_PAIR, MAIN_PLAN, BlockSequence(2, 4, 0), 4)


def test_negative_n_real_is_refused_by_name():
    # Without the checks the first two failed as "negative shift count" in
    # the cyclic shift and verify blamed pad block 1.
    with pytest.raises(ValueError, match=r"^negative n_real -1$"):
        shift_received(Z_MAIN, MAIN_PLAN, -1)
    with pytest.raises(ValueError, match=r"^negative n_real -2$"):
        boundary_masks(MAIN_PLAN, -2)
    with pytest.raises(ValueError, match=r"^negative n_real -1$"):
        verify_simultaneous_reduction(MAIN_PAIR, MAIN_PLAN, Z_MAIN, -1)


def test_verify_syndrome_matches_either_side():
    rep = verify_simultaneous_reduction(MAIN_PAIR, MAIN_PLAN, Z_MAIN, 4)
    assert syndrome(rep.z_padded, H_MAIN) == rep.shifted_syndrome
    assert syndrome(rep.z_shifted, H_MAIN_RED) == rep.shifted_syndrome


def test_verify_code_trellis_respects_masks():
    rep = verify_simultaneous_reduction(MAIN_PAIR, MAIN_PLAN, Z_MAIN, 4)
    assert rep.masks.weight == 3
    for y in rep.code_paths:
        assert not y & rep.masks.bits


def test_verify_window_drains_the_shifted_syndrome():
    # Column 1 moves one block later and column 1 of H' has degree 3, so
    # the syndrome of the shifted data needs 1 + 1 + 3 blocks; a window of
    # n_real + max(memory, shift) = 4 cut it short and the reduced error
    # trellis lost every path.
    pair = GHPair(parse_matrix("1,D,D^2+D^3+D^4"),
                  parse_matrix("D,1,0;D^2+D^3+D^4,0,1"))
    plan = make_type1_plan(3, 1, (2, 3), (1,))
    rep = verify_simultaneous_reduction(pair, plan, parse_blocks("100"), 1)
    assert rep.window == 5
    assert rep.passed
    assert rep.error_paths == (rep.z_shifted.bits,)


def test_verify_window_keeps_every_input_free():
    # G' = 1,0,0;0,1,1+D: the input of the short row must stay free until
    # the shifted column 1 ends, past the point where the trellis stops
    # the inputs of a memory-1 encoder over n_real + 1 blocks.
    pair = GHPair(parse_matrix("D,0,0;0,D,D+D^2"), parse_matrix("0,1+D,1"))
    plan = make_type1_plan(3, 1, (2, 3), (1,))
    rep = verify_simultaneous_reduction(pair, plan, BlockSequence(3, 2, 0), 2)
    assert rep.window == 4
    assert rep.passed
    assert len(rep.code_paths) == len(rep.error_paths) == 8
