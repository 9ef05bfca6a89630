import pytest

from shifttrellis import (
    BlockSequence,
    build_code_trellis,
    build_error_trellis,
    enumerate_paths,
    format_blocks,
    memory,
    min_weight_path,
    parse_blocks,
    overall_constraint_length,
    parse_matrix,
    syndrome,
    trellis_dot,
)

from pairs import (
    ALL_PAIRS,
    E_MAIN_RAW,
    G_MAIN,
    H_BACK_COLSHIFT,
    H_MAIN,
    MAIN_PAIR,
    Z_MAIN,
    ZETA_MAIN,
)


def test_code_trellis_shape():
    t = build_code_trellis(G_MAIN, 4)
    assert t.n == 3
    assert t.horizon == 4
    assert t.state_bits == overall_constraint_length(G_MAIN) == 2
    assert t.state_count == 4
    assert t.feasible


def test_code_trellis_path_count():
    # k free info bits per section until the flush tail takes over
    for pair in ALL_PAIRS:
        k = pair.G.rows
        mem = memory(pair.G)
        for horizon in range(mem, 7):
            t = build_code_trellis(pair.G, horizon)
            assert len(enumerate_paths(t)) == 1 << (k * (horizon - mem))


def test_code_trellis_too_short():
    with pytest.raises(ValueError, match="horizon too short"):
        build_code_trellis(G_MAIN, 1)


def test_code_paths_are_codewords():
    for pair in ALL_PAIRS:
        t = build_code_trellis(pair.G, 6)
        for y in enumerate_paths(t):
            assert syndrome(y, pair.H).weight == 0


def test_code_paths_terminate_at_zero_state():
    t = build_code_trellis(G_MAIN, 5)
    assert {b.to_state for b in t.sections[-1]} == {0}


def test_memoryless_code_trellis():
    t = build_code_trellis(parse_matrix("1,1"), 2)
    assert t.state_bits == 0
    got = sorted(format_blocks(p) for p in enumerate_paths(t))
    assert got == ["00 00", "00 11", "11 00", "11 11"]


def test_error_trellis_shape():
    t = build_error_trellis(H_MAIN, ZETA_MAIN)
    assert t.n == 3
    assert t.horizon == 5
    assert t.state_bits == overall_constraint_length(H_MAIN) == 2
    assert t.feasible


def test_error_trellis_paths():
    t = build_error_trellis(H_MAIN, ZETA_MAIN)
    assert tuple(enumerate_paths(t)) == E_MAIN_RAW


def test_error_paths_reproduce_syndrome():
    t = build_error_trellis(H_MAIN, ZETA_MAIN)
    for e in enumerate_paths(t):
        assert syndrome(e, H_MAIN) == ZETA_MAIN


def test_error_trellis_zero_syndrome_is_code_set():
    # the kernel of the former is exactly the code, horizon-for-horizon
    for pair in ALL_PAIRS:
        horizon = 4 + memory(pair.G)
        zeta = BlockSequence.zero(pair.H.rows, horizon)
        # leave every section free: the former must end in the zero state,
        # which pins the admissible set to sequences whose syndrome stays
        # zero past the horizon too, i.e. the code itself
        errs = enumerate_paths(
            build_error_trellis(pair.H, zeta, n_real=horizon))
        code = enumerate_paths(build_code_trellis(pair.G, horizon))
        assert {e.blocks for e in errs} == {y.blocks for y in code}


def test_error_trellis_width_mismatch():
    with pytest.raises(ValueError, match="syndrome width 3, expected 2"):
        build_error_trellis(H_MAIN, Z_MAIN)


def test_error_trellis_horizon_shorter_than_flush():
    zeta = BlockSequence.zero(2, 2)
    with pytest.raises(ValueError, match="flush alone needs 3"):
        build_error_trellis(parse_matrix("D^3,D^2,1;D,1+D+D^2,0"), zeta)


def test_infeasible_syndrome():
    # first check row of this former is entirely delayed, so a syndrome
    # firing it at t=1 cannot come from any error sequence
    zeta = parse_blocks("10 00 00 00 00 00", width=2)
    t = build_error_trellis(H_BACK_COLSHIFT, zeta)
    assert not t.feasible
    assert enumerate_paths(t) == []
    ok = build_error_trellis(H_BACK_COLSHIFT, parse_blocks("01 00 00 00 00 00"))
    assert ok.feasible
    assert len(enumerate_paths(ok)) == 4


def test_code_trellis_masks():
    base = build_code_trellis(G_MAIN, 5)
    masked = build_code_trellis(G_MAIN, 5, masks={1: {3}, 5: {1, 2}})
    kept = enumerate_paths(masked)
    assert 0 < len(kept) < len(enumerate_paths(base))
    for y in kept:
        assert y.bit(1, 3) == 0 and y.bit(5, 1) == 0 and y.bit(5, 2) == 0


def test_mask_validation():
    with pytest.raises(ValueError, match="mask section 9"):
        build_code_trellis(G_MAIN, 5, masks={9: {1}})
    with pytest.raises(ValueError, match=r"mask columns \[4\]"):
        build_code_trellis(G_MAIN, 5, masks={1: {4}})


def test_min_weight_path():
    t = build_error_trellis(H_MAIN, ZETA_MAIN)
    e, w = min_weight_path(t)
    assert format_blocks(e) == "000 100 000 100 000"
    assert w == 2


def test_min_weight_zero_syndrome():
    zeta = BlockSequence.zero(2, 5)
    e, w = min_weight_path(build_error_trellis(H_MAIN, zeta))
    assert w == 0
    assert e == BlockSequence.zero(3, 5)


def test_min_weight_no_path():
    zeta = parse_blocks("10 00 00 00 00 00", width=2)
    t = build_error_trellis(H_BACK_COLSHIFT, zeta)
    with pytest.raises(ValueError, match="no admissible path"):
        min_weight_path(t)


def test_branches_unique_per_section():
    for t in (build_code_trellis(G_MAIN, 5),
              build_error_trellis(H_MAIN, ZETA_MAIN)):
        for sec in t.sections:
            assert len(sec) == len(set(sec))


def test_dot_snapshot():
    t = build_code_trellis(parse_matrix("1"), 1)
    assert trellis_dot(t) == (
        'digraph trellis {\n'
        '  rankdir=LR;\n'
        '  "t0/s";\n'
        '  "t1/s";\n'
        '  "t0/s" -> "t1/s" [label="0"];\n'
        '  "t0/s" -> "t1/s" [label="1"];\n'
        '}')


def test_dot_structure():
    t = build_code_trellis(G_MAIN, 3)
    dot = trellis_dot(t)
    assert dot.startswith("digraph trellis {")
    # fresh input occupies the high register cell, printed last
    assert '"t0/s00"' in dot
    assert '"t1/s01"' in dot
    assert dot.count("->") == sum(len(s) for s in t.sections)
