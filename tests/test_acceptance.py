"""Acceptance suite: one test per advertised behavior, one line per verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

import random

import pytest

from shifttrellis import (
    ShiftPlan,
    apply_plan,
    brute_codewords,
    brute_errors,
    build_code_trellis,
    build_error_trellis,
    enumerate_paths,
    make_type1_plan,
    make_type2_plan,
    mat_mul_transpose,
    matrix,
    memory,
    min_weight_path,
    overall_constraint_length,
    random_feasible_syndrome,
    reciprocal_dual,
    reconstruct_code_paths,
    reduce_rows_equivalent,
    simultaneous_reduce,
    suggest_backward_shift,
    syndrome,
    verify_simultaneous_reduction,
)
from shifttrellis.cli import main

from pairs import (
    ALL_PAIRS,
    CHAIN_PAIR,
    CHAIN_T1,
    CHAIN_T2,
    E_MAIN_RED,
    G_CHAIN_RED,
    G_MAIN_RED,
    G_T2_RED,
    H_BACK,
    H_BACK_COLSHIFT,
    H_BACK_DUAL,
    H_BACK_RED,
    H_CHAIN_RED,
    H_MAIN_RED,
    H_T2_RED,
    H_T2_SCALED,
    MAIN_PAIR,
    MAIN_PLAN,
    T2_PAIR,
    T2_PLAN,
    Y_MAIN_RED,
    Z_MAIN,
    Z_MAIN_SHIFTED,
    ZETA_MAIN,
    blocks,
)
from test_transform import random_csr_plan


def test_criterion_1_dual_side_pipeline():
    assert reciprocal_dual(H_BACK) == H_BACK_DUAL
    assert suggest_backward_shift(H_BACK) == (0, 0, 2)
    shifted = matrix(
        [[e if j != 3 else e << 2
          for j, e in enumerate(H_BACK.row(i), 1)]
         for i in (1, 2)])
    assert shifted == H_BACK_COLSHIFT
    reduced, exps = reduce_rows_equivalent(shifted)
    assert reduced == H_BACK_RED
    assert exps == (2, 0)
    assert overall_constraint_length(H_BACK) == 4
    assert overall_constraint_length(H_BACK_RED) == 2
    print("criterion 1: PASS  dual-side pipeline, state dimension 4 -> 2")


def test_criterion_2_single_step_transforms():
    out = apply_plan(MAIN_PAIR, MAIN_PLAN)
    assert out.G == G_MAIN_RED and out.H == H_MAIN_RED
    out2 = apply_plan(T2_PAIR, T2_PLAN)
    assert out2.G == G_T2_RED and out2.H == H_T2_SCALED
    assert reduce_rows_equivalent(out2.H)[0] == H_T2_RED
    print("criterion 2: PASS  type-1 and type-2 transforms hit their targets")


def test_criterion_3_two_step_chain_either_route():
    a = simultaneous_reduce(CHAIN_PAIR, CHAIN_T1)
    a = simultaneous_reduce(a.transformed_pair, CHAIN_T2)
    assert a.transformed_pair.G == G_CHAIN_RED
    assert a.transformed_pair.H == H_CHAIN_RED

    b = simultaneous_reduce(CHAIN_PAIR, make_type2_plan(3, (0, 0, 3)))
    b = simultaneous_reduce(b.transformed_pair,
                            make_type1_plan(3, 1, (2,), (1, 3)))
    assert b.transformed_pair == a.transformed_pair

    assert overall_constraint_length(CHAIN_PAIR.G) == 5
    assert overall_constraint_length(a.transformed_pair.G) == 2
    assert overall_constraint_length(a.transformed_pair.H) == 2
    print("criterion 3: PASS  both reduction routes agree, nu 5 -> 2")


def test_criterion_4_end_to_end_verify():
    rep = verify_simultaneous_reduction(MAIN_PAIR, MAIN_PLAN, Z_MAIN, 4)
    assert rep.shifted_syndrome == ZETA_MAIN
    assert syndrome(rep.z_padded, MAIN_PAIR.H) == ZETA_MAIN
    assert rep.z_shifted == Z_MAIN_SHIFTED
    assert rep.error_paths == tuple(e.bits for e in E_MAIN_RED)
    assert tuple(reconstruct_code_paths(rep.z_shifted, E_MAIN_RED)) \
        == Y_MAIN_RED
    assert rep.code_paths == tuple(y.bits for y in Y_MAIN_RED)
    assert rep.passed
    red = rep.reduction
    assert (1 << red.nu_before, 1 << red.nu_after) == (4, 2)
    assert (1 << red.nu_before_dual, 1 << red.nu_after_dual) == (4, 2)
    print("criterion 4: PASS  end-to-end verify, four paths each side, "
          "states 4 -> 2")


def test_criterion_5_plan_property_suite():
    rng = random.Random(20260822)
    legal = 0
    for pair in (MAIN_PAIR, T2_PAIR, CHAIN_PAIR):
        for _ in range(200):
            plan = random_csr_plan(rng, pair.n)
            try:
                out = apply_plan(pair, plan)
            except ValueError:
                continue
            assert not any(mat_mul_transpose(out.G, out.H).entries)
            legal += 1
    assert legal >= 100

    rejected = 0
    while rejected < 100:
        g_div, g_mul, h_div, h_mul = vecs = [
            tuple(rng.randrange(4) for _ in range(3)) for _ in range(4)]
        net = {g_div[j] + h_div[j] - g_mul[j] - h_mul[j] for j in range(3)}
        if len(net) == 1:
            continue
        with pytest.raises(ValueError, match="C_SR violated"):
            ShiftPlan.from_parts(*vecs)
        rejected += 1
    print(f"criterion 5: PASS  {legal} legal plans keep G'*H'^T = 0, "
          f"{rejected} non-C_SR plans rejected")


def test_criterion_6_oracle_equivalence():
    checked = 0
    for pair in ALL_PAIRS:
        mem = memory(pair.G)
        for n in range(3, 7):
            if n < mem:
                with pytest.raises(ValueError, match="horizon too short"):
                    build_code_trellis(pair.G, n)
                with pytest.raises(ValueError, match="horizon too short"):
                    brute_codewords(pair.G, n)
                continue
            trellis = enumerate_paths(build_code_trellis(pair.G, n))
            assert set(trellis) == set(brute_codewords(pair.G, n))
            checked += 1

    rng = random.Random(6)
    trials = 0
    for pair in ALL_PAIRS:
        for _ in range(20):
            zeta = random_feasible_syndrome(pair.H, 4, rng)
            t_paths = enumerate_paths(build_error_trellis(pair.H, zeta))
            assert set(t_paths) == set(brute_errors(pair.H, zeta))
            assert t_paths
            trials += 1
    print(f"criterion 6: PASS  {checked} codeword horizons and {trials} "
          f"random syndromes agree with brute force")


def test_criterion_7_min_weight_decoding():
    trellis = build_error_trellis(
        H_MAIN_RED, ZETA_MAIN, n_real=5,
        masks=blocks("001 000 000 000 110"))
    e_hat, weight = min_weight_path(trellis)
    assert e_hat == blocks("000 100 000 100 000")
    assert weight == 2
    print("criterion 7: PASS  min-weight path 000 100 000 100 000, weight 2")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    def put(name, text):
        p = tmp_path / name
        p.write_text(text + "\n")
        return str(p)

    g = put("G.txt", "D+D^2,D^2,1+D")
    h = put("H.txt", "1,0,D;D,1+D,0")
    gc = put("Gc.txt", "1+D+D^2,D,D^4+D^5")
    hc = put("Hc.txt", "D^3,D^2,1;D,1+D+D^2,0")
    plan = put("plan.txt", "1 0 0 0\n1 0 0 0\n0 0 1 0")
    cplan = put("cplan.txt", "0 0 1 0\n1 0 0 0\n3 0 0 2")
    z = put("z.txt", "001 000 011 010")
    zeta = put("zeta.txt", "00 10 01 10 01")
    report = str(tmp_path / "report.txt")

    calls = [
        ("check-gh", g, h),
        ("check-gh", g, h, "--format", "json"),
        ("suggest", gc, hc),
        ("transform", g, h, "--plan", plan),
        ("reduce", gc, hc, "--plan", cplan, "--format", "json"),
        ("code-trellis", g, "--n-blocks", "4", "--format", "dot"),
        ("error-trellis", h, zeta),
        ("decode", h, z),
        ("verify", g, h, z, "--plan", plan),
        ("oracle", g, h, "--trials", "5", "--seed", "3"),
        ("reduce", gc, hc, "--plan", cplan, "--out", report),
    ]

    def transcript():
        chunks = []
        for call in calls:
            rc = main(list(call))
            cap = capsys.readouterr()
            chunks.append((call[0], rc, cap.out, cap.err))
        with open(report, "rb") as f:
            chunks.append(("report-file", f.read()))
        return chunks

    first, second = transcript(), transcript()
    assert first == second
    assert all(rc == 0 for _, rc, *_ in first[:-1])
    print(f"criterion 8: PASS  {len(calls)} CLI invocations byte-identical "
          f"across two runs")
