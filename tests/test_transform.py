import random

import pytest

from shifttrellis import (
    GHPair,
    ShiftPlan,
    apply_plan,
    compose_plans,
    csr_constant,
    format_plan,
    make_type1_plan,
    make_type2_plan,
    mat_mul_transpose,
    overall_constraint_length,
    parse_plan,
    reduce_rows_equivalent,
    search_reduction_plan,
    simultaneous_reduce,
    suggest_backward_shift,
)

import pairs
from pairs import (
    CHAIN_PAIR,
    CHAIN_T1,
    CHAIN_T2,
    G_CHAIN_RED,
    G_MAIN_RED,
    G_T2_RED,
    H_BACK,
    H_BACK_COLSHIFT,
    H_BACK_RED,
    H_CHAIN_RED,
    H_MAIN_RED,
    H_T2_RED,
    H_T2_SCALED,
    MAIN_PAIR,
    MAIN_PLAN,
    T2_PAIR,
    T2_PLAN,
)


def random_csr_plan(rng, n, bound=3):
    """Rejection-sample a plan whose net exponent is column independent."""
    while True:
        l = rng.randrange(-bound, bound + 1)
        cols = []
        for _ in range(n):
            for _ in range(50):
                gd, gm, hm = (rng.randrange(bound + 1) for _ in range(3))
                hd = l - gd + gm + hm
                if 0 <= hd <= bound:
                    cols.append((gd, gm, hd, hm))
                    break
            else:
                break
        if len(cols) == n:
            return ShiftPlan(*map(tuple, zip(*cols)))


def test_plan_validation():
    with pytest.raises(ValueError, match="negative"):
        ShiftPlan((0, -1), (0, 0), (0, 0), (0, 0))
    with pytest.raises(ValueError, match="length"):
        ShiftPlan((0,), (0, 0), (0, 0), (0, 0))
    assert ShiftPlan.identity(3).n == 3


def test_plan_parse_format():
    plan = parse_plan("1 0 0 0\n1 0 0 0\n0 0 1 0")
    assert plan == MAIN_PLAN
    assert parse_plan(format_plan(plan)) == plan
    with pytest.raises(ValueError, match="line 2"):
        parse_plan("1 0 0 0\n1 0 0")
    with pytest.raises(ValueError):
        parse_plan("")


def test_plan_inverted():
    inv = MAIN_PLAN.inverted()
    assert inv.g_div == MAIN_PLAN.g_mul and inv.g_mul == MAIN_PLAN.g_div
    assert inv.h_div == MAIN_PLAN.h_mul and inv.h_mul == MAIN_PLAN.h_div
    assert inv.inverted() == MAIN_PLAN


def test_csr_constant():
    assert csr_constant(MAIN_PLAN) == 1
    assert csr_constant(T2_PLAN) == 0
    assert csr_constant(ShiftPlan.identity(4)) == 0
    with pytest.raises(ValueError, match=r"columns \[2, 3\]"):
        csr_constant(ShiftPlan((1, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)))


def test_make_type1_plan():
    plan = make_type1_plan(3, 1, (1, 2), (3,))
    assert plan.g_div == (1, 1, 0) and plan.h_div == (0, 0, 1)
    assert plan.g_mul == (0, 0, 0) and plan.h_mul == (0, 0, 0)
    assert csr_constant(plan) == 1
    with pytest.raises(ValueError, match="partition"):
        make_type1_plan(3, 1, (1, 2), (2, 3))
    with pytest.raises(ValueError, match="partition"):
        make_type1_plan(3, 1, (1,), (3,))
    with pytest.raises(ValueError, match="negative"):
        make_type1_plan(3, -1, (1, 2), (3,))


def test_make_type2_plan():
    plan = make_type2_plan(3, (0, 0, 2))
    assert plan.g_div == (0, 0, 2) and plan.h_mul == (0, 0, 2)
    assert plan.g_mul == (0, 0, 0) and plan.h_div == (0, 0, 0)
    assert csr_constant(plan) == 0
    with pytest.raises(ValueError, match="expected 3"):
        make_type2_plan(3, (1, 0))


def test_apply_plan_type1():
    out = apply_plan(MAIN_PAIR, MAIN_PLAN)
    assert out.G == G_MAIN_RED
    assert out.H == H_MAIN_RED


def test_apply_plan_type2():
    out = apply_plan(T2_PAIR, T2_PLAN)
    assert out.G == G_T2_RED
    assert out.H == H_T2_SCALED


def test_apply_plan_identity():
    out = apply_plan(MAIN_PAIR, ShiftPlan.identity(3))
    assert out == MAIN_PAIR


def test_apply_plan_illegal_division():
    # column 3 of the generator has no D factor to strip
    bad = make_type2_plan(3, (0, 0, 1))
    with pytest.raises(ValueError, match="G column 3"):
        apply_plan(MAIN_PAIR, bad)


def test_apply_plan_checks_csr_first():
    broken = ShiftPlan((0, 0, 9), (0, 0, 0), (0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError, match="C_SR violated"):
        apply_plan(MAIN_PAIR, broken)


def test_apply_plan_size_mismatch():
    with pytest.raises(ValueError, match="columns"):
        apply_plan(MAIN_PAIR, ShiftPlan.identity(4))


def test_reduce_rows_equivalent():
    red, exps = reduce_rows_equivalent(H_BACK_COLSHIFT)
    assert red == H_BACK_RED
    assert exps == (2, 0)
    same, exps = reduce_rows_equivalent(H_MAIN_RED)
    assert same == H_MAIN_RED and exps == (0, 0)


def test_suggest_backward_shift():
    assert suggest_backward_shift(H_BACK) == (0, 0, 2)
    assert suggest_backward_shift(pairs.H_CHAIN) == (0, 0, 3)
    assert suggest_backward_shift(H_MAIN_RED) == (0, 0, 0)


def test_simultaneous_reduce_type2():
    rep = simultaneous_reduce(T2_PAIR, T2_PLAN)
    assert rep.transformed_pair.G == G_T2_RED
    assert rep.transformed_pair.H == H_T2_RED
    assert rep.row_divisions_applied == {"G": (0,), "H": (1, 0)}
    assert (rep.nu_before, rep.nu_after) == (2, 1)
    assert (rep.nu_before_dual, rep.nu_after_dual) == (2, 1)
    assert rep.reduced


def test_chain_both_orders():
    first = simultaneous_reduce(CHAIN_PAIR, CHAIN_T1)
    done = simultaneous_reduce(first.transformed_pair, CHAIN_T2)
    assert done.transformed_pair.G == G_CHAIN_RED
    assert done.transformed_pair.H == H_CHAIN_RED

    other = simultaneous_reduce(CHAIN_PAIR, CHAIN_T2)
    done2 = simultaneous_reduce(other.transformed_pair, CHAIN_T1)
    assert done2.transformed_pair == done.transformed_pair

    assert overall_constraint_length(CHAIN_PAIR.G) == 5
    assert overall_constraint_length(done.transformed_pair.G) == 2
    assert overall_constraint_length(done.transformed_pair.H) == 2


def test_primal_and_dual_drop_together():
    for pair, plan in ((MAIN_PAIR, MAIN_PLAN), (T2_PAIR, T2_PLAN)):
        rep = simultaneous_reduce(pair, plan)
        assert rep.reduced
        assert rep.nu_after_dual <= rep.nu_before_dual


def test_identity_reduce_report():
    rep = simultaneous_reduce(MAIN_PAIR, ShiftPlan.identity(3))
    assert not rep.reduced
    assert rep.nu_before == rep.nu_after == 2
    assert rep.transformed_pair == MAIN_PAIR


def test_compose_plans():
    comp = compose_plans(CHAIN_T1, CHAIN_T2)
    assert comp.g_div == (0, 1, 3)
    assert comp.g_mul == (0, 0, 0)
    assert comp.h_div == (1, 0, 0)
    assert comp.h_mul == (0, 0, 2)
    assert compose_plans(CHAIN_T2, CHAIN_T1) == comp
    ident = ShiftPlan.identity(3)
    assert compose_plans(comp, ident) == comp
    with pytest.raises(ValueError, match="sizes differ"):
        compose_plans(ident, ShiftPlan.identity(2))


def test_composed_chain_plan_applies_in_one_step():
    comp = compose_plans(CHAIN_T1, CHAIN_T2)
    rep = simultaneous_reduce(CHAIN_PAIR, comp)
    assert rep.transformed_pair == GHPair(G_CHAIN_RED, H_CHAIN_RED)


def test_search_reduction_plan():
    rep = search_reduction_plan(CHAIN_PAIR)
    assert rep.reduced
    assert rep.nu_after <= 2
    # identity is in the candidate set, so an already-reduced pair stays put
    rep2 = search_reduction_plan(GHPair(G_MAIN_RED, H_MAIN_RED))
    assert not rep2.reduced
    assert rep2.plan == ShiftPlan.identity(3)


def test_random_csr_plans_preserve_product_zero():
    rng = random.Random(2026)
    legal = 0
    for pair in (MAIN_PAIR, T2_PAIR, CHAIN_PAIR):
        for _ in range(400):
            plan = random_csr_plan(rng, pair.n)
            try:
                out = apply_plan(pair, plan)
            except ValueError:
                continue
            prod = mat_mul_transpose(out.G, out.H)
            assert not any(prod.entries)
            legal += 1
    assert legal >= 100


def test_random_legal_plans_invert():
    rng = random.Random(99)
    done = 0
    while done < 60:
        plan = random_csr_plan(rng, 3)
        try:
            out = apply_plan(MAIN_PAIR, plan)
        except ValueError:
            continue
        assert apply_plan(out, plan.inverted()) == MAIN_PAIR
        done += 1


def test_non_csr_plans_rejected():
    rng = random.Random(4)
    rejected = 0
    while rejected < 120:
        vecs = [tuple(rng.randrange(4) for _ in range(3)) for _ in range(4)]
        plan = ShiftPlan(*vecs)
        net = [plan.g_div[j] + plan.h_div[j] - plan.g_mul[j] - plan.h_mul[j]
               for j in range(3)]
        if len(set(net)) == 1:
            continue
        with pytest.raises(ValueError, match="C_SR violated"):
            apply_plan(MAIN_PAIR, plan)
        rejected += 1


def test_exponent_vector():
    assert MAIN_PLAN.exponent_vector() == (1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0)


def test_simultaneous_reduce_forms_the_product_once(monkeypatch):
    import shifttrellis.gf2poly as gf2poly
    calls = []
    real = gf2poly.mat_mul_transpose

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(gf2poly, "mat_mul_transpose", counted)
    rep = simultaneous_reduce(CHAIN_PAIR, compose_plans(CHAIN_T1, CHAIN_T2))
    assert rep.reduced
    assert calls == [(G_CHAIN_RED, H_CHAIN_RED)]


def test_broken_result_is_not_swallowed_by_search(monkeypatch):
    # a failed final pair check is an internal fault, so the search, which
    # skips plans that raise ValueError, must let it through
    import shifttrellis.gf2poly as gf2poly
    monkeypatch.setattr(gf2poly, "full_row_rank", lambda M: False)
    with pytest.raises(RuntimeError,
                       match="GH relation broken: G is not full row rank"):
        search_reduction_plan(MAIN_PAIR)
