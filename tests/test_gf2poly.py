import random

import pytest

from shifttrellis import (
    GHPair,
    check_gh_relation,
    column_delay,
    degree,
    delay,
    divide_by_power,
    exponents,
    format_matrix,
    format_poly,
    full_row_rank,
    mat_mul_transpose,
    matrix,
    memory,
    overall_constraint_length,
    parse_matrix,
    parse_poly,
    poly_mul,
    reciprocal_dual,
    row_degree,
    row_delay,
)
from shifttrellis.gf2poly import MAX_EXPONENT

from pairs import G_BACK, G_MAIN, H_BACK, H_BACK_COLSHIFT, H_BACK_DUAL, H_MAIN, H_T2


def rand_poly(rng, max_deg=16):
    return rng.getrandbits(max_deg + 1)


def test_parse_format_terms():
    assert parse_poly("0") == 0
    assert parse_poly("1") == 1
    assert parse_poly("D") == 2
    assert parse_poly("D^4") == 16
    assert parse_poly("1+D+D^2") == 7
    assert format_poly(0) == "0"
    assert format_poly(1) == "1"
    assert format_poly(2) == "D"
    assert format_poly(0b11010) == "D+D^3+D^4"


def test_parse_format_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        p = rand_poly(rng)
        assert parse_poly(format_poly(p)) == p


def test_parse_rejects_garbage():
    for bad in ("", "D^", "D^-1", "2", "1+", "x", "D^1.5"):
        with pytest.raises(ValueError):
            parse_poly(bad)


def test_parse_exponent_cap():
    assert parse_poly(f"D^{MAX_EXPONENT}") == 1 << MAX_EXPONENT
    with pytest.raises(ValueError, match=f"exponent {MAX_EXPONENT + 1} "
                                         f"exceeds cap {MAX_EXPONENT}"):
        parse_poly(f"1+D^{MAX_EXPONENT + 1}")


def test_repeated_terms_cancel():
    assert parse_poly("D+D") == 0
    assert parse_poly("1+D+1") == 2


def test_exponents():
    assert exponents(0) == []
    assert exponents(parse_poly("1+D^2+D^5")) == [0, 2, 5]
    rng = random.Random(5)
    for _ in range(200):
        p = rand_poly(rng, 40)
        exps = exponents(p)
        assert sum(1 << d for d in exps) == p
        assert all(a < b for a, b in zip(exps, exps[1:]))


def test_degree():
    assert degree(0) is None
    assert degree(1) == 0
    assert degree(parse_poly("D^3+D^4")) == 4


def test_add_is_xor():
    a = parse_poly("1+D^2")
    b = parse_poly("D+D^2")
    assert a ^ b == parse_poly("1+D")
    assert a ^ a == 0
    assert a ^ 0 == a


def test_mul_examples():
    assert poly_mul(parse_poly("D^2"), parse_poly("1+D+D^2")) == parse_poly("D^2+D^3+D^4")
    assert poly_mul(parse_poly("1+D"), parse_poly("1+D")) == parse_poly("1+D^2")
    assert poly_mul(parse_poly("1+D"), 0) == 0


def test_ring_laws():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert poly_mul(a, b) == poly_mul(b, a)
        assert poly_mul(a, poly_mul(b, c)) == poly_mul(poly_mul(a, b), c)
        assert poly_mul(a, b ^ c) == poly_mul(a, b) ^ poly_mul(a, c)


def test_delay():
    assert delay(1) == 0
    assert delay(parse_poly("D^3+D^4")) == 3
    with pytest.raises(ValueError, match="delay undefined"):
        delay(0)


def test_delay_of_product_adds():
    rng = random.Random(3)
    for _ in range(100):
        a = rand_poly(rng) | 1 << rng.randrange(17)
        b = rand_poly(rng) | 1 << rng.randrange(17)
        assert delay(poly_mul(a, b)) == delay(a) + delay(b)


def test_power_scaling():
    p = parse_poly("D^3+D^4")
    assert divide_by_power(p, 2) == parse_poly("D+D^2")
    assert divide_by_power(p, 3) == parse_poly("1+D")
    assert divide_by_power(0, 5) == 0
    assert parse_poly("1+D") << 2 == parse_poly("D^2+D^3")
    with pytest.raises(ValueError, match="not divisible"):
        divide_by_power(p, 4)


def test_power_scaling_round_trip():
    rng = random.Random(19)
    for _ in range(100):
        p = rand_poly(rng)
        k = rng.randrange(6)
        assert divide_by_power(p << k, k) == p


def test_matrix_parse_format():
    m = parse_matrix("D^2,D^2,1;1,1+D+D^2,0")
    assert m.rows == 2 and m.cols == 3
    assert m.entry(1, 3) == 1
    assert m.entry(2, 2) == parse_poly("1+D+D^2")
    assert parse_matrix(format_matrix(m)) == m


def test_matrix_parse_errors():
    with pytest.raises(ValueError, match="row 2"):
        parse_matrix("1,D;1")
    with pytest.raises(ValueError):
        parse_matrix("")


def test_matrix_entry_bounds():
    with pytest.raises(IndexError):
        G_MAIN.entry(0, 1)
    with pytest.raises(IndexError):
        G_MAIN.entry(1, 4)


def test_column_delay():
    assert column_delay(G_BACK, 3) == 3
    assert column_delay(H_BACK_DUAL, 3) == 2
    assert column_delay(H_BACK, 1) == 0
    # an all-zero column has no delay, like degree(0)
    assert column_delay(matrix([[1, 0], [2, 0]]), 2) is None


def test_row_delay_and_degree():
    assert row_delay(H_BACK_COLSHIFT, 1) == 2
    assert row_delay(H_BACK_COLSHIFT, 2) == 0
    assert row_degree(G_BACK, 1) == 4
    assert row_degree(matrix([[0, 0]]), 1) == 0


def test_constraint_lengths():
    assert overall_constraint_length(G_BACK) == 4
    assert overall_constraint_length(H_MAIN) == 2
    assert memory(G_BACK) == 4
    assert memory(H_MAIN) == 1


def test_constraint_length_ignores_row_order():
    rng = random.Random(23)
    rows = [list(H_BACK.row(i)) for i in (1, 2)]
    for _ in range(10):
        rng.shuffle(rows)
        assert overall_constraint_length(matrix(rows)) == overall_constraint_length(H_BACK)


def test_mat_mul_transpose():
    prod = mat_mul_transpose(G_MAIN, H_MAIN)
    assert prod.rows == 1 and prod.cols == 2
    assert all(prod.entry(1, q) == 0 for q in (1, 2))
    cross = mat_mul_transpose(G_MAIN, H_T2)
    assert cross.entry(1, 1) == parse_poly("1+D+D^2+D^3")
    with pytest.raises(ValueError, match="column counts differ"):
        mat_mul_transpose(G_MAIN, matrix([[1, 2]]))


def test_check_gh_relation():
    assert check_gh_relation(G_MAIN, H_MAIN)
    assert check_gh_relation(G_BACK, H_BACK)
    assert not check_gh_relation(G_MAIN, H_T2)
    # product zero but H loses rank: duplicated check row
    dup = matrix([list(H_MAIN.row(1)), list(H_MAIN.row(1))])
    assert mat_mul_transpose(G_MAIN, dup).entries == (0, 0)
    assert not check_gh_relation(G_MAIN, dup)


def test_check_gh_relation_takes_the_pair_rule():
    # G * H^T = 0 and both ranks are full, but 1 + 1 rows do not make n=3
    g, h = parse_matrix("1,1,0"), parse_matrix("0,0,1")
    assert mat_mul_transpose(g, h).entries == (0,)
    assert full_row_rank(g) and full_row_rank(h)
    assert GHPair.fault(g, h) == "row counts 1+1 do not add up to n=3"
    assert not check_gh_relation(g, h)
    with pytest.raises(ValueError, match="^row counts 1\\+1 do not add up"):
        GHPair(g, h)
    assert GHPair.fault(G_MAIN, parse_matrix("1,1")) == (
        "column counts differ: 3 and 2")
    assert not check_gh_relation(G_MAIN, parse_matrix("1,1"))
    assert GHPair.fault(G_MAIN, H_MAIN) is None


def test_reciprocal_dual():
    assert reciprocal_dual(H_BACK) == H_BACK_DUAL
    assert reciprocal_dual(H_BACK_DUAL) == H_BACK
    consts = matrix([[1, 1, 0], [0, 1, 1]])
    assert reciprocal_dual(consts) == consts
    with pytest.raises(ValueError, match="row 1 is all zero"):
        reciprocal_dual(matrix([[0, 0]]))


def test_reciprocal_dual_is_involution():
    # involution only holds for delay-free rows, so pin a constant term
    rng = random.Random(31)
    for _ in range(50):
        rows = [[rand_poly(rng, 5) | 1] + [rand_poly(rng, 5) for _ in range(2)]
                for _ in range(2)]
        m = matrix(rows)
        assert reciprocal_dual(reciprocal_dual(m)) == m


def test_ghpair_validation():
    GHPair(G_MAIN, H_MAIN)
    with pytest.raises(ValueError, match="is not zero"):
        GHPair(G_MAIN, H_T2)
    with pytest.raises(ValueError):
        GHPair(G_MAIN, matrix([[1, 2]]))
    with pytest.raises(ValueError):
        GHPair(matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), H_MAIN)


def test_ghpair_requires_full_row_rank():
    # G * H^T = 0 and the row counts add up, but G repeats a row
    g, h = parse_matrix("1,1,0;1,1,0"), parse_matrix("1,1,0")
    assert mat_mul_transpose(g, h).entries == (0, 0)
    assert not full_row_rank(g) and full_row_rank(h)
    with pytest.raises(ValueError, match="^G is not full row rank$"):
        GHPair(g, h)
    dup = matrix([list(H_MAIN.row(1)), list(H_MAIN.row(1))])
    with pytest.raises(ValueError, match="^H is not full row rank$"):
        GHPair(G_MAIN, dup)


def test_ghpair_n():
    assert GHPair(G_MAIN, H_MAIN).n == 3
