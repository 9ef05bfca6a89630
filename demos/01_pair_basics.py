"""Polynomials, matrices, and what makes a generator/check pair valid."""

from shifttrellis import (
    GHPair,
    check_gh_relation,
    format_matrix,
    format_poly,
    mat_mul_transpose,
    memory,
    overall_constraint_length,
    parse_matrix,
    parse_poly,
    poly_mul,
)

print("== polynomial arithmetic over GF(2)[D] ==")
a = parse_poly("1+D+D^2")
b = parse_poly("D^3+D^4")
print(f"a = {format_poly(a)}")
print(f"b = {format_poly(b)}")
print(f"a + b = {format_poly(a ^ b)}")
print(f"a * b = {format_poly(poly_mul(a, b))}")
print(f"a + a = {format_poly(a ^ a)}   (characteristic 2)")

print()
print("== a rate-1/3 pair ==")
G = parse_matrix("D+D^2,D^2,1+D")
H = parse_matrix("1,0,D;D,1+D,0")
print(f"G = {format_matrix(G)}")
print(f"H = {format_matrix(H)}")

prod = mat_mul_transpose(G, H)
print(f"G*H^T = {format_matrix(prod)}")
print(f"GH relation holds: {check_gh_relation(G, H)}")

pair = GHPair(G, H)
print(f"n = {pair.n}, so every time step carries {pair.n} code bits")
print(f"memory(G) = {memory(G)} blocks of flush after the last info bit")
print(f"nu(G) = {overall_constraint_length(G)}  "
      f"-> encoder trellis has {2 ** overall_constraint_length(G)} states")
print(f"nu(H) = {overall_constraint_length(H)}  "
      f"-> syndrome former has {2 ** overall_constraint_length(H)} states")

print()
print("== what the pair check rejects ==")
H_other = parse_matrix("D,0,1;1,1+D,0")
cross = mat_mul_transpose(G, H_other)
print(f"against an unrelated check matrix: G*H^T = {format_matrix(cross)}")
try:
    GHPair(G, H_other)
except ValueError as exc:
    print(f"GHPair refuses it: {exc}")
