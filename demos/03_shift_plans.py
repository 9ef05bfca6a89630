"""Shift plans: moving constraint length out of a pair, both matrices at once.

A plan gives column j one signed exponent g_j on G and the constant c,
and H's column gets c - g_j: the net exponent is c in every column, which
is what preserves the pair relation.  Plans print as four exponents per
column (gDiv gMul hDiv hMul); the two stock constructions and their
composition are shown on a pair that reduces from 32 states to 4.
"""

from shifttrellis import (
    GHPair,
    compose_plans,
    format_matrix,
    format_plan,
    make_type1_plan,
    make_type2_plan,
    parse_matrix,
    search_reduction_plan,
    simultaneous_reduce,
)

pair = GHPair(parse_matrix("1+D+D^2,D,D^4+D^5"),
              parse_matrix("D^3,D^2,1;D,1+D+D^2,0"))
print(f"G = {format_matrix(pair.G)}")
print(f"H = {format_matrix(pair.H)}")

t1 = make_type1_plan(3, 1, (2, 3), (1,))
t2 = make_type2_plan(3, (0, 0, 2))
print()
print("type-1 step, divisions split over the column partition {2,3} | {1}:")
print(format_plan(t1))
print(f"net exponent constant: {t1.c}")
print("type-2 step, column 3 divided on G and multiplied on H:")
print(format_plan(t2))
print(f"net exponent constant: {t2.c}")

step1 = simultaneous_reduce(pair, t1)
print()
print(f"after type-1: G' = {format_matrix(step1.transformed_pair.G)}")
print(f"              H' = {format_matrix(step1.transformed_pair.H)}")
print(f"nu {step1.nu_before} -> {step1.nu_after}")

step2 = simultaneous_reduce(step1.transformed_pair, t2)
print(f"after type-2: G'' = {format_matrix(step2.transformed_pair.G)}")
print(f"              H'' = {format_matrix(step2.transformed_pair.H)}")
print(f"nu {step2.nu_before} -> {step2.nu_after}, "
      f"dual {step2.nu_before_dual} -> {step2.nu_after_dual}")

print()
print("the steps commute; composed into one plan:")
both = compose_plans(t1, t2)
print(format_plan(both))
one_shot = simultaneous_reduce(pair, both)
print(f"one-shot result equals the chained result: "
      f"{one_shot.transformed_pair == step2.transformed_pair}")

print()
print("a bounded search over single stock plans matches the primal drop:")
found = search_reduction_plan(pair)
print(f"nu {found.nu_before} -> {found.nu_after} "
      f"(dual {found.nu_before_dual} -> {found.nu_after_dual}) via")
print(format_plan(found.plan))
print("the two-step chain above is strictly better on the dual side")
