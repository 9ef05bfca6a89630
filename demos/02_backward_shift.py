"""Finding a hidden reduction with the reciprocal dual.

The check matrix below looks irreducible: no row has a common D factor.
Reversing each row's coefficients exposes one, and the whole reduction
then happens on the dual side without touching the generator.
"""

from shifttrellis import (
    format_matrix,
    matrix,
    overall_constraint_length,
    parse_matrix,
    reciprocal_dual,
    reduce_rows_equivalent,
    suggest_backward_shift,
)

H = parse_matrix("D^2,D^2,1;1,1+D+D^2,0")
print(f"H = {format_matrix(H)}")
print(f"state dimension {overall_constraint_length(H)} "
      f"({2 ** overall_constraint_length(H)} states)")

dual = reciprocal_dual(H)
print()
print(f"reciprocal dual = {format_matrix(dual)}")
print("column 3 of the dual is divisible by D^2, nothing else moves")

shifts = suggest_backward_shift(H)
print(f"suggest_backward_shift(H) = {shifts}")

l = shifts[2]
shifted = matrix(
    [[e << l if j == 3 else e
      for j, e in enumerate(H.row(i), 1)]
     for i in range(1, H.rows + 1)])
print()
print(f"H with column 3 times D^{l} = {format_matrix(shifted)}")

reduced, exps = reduce_rows_equivalent(shifted)
print(f"row divisions {exps} -> {format_matrix(reduced)}")
print(f"state dimension {overall_constraint_length(H)} -> "
      f"{overall_constraint_length(reduced)}, i.e. "
      f"{2 ** overall_constraint_length(H)} states down to "
      f"{2 ** overall_constraint_length(reduced)}")
