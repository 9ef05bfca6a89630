"""The whole point, end to end: reduce both trellises and prove it changed
nothing about the decoding problem.

A type-1 plan shifts column 3 of the received word one step later.  Both
reduced trellises shrink from 4 states to 2, a few boundary positions get
pinned to zero, and the shifted code paths still tile the shifted received
word against the error paths exactly.  An independent brute-force solver
confirms the path sets.
"""

from shifttrellis import (
    BlockSequence,
    GHPair,
    assert_equal_path_sets,
    brute_errors,
    format_blocks,
    make_type1_plan,
    parse_blocks,
    parse_matrix,
    verify_simultaneous_reduction,
)

pair = GHPair(parse_matrix("D+D^2,D^2,1+D"), parse_matrix("1,0,D;D,1+D,0"))
plan = make_type1_plan(3, 1, (1, 2), (3,))
z = parse_blocks("001 000 011 010")

rep = verify_simultaneous_reduction(pair, plan, z, 4)

print(f"window: {rep.window} blocks ({rep.n_real} real)")
print(f"z padded : {format_blocks(rep.z_padded)}")
print(f"z shifted: {format_blocks(rep.z_shifted)}")
print(f"syndrome : {format_blocks(rep.shifted_syndrome)}")
red = rep.reduction
print(f"code states  {1 << red.nu_before} -> {1 << red.nu_after}")
print(f"error states {1 << red.nu_before_dual} -> {1 << red.nu_after_dual}")
print("boundary masks (section -> zero-forced columns):")
masks = rep.masks
for t in range(1, len(masks) + 1):
    cols = [j for j in range(1, masks.block_width + 1) if masks.bit(t, j)]
    if cols:
        print(f"  t={t}: {cols}")

# verify lists paths as packed ints of z_shifted's shape
error_paths = [BlockSequence(3, rep.window, e) for e in rep.error_paths]

print()
print("error paths and the code paths they reconstruct:")
for e in error_paths:
    print(f"  e' = {format_blocks(e)}   "
          f"z'+e' = {format_blocks(e ^ rep.z_shifted)}")

print()
print(f"path sets coincide: {rep.passed}")

ref = brute_errors(pair.H, rep.shifted_syndrome, n_real=rep.window)
hint = red.transformed_pair.H
ref_reduced = brute_errors(hint, rep.shifted_syndrome,
                           n_real=rep.window, masks=rep.masks)
assert_equal_path_sets(ref_reduced, error_paths, "brute force vs trellis")
print(f"brute-force cross-check: {len(ref_reduced)} admissible sequences, "
      f"trellis agrees")
print(f"(unreduced former sees {len(ref)} sequences over the same window)")
