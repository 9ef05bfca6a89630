"""The public API, pinned by name.

A change that adds or removes a public name of the package or of
BlockSequence must edit these lists on purpose.  Submodules are not
counted: which of them are attributes of the package depends on what has
been imported.
"""

import inspect

import shifttrellis
from shifttrellis import BlockSequence


def public(obj):
    return sorted(name for name, value in inspect.getmembers(obj)
                  if not name.startswith("_") and not inspect.ismodule(value))


def test_package_names():
    assert public(shifttrellis) == [
        "BlockSequence", "Branch", "GHPair", "Poly", "PolyMatrix",
        "ReductionReport", "ShiftPlan", "Trellis", "VerifyReport",
        "apply_plan", "assert_equal_path_sets", "boundary_masks",
        "brute_codewords", "brute_errors", "build_code_trellis",
        "build_error_trellis", "check_gh_relation", "column_delay",
        "compose_plans", "count_paths", "degree", "delay", "divide_by_power",
        "enumerate_paths", "exponents", "format_blocks", "format_matrix",
        "format_plan", "format_poly", "format_sequences", "full_row_rank",
        "make_type1_plan", "make_type2_plan", "mat_mul_transpose", "matrix",
        "memory", "min_weight_path", "overall_constraint_length",
        "parse_blocks", "parse_matrix", "parse_plan", "parse_poly",
        "poly_mul", "random_feasible_syndrome", "reciprocal_dual",
        "reconstruct_code_paths", "reduce_rows_equivalent", "row_degree",
        "row_delay", "search_reduction_plan", "shift_received",
        "simultaneous_reduce", "suggest_backward_shift", "syndrome",
        "trellis_dot", "verify_simultaneous_reduction",
    ]


def test_block_sequence_names():
    assert public(BlockSequence) == [
        "bit", "bits", "block_width", "check_shape", "length",
        "padded", "weight",
    ]
