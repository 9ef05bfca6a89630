"""Simultaneous reduction of code- and error-trellises for binary
convolutional codes through shifted subsequences."""

from .blocks import BlockSequence, format_blocks, format_sequences, parse_blocks
from .gf2poly import (
    GHPair,
    Poly,
    PolyMatrix,
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
from .oracle import (
    assert_equal_path_sets,
    brute_codewords,
    brute_errors,
    random_feasible_syndrome,
)
from .sequences import (
    VerifyReport,
    boundary_masks,
    reconstruct_code_paths,
    shift_received,
    syndrome,
    verify_simultaneous_reduction,
)
from .transform import (
    ReductionReport,
    ShiftPlan,
    apply_plan,
    compose_plans,
    format_plan,
    make_type1_plan,
    make_type2_plan,
    parse_plan,
    reduce_rows_equivalent,
    search_reduction_plan,
    simultaneous_reduce,
    suggest_backward_shift,
)
from .trellis import (
    Branch,
    Trellis,
    build_code_trellis,
    build_error_trellis,
    count_paths,
    enumerate_paths,
    min_weight_path,
    trellis_dot,
)

__version__ = "0.1.0"
