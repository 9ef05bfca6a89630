"""Syndromes, per-column cyclic shifts, and the end-to-end reduction check.

A plan moves the contents of column j by s_j = ShiftPlan.shifts[j], H's
exponent on that column, positive to the right (later in time), negative
to the left.  The code side moves by the same s_j once the plan's constant
c is absorbed into the time origin, so one signed shift serves received
data, error sequences and codewords alike; that is what keeps z' = y' + e'
true blockwise.  Shifts are cyclic within a per-column window of
n_real + |s_j| blocks and the identity beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import xor

from .blocks import BlockSequence, columns, from_columns
from .gf2poly import (
    GHPair,
    PolyMatrix,
    degree,
    memory,
    poly_mul,
)
from .transform import ReductionReport, ShiftPlan, simultaneous_reduce
from .trellis import build_code_trellis, build_error_trellis, enumerate_paths


def _rotate(col: int, s: int, n_real: int) -> int:
    """A column over time (bit p is block p + 1) shifted by s: cyclic
    within its first n_real + |s| blocks, fixed after."""
    mod = n_real + abs(s)
    window = (1 << mod) - 1
    low, r = col & window, s % (mod or 1)
    return col ^ low ^ (low << r | low >> mod - r) & window


def syndrome(z: BlockSequence, H: PolyMatrix) -> BlockSequence:
    """Causal convolution of z with H^T, one output block per input block."""
    if z.block_width != H.cols:
        raise ValueError(
            f"received width {z.block_width}, expected n={H.cols}")
    cols = columns(z)
    rows = []
    for i in range(1, H.rows + 1):
        acc = 0
        for c, h in zip(cols, H.row(i)):
            if h:
                acc ^= poly_mul(c, h)
        rows.append(acc)
    return from_columns(H.rows, len(z), rows)


def shift_received(z: BlockSequence, plan: ShiftPlan, n_real: int) -> BlockSequence:
    """Move each column of z by the plan's net shifts.

    Received data, codewords and error sequences all move this way, since
    they ride one clock under an admissible plan.  The shift is invertible:
    shifting the result by plan.inverted() gives z back.
    """
    if n_real < 0:
        raise ValueError(f"negative n_real {n_real}")
    shifts = plan.shifts
    if len(shifts) != z.block_width:
        raise ValueError(
            f"plan has {len(shifts)} columns, blocks are {z.block_width} wide")
    need = n_real + max(abs(s) for s in shifts)
    if len(z) < need:
        raise ValueError(
            f"sequence has {len(z)} blocks, shift window needs {need}")
    return from_columns(z.block_width, len(z), [
        _rotate(col, s, n_real) for col, s in zip(columns(z), shifts)])


def boundary_masks(plan: ShiftPlan, n_real: int,
                   horizon=None) -> BlockSequence:
    """Forced-zero label positions of the shifted trellises.

    Window position t of column j aliases, through the cyclic shift, a
    position of the unshifted sequence; whenever that alias lands past
    n_real it names a terminated all-zero block, so the bit is pinned to
    zero.  The result is a horizon x n BlockSequence, packed as paths are,
    with a one at each pinned bit.

    Both trellises share one clock, so one set of masks serves the code
    side and the error side.  The horizon defaults to n_real plus the
    largest shift magnitude, which makes the identity plan's masks empty.
    """
    if n_real < 0:
        raise ValueError(f"negative n_real {n_real}")
    shifts = plan.shifts
    if horizon is None:
        horizon = n_real + max(abs(s) for s in shifts)
    # every position from n_real on, far enough for any alias
    return from_columns(len(shifts), horizon, [
        _rotate((1 << n_real + horizon + abs(s)) - (1 << n_real), s, n_real)
        for s in shifts])


def reconstruct_code_paths(z_shifted: BlockSequence, error_paths):
    """Blockwise xor of the shifted received data onto every error path,
    sorted, each distinct sequence once."""
    return sorted({z_shifted ^ e for e in error_paths})


@dataclass(frozen=True)
class VerifyReport:
    """What verify_simultaneous_reduction computed; each trellis's nominal
    state count is 2^nu of reduction.

    code_paths, error_paths and mismatch are sorted tuples of packed ints
    in z_shifted's shape, window blocks of n bits (see blocks.py):
    BlockSequence(z_shifted.block_width, window, p) is the sequence of one.
    """

    reduction: ReductionReport
    n_real: int
    window: int
    z_padded: BlockSequence
    z_shifted: BlockSequence
    shifted_syndrome: BlockSequence
    masks: BlockSequence
    code_paths: tuple
    error_paths: tuple
    passed: bool
    mismatch: tuple


def _spill(shifts, G: PolyMatrix, H: PolyMatrix) -> int:
    """Blocks past n_real that the reduced trellises need.

    Column j of the shifted data fills n_real + |s_j| blocks.  Its syndrome
    drains through column j of H for as many blocks as that column's
    degree.  On the code side every input must stay free until its row's
    output ends there: with one row the shift alone allows that, with more
    rows the flush of G is added, since a short row's input runs longer.
    """
    reach = max(abs(s) + max((degree(e) for e in H.column(j) if e), default=0)
                for j, s in enumerate(shifts, 1))
    code = max(abs(s) for s in shifts) + (memory(G) if G.rows > 1 else 0)
    return max(memory(G), code, reach)


def verify_simultaneous_reduction(pair: GHPair, plan: ShiftPlan,
                                  z: BlockSequence, n_real: int) -> VerifyReport:
    """Reduce the pair, shift z, and compare the two reduced trellises.

    The check runs over a window wide enough for the shifted data and
    both flushes after them (see _spill).  It passes when the reduced
    code-trellis paths coincide, as a set, with the shifted received data
    xor each reduced error-trellis path; that equality is exactly the
    path-level statement of simultaneous reduction.  Both path lists and,
    on failure, their symmetric difference are reported as sorted packed
    ints (see VerifyReport); reconstruct_code_paths lists the xor side.
    """
    if z.block_width != pair.n:
        raise ValueError(f"received width {z.block_width}, expected {pair.n}")
    if n_real < 0:
        raise ValueError(f"negative n_real {n_real}")
    if len(z) < n_real:
        raise ValueError(f"need {n_real} real blocks, got {len(z)}")
    w, pad_bits = z.block_width, (len(z) - n_real) * z.block_width
    pad = z.bits & (1 << pad_bits) - 1
    if pad:
        # the first nonzero pad block holds the highest set bit
        t = len(z) - (pad.bit_length() - 1) // w
        raise ValueError(f"pad block {t} is nonzero")

    red = simultaneous_reduce(pair, plan)
    g_fin, h_fin = red.transformed_pair.G, red.transformed_pair.H
    window = n_real + _spill(plan.shifts, g_fin, h_fin)

    z_pad = BlockSequence(w, n_real, z.bits >> pad_bits).padded(window)
    z_sh = shift_received(z_pad, plan, n_real)
    zeta = syndrome(z_sh, h_fin)
    masks = boundary_masks(plan, n_real, horizon=window)

    # Both lists have the window x n shape of z_sh, so their ints compare.
    err_paths = tuple(enumerate_paths(build_error_trellis(
        h_fin, zeta, n_real=window, masks=masks), packed=True))
    code_paths = tuple(enumerate_paths(
        build_code_trellis(g_fin, window, masks=masks), packed=True))
    c_set = set(code_paths)
    y_set = set(map(xor, err_paths, repeat(z_sh.bits)))
    return VerifyReport(
        reduction=red,
        n_real=n_real,
        window=window,
        z_padded=z_pad,
        z_shifted=z_sh,
        shifted_syndrome=zeta,
        masks=masks,
        code_paths=code_paths,
        error_paths=err_paths,
        passed=c_set == y_set,
        mismatch=tuple(sorted(c_set ^ y_set)))
