"""Syndromes, per-column cyclic shifts, and the end-to-end reduction check.

A plan moves the contents of column j by the net amount

    s_j = h_div_j - h_mul_j

positive to the right (later in time), negative to the left.  Because an
admissible plan keeps the combined exponent constant across columns, the
code-side exponents prescribe the same movement once that global constant
is absorbed into the time origin, so one signed shift serves received
data, error sequences and codewords alike; that is what keeps z' = y' + e'
true blockwise.  Shifts are cyclic within a per-column window of
n_real + |s_j| blocks and the identity beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import BlockSequence
from .gf2poly import (
    GHPair,
    PolyMatrix,
    exponents,
    memory,
    overall_constraint_length,
)
from .transform import ReductionReport, ShiftPlan, simultaneous_reduce
from .trellis import build_code_trellis, build_error_trellis, enumerate_paths


def net_shifts(plan: ShiftPlan) -> tuple:
    """Per-column net movement, positive meaning delay."""
    return tuple(d - m for d, m in zip(plan.h_div, plan.h_mul))


def syndrome(z: BlockSequence, H: PolyMatrix) -> BlockSequence:
    """Causal convolution of z with H^T, one output block per input block."""
    if z.block_width != H.cols:
        raise ValueError(
            f"received width {z.block_width}, expected n={H.cols}")
    taps = [[(j, exponents(h)) for j, h in enumerate(H.row(i), 1)]
            for i in range(1, H.rows + 1)]
    out = []
    for t in range(1, len(z) + 1):
        blk = []
        for row in taps:
            acc = 0
            for j, ds in row:
                for d in ds:
                    if d < t:
                        acc ^= z.bit(t - d, j)
            blk.append(acc)
        out.append(tuple(blk))
    return BlockSequence(H.rows, tuple(out))


def shift_received(z: BlockSequence, plan: ShiftPlan, n_real: int) -> BlockSequence:
    """Move each column of z by the plan's net shifts.

    Received data, codewords and error sequences all move this way, since
    they ride one clock under an admissible plan.  The shift is invertible:
    shifting the result by plan.inverted() gives z back.
    """
    shifts = net_shifts(plan)
    if len(shifts) != z.block_width:
        raise ValueError(
            f"plan has {len(shifts)} columns, blocks are {z.block_width} wide")
    mods = [n_real + abs(s) for s in shifts]
    if len(z) < max(mods):
        raise ValueError(
            f"sequence has {len(z)} blocks, shift window needs {max(mods)}")
    out = [[0] * z.block_width for _ in range(len(z))]
    for j, (s, mod) in enumerate(zip(shifts, mods), 1):
        for p in range(len(z)):
            src = (p - s) % mod if p < mod else p
            out[p][j - 1] = z.bit(src + 1, j)
    return BlockSequence(z.block_width, tuple(tuple(r) for r in out))


def boundary_masks(plan: ShiftPlan, n_real: int, horizon=None) -> dict:
    """Forced-zero label positions of the shifted trellises.

    Window position t of column j aliases, through the cyclic shift, a
    position of the unshifted sequence; whenever that alias lands past
    n_real it names a terminated all-zero block, so the bit is pinned to
    zero.  The result maps 1-based sections to frozensets of columns.

    Both trellises share one clock, so one set of masks serves the code
    side and the error side.  The horizon defaults to n_real plus the
    largest shift magnitude, which makes the identity plan's masks empty.
    """
    shifts = net_shifts(plan)
    if horizon is None:
        horizon = n_real + max((abs(s) for s in shifts), default=0)
    out = {}
    for j, s in enumerate(shifts, 1):
        mod = n_real + abs(s)
        for t in range(1, horizon + 1):
            alias = (t - 1 - s) % mod + 1 if t <= mod else t
            if alias > n_real:
                out.setdefault(t, set()).add(j)
    return {t: frozenset(cols) for t, cols in sorted(out.items())}


def reconstruct_code_paths(z_shifted: BlockSequence, error_paths):
    """Blockwise xor of the shifted received data onto every error path."""
    return sorted({z_shifted ^ e for e in error_paths},
                  key=lambda s: s.blocks)


@dataclass(frozen=True)
class VerifyReport:
    reduction: ReductionReport
    n_real: int
    window: int
    z_padded: BlockSequence
    z_shifted: BlockSequence
    shifted_syndrome: BlockSequence
    masks: dict
    code_paths: tuple
    error_paths: tuple
    reconstructed: tuple
    code_states_before: int
    code_states_after: int
    error_states_before: int
    error_states_after: int
    passed: bool
    mismatch: tuple


def verify_simultaneous_reduction(pair: GHPair, plan: ShiftPlan,
                                  z: BlockSequence, n_real: int) -> VerifyReport:
    """Reduce the pair, shift z, and compare the two reduced trellises.

    The check runs over a window wide enough for both flushes and the
    largest shift.  It passes when the reduced code-trellis paths coincide,
    as a set, with the shifted received data xor each reduced error-trellis
    path; that equality is exactly the path-level statement of simultaneous
    reduction.  On failure the report carries the symmetric difference.
    """
    if z.block_width != pair.n:
        raise ValueError(f"received width {z.block_width}, expected {pair.n}")
    if len(z) < n_real:
        raise ValueError(f"need {n_real} real blocks, got {len(z)}")
    for t in range(n_real + 1, len(z) + 1):
        if any(z[t - 1]):
            raise ValueError(f"pad block {t} is nonzero")

    red = simultaneous_reduce(pair, plan)
    g_fin, h_fin = red.transformed_pair.G, red.transformed_pair.H
    shifts = net_shifts(plan)
    window = n_real + max(memory(g_fin), memory(h_fin),
                          max((abs(s) for s in shifts), default=0))

    z_pad = BlockSequence(z.block_width, z.blocks[:n_real]).padded(window)
    z_sh = shift_received(z_pad, plan, n_real)
    zeta = syndrome(z_sh, h_fin)
    masks = boundary_masks(plan, n_real, horizon=window)

    err_paths = enumerate_paths(
        build_error_trellis(h_fin, zeta, n_real=window, masks=masks))
    code_paths = enumerate_paths(
        build_code_trellis(g_fin, window, masks=masks))
    recon = reconstruct_code_paths(z_sh, err_paths)

    c_set, y_set = set(code_paths), set(recon)
    return VerifyReport(
        reduction=red,
        n_real=n_real,
        window=window,
        z_padded=z_pad,
        z_shifted=z_sh,
        shifted_syndrome=zeta,
        masks=masks,
        code_paths=tuple(code_paths),
        error_paths=tuple(err_paths),
        reconstructed=tuple(recon),
        code_states_before=1 << overall_constraint_length(pair.G),
        code_states_after=1 << overall_constraint_length(g_fin),
        error_states_before=1 << overall_constraint_length(pair.H),
        error_states_after=1 << overall_constraint_length(h_fin),
        passed=c_set == y_set,
        mismatch=tuple(sorted(c_set ^ y_set, key=lambda s: s.blocks)))
