"""Brute-force ground truth for desk-size instances.

Nothing here touches the trellis builders: codewords come from direct
polynomial encoding and error sets from solving the syndrome convolution
as a GF(2) linear system.  Agreement between these and the trellis path
sets is the strongest check the package has.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import BlockSequence, format_blocks
from .gf2poly import PolyMatrix, exponents, memory, poly_mul


@dataclass(frozen=True)
class OracleConfig:
    max_horizon: int = 6
    max_info_bits: int = 16


def brute_codewords(G: PolyMatrix, n_real: int, config=None):
    """All terminated codeword sequences of G over n_real blocks, sorted.

    Information bits run free for n_real - memory(G) steps with a zero
    tail, mirroring the terminated encoder.  Raises when the horizon is
    too short to terminate or the enumeration would blow the config caps.
    """
    cfg = config or OracleConfig()
    mem = memory(G)
    if n_real < mem:
        raise ValueError("horizon too short to terminate")
    if n_real > cfg.max_horizon:
        raise ValueError(f"horizon {n_real} exceeds cap {cfg.max_horizon}")
    steps = n_real - mem
    free = G.rows * steps
    if free > cfg.max_info_bits:
        raise ValueError(
            f"enumeration needs 2^{free} words, cap is 2^{cfg.max_info_bits}")
    out = set()
    for word in range(1 << free):
        ys = []
        for j in range(1, G.cols + 1):
            acc = 0
            for i in range(1, G.rows + 1):
                u = word >> (i - 1) * steps & (1 << steps) - 1
                acc ^= poly_mul(u, G.entry(i, j))
            ys.append(acc)
        out.add(BlockSequence(
            G.cols,
            tuple(tuple(y >> t & 1 for y in ys) for t in range(n_real))))
    return sorted(out, key=lambda s: s.blocks)


def brute_errors(H: PolyMatrix, syn: BlockSequence, n_real=None,
                 masks=None, config=None):
    """All error sequences whose convolution with H^T gives syn, sorted.

    Unknowns are the error bits not pinned to zero by the flush boundary
    (everything past n_real) or by masks; the convolution equations are
    solved exactly by Gaussian elimination, and only the solution space is
    enumerated.  An unsatisfiable syndrome yields the empty list.
    """
    cfg = config or OracleConfig()
    m, n = H.rows, H.cols
    if syn.block_width != m:
        raise ValueError(f"syndrome width {syn.block_width}, expected {m}")
    horizon = len(syn)
    mem = memory(H)
    if n_real is None:
        n_real = horizon - mem
    if n_real < 0:
        raise ValueError(
            f"syndrome has {horizon} blocks, flush alone needs {mem}")
    if n_real > cfg.max_horizon:
        raise ValueError(f"horizon {n_real} exceeds cap {cfg.max_horizon}")

    forced = {(t, j) for t in range(n_real + 1, horizon + 1)
              for j in range(1, n + 1)}
    for t, cols in (masks or {}).items():
        forced.update((t, j) for j in cols)
    variables = [(t, j) for t in range(1, horizon + 1)
                 for j in range(1, n + 1) if (t, j) not in forced]
    index = {v: k for k, v in enumerate(variables)}
    nv = len(variables)
    rhs_bit = 1 << nv

    rows = []
    for t in range(1, horizon + 1):
        for i in range(1, m + 1):
            row = rhs_bit if syn.bit(t, i) else 0
            for j in range(1, n + 1):
                for d in exponents(H.entry(i, j)):
                    if (t - d, j) in index:
                        row ^= 1 << index[(t - d, j)]
            rows.append(row)

    # Reduced echelon form over GF(2); pivots kept clear of each other so
    # back-substitution only ever reads free columns.
    pivots = []
    for row in rows:
        for col, prow in pivots:
            if row >> col & 1:
                row ^= prow
        if row == 0:
            continue
        mask = row & rhs_bit - 1
        if mask == 0:
            return []
        col = (mask & -mask).bit_length() - 1
        for k, (c, prow) in enumerate(pivots):
            if prow >> col & 1:
                pivots[k] = (c, prow ^ row)
        pivots.append((col, row))

    pivot_cols = {c for c, _ in pivots}
    free_cols = [c for c in range(nv) if c not in pivot_cols]
    if len(free_cols) > cfg.max_info_bits:
        raise ValueError(
            f"solution space needs 2^{len(free_cols)} words, cap is "
            f"2^{cfg.max_info_bits}")

    out = set()
    for assign in range(1 << len(free_cols)):
        val = {c: assign >> k & 1 for k, c in enumerate(free_cols)}
        for c, row in pivots:
            x = row >> nv & 1
            for k in exponents(row & (rhs_bit - 1) & ~(1 << c)):
                x ^= val[k]
            val[c] = x
        bits = [[0] * n for _ in range(horizon)]
        for (t, j), k in index.items():
            bits[t - 1][j - 1] = val[k]
        out.add(BlockSequence(n, tuple(tuple(r) for r in bits)))
    return sorted(out, key=lambda s: s.blocks)


def random_feasible_syndrome(H: PolyMatrix, n_real: int, rng) -> BlockSequence:
    """Syndrome of a random flush-terminated error sequence.

    Feasible by construction: the drawn sequence itself is admissible.
    """
    from .sequences import syndrome
    n = H.cols
    blocks = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(n_real)]
    blocks += [(0,) * n] * memory(H)
    return syndrome(BlockSequence(n, tuple(blocks)), H)


def assert_equal_path_sets(a, b, label="path sets"):
    """Raise with the symmetric difference spelled out unless a == b as sets."""
    sa, sb = set(a), set(b)
    if sa == sb:
        return
    lines = [f"{label} differ"]
    lines.extend(f"  only in first: {format_blocks(s)}"
                 for s in sorted(sa - sb, key=lambda s: s.blocks))
    lines.extend(f"  only in second: {format_blocks(s)}"
                 for s in sorted(sb - sa, key=lambda s: s.blocks))
    raise AssertionError("\n".join(lines))
