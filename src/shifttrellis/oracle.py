"""Brute-force ground truth for desk-size instances.

Nothing here runs the trellis builders.  Both sets are affine GF(2) spaces
over packed ints: the codewords span the encoder's responses to single
input bits, and the error sequences are the preimage of a syndrome under
sequences.syndrome, one solution plus the span of that map's kernel.
Agreement between these and the trellis path sets is the strongest check
the package has.
"""

from __future__ import annotations

from .blocks import BlockSequence, format_blocks, from_columns
from .gf2poly import PolyMatrix, exponents, memory
from .sequences import syndrome
from .trellis import _forced


# Longest horizon, and most free bits (log2 of the words listed), that the
# enumerations accept.
MAX_HORIZON = 6
MAX_INFO_BITS = 16


def _echelon(rows):
    """Reduced echelon form over GF(2) of packed-int rows: (pivot bit, row)
    pairs, each pivot the lowest bit of its row when it entered and clear
    in every other row.  Rows that reduce to zero are dropped."""
    pivots = []
    for row in rows:
        for bit, prow in pivots:
            if row >> bit & 1:
                row ^= prow
        if row:
            bit = (row & -row).bit_length() - 1
            pivots = [(b, p ^ row if p >> bit & 1 else p) for b, p in pivots]
            pivots.append((bit, row))
    return pivots


def _span(offset, basis):
    """Every xor of offset with a subset of basis, sorted and distinct."""
    words = {offset}
    for b in basis:
        words |= {w ^ b for w in words}
    return sorted(words)


def brute_codewords(G: PolyMatrix, n_real: int):
    """All terminated codeword sequences of G over n_real blocks, sorted.

    Information bits run free for n_real - memory(G) steps with a zero
    tail, mirroring the terminated encoder, so the codewords are the span
    of the responses to one input bit.  Raises when the horizon is too
    short to terminate or the enumeration would exceed the caps.
    """
    mem = memory(G)
    if n_real < mem:
        raise ValueError("horizon too short to terminate")
    if n_real > MAX_HORIZON:
        raise ValueError(f"horizon {n_real} exceeds cap {MAX_HORIZON}")
    steps = n_real - mem
    free = G.rows * steps
    if free > MAX_INFO_BITS:
        raise ValueError(
            f"enumeration needs 2^{free} words, cap is 2^{MAX_INFO_BITS}")
    n = G.cols
    units = [from_columns(n, n_real, [e << t for e in G.row(i)]).bits
             for i in range(1, G.rows + 1) for t in range(steps)]
    return [BlockSequence(n, n_real, y) for y in _span(0, units)]


def brute_errors(H: PolyMatrix, syn: BlockSequence, n_real=None,
                 masks=None):
    """All error sequences e with syndrome(e, H) == syn, sorted.

    Unknowns are the error bits not pinned to zero by the flush boundary
    (everything past n_real) or by masks.  syndrome is linear, so the
    answers are one solution plus the kernel of syndrome on the unknowns;
    Gaussian elimination finds both, and only the solution space is
    enumerated.  An unsatisfiable syndrome yields the empty list.
    """
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
    if n_real > MAX_HORIZON:
        raise ValueError(f"horizon {n_real} exceeds cap {MAX_HORIZON}")

    # One row per unknown bit b: the syndrome of the sequence holding only
    # bit b in the low `low` bits, and bit b itself above them.
    low = horizon * m
    unknown = (1 << horizon * n) - 1 ^ _forced(masks, horizon, n,
                                                horizon - n_real)
    rows = [syndrome(BlockSequence(n, horizon, 1 << b), H).bits | 1 << low + b
            for b in exponents(unknown)]

    # Pivots in the syndrome part reduce syn to one solution; the rest,
    # whose syndromes cancel, span the kernel.
    e0, kernel = syn.bits, []
    for bit, row in _echelon(rows):
        if bit >= low:
            kernel.append(row >> low)
        elif e0 >> bit & 1:
            e0 ^= row
    if e0 & (1 << low) - 1:
        return []
    if len(kernel) > MAX_INFO_BITS:
        raise ValueError(
            f"solution space needs 2^{len(kernel)} words, cap is "
            f"2^{MAX_INFO_BITS}")
    return [BlockSequence(n, horizon, e) for e in _span(e0 >> low, kernel)]


def random_feasible_syndrome(H: PolyMatrix, n_real: int, rng) -> BlockSequence:
    """Syndrome of a random flush-terminated error sequence.

    Feasible by construction: the drawn sequence itself is admissible.
    """
    # one draw per bit, in reading order: block 1 column 1 first
    bits = 0
    for _ in range(n_real * H.cols):
        bits = bits << 1 | rng.randrange(2)
    e = BlockSequence(H.cols, n_real, bits)
    return syndrome(e.padded(n_real + memory(H)), H)


def assert_equal_path_sets(a, b, label="path sets"):
    """Raise with the symmetric difference spelled out unless a == b as sets."""
    sa, sb = set(a), set(b)
    if sa == sb:
        return
    lines = [f"{label} differ"]
    lines.extend(f"  only in first: {format_blocks(s)}"
                 for s in sorted(sa - sb))
    lines.extend(f"  only in second: {format_blocks(s)}"
                 for s in sorted(sb - sa))
    raise AssertionError("\n".join(lines))
