"""Worked generator/check pairs shared across the tests.

The four in ALL_PAIRS are rate-1/3 binary codes; TIE_PAIR is rate 1/2.
The *_RED matrices are hand-reduced
targets the shift plans must reproduce exactly, and the path listings are
full admissible sets at the horizons the tests use.
"""

from shifttrellis import (
    BlockSequence,
    GHPair,
    make_type1_plan,
    make_type2_plan,
    parse_blocks,
    parse_matrix,
)
from shifttrellis.blocks import block_values


def pair(g, h):
    return GHPair(parse_matrix(g), parse_matrix(h))


def blocks(text, width=None):
    return parse_blocks(text, width=width)


def label_bits(label, n):
    """A branch label, one packed n-bit block, as a tuple of bits."""
    return tuple(label >> i & 1 for i in range(n - 1, -1, -1))


def bit_tuples(seq):
    """Every block of seq as a tuple of bits."""
    w = seq.block_width
    return tuple(label_bits(b, w) for b in block_values(seq.bits, w, len(seq)))


def from_bit_tuples(width, blocks):
    """The sequence of the given blocks of width bits, each a tuple of
    bits, packed in reading order (block 1, column 1 first)."""
    blocks = tuple(blocks)
    bits = 0
    for blk in blocks:
        assert len(blk) == width, (blk, width)
        for b in blk:
            bits = bits << 1 | b
    return BlockSequence(width, len(blocks), bits)


# Backward-shift showcase: every column of the reciprocal dual of H has a
# common delay factor, so the dual pair reduces without touching G.
G_BACK = parse_matrix("1+D+D^2,1,D^3+D^4")
H_BACK = parse_matrix("D^2,D^2,1;1,1+D+D^2,0")
H_BACK_DUAL = parse_matrix("1,1,D^2;D^2,1+D+D^2,0")
H_BACK_COLSHIFT = parse_matrix("D^2,D^2,D^2;1,1+D+D^2,0")
H_BACK_RED = parse_matrix("1,1,1;1,1+D+D^2,0")

# End-to-end showcase: one type-1 step with l=1 splitting the columns
# into {1,2} on the generator side and {3} on the check side.
G_MAIN = parse_matrix("D+D^2,D^2,1+D")
H_MAIN = parse_matrix("1,0,D;D,1+D,0")
G_MAIN_RED = parse_matrix("1+D,D,1+D")
H_MAIN_RED = parse_matrix("1,0,1;D,1+D,0")
MAIN_PAIR = GHPair(G_MAIN, H_MAIN)
MAIN_PLAN = make_type1_plan(3, 1, (1, 2), (3,))

# Type-2 showcase: shifting column 3 both ways at once.
G_T2 = parse_matrix("1+D,1,D+D^2")
H_T2 = parse_matrix("D,0,1;1,1+D,0")
G_T2_RED = parse_matrix("1+D,1,1+D")
H_T2_SCALED = parse_matrix("D,0,D;1,1+D,0")
H_T2_RED = parse_matrix("1,0,1;1,1+D,0")
T2_PAIR = GHPair(G_T2, H_T2)
T2_PLAN = make_type2_plan(3, (0, 0, 1))

# Two-step chain: a type-1 step and a type-2 step that commute, dropping
# the overall constraint length from 5 to 2 on both sides.
G_CHAIN = parse_matrix("1+D+D^2,D,D^4+D^5")
H_CHAIN = parse_matrix("D^3,D^2,1;D,1+D+D^2,0")
G_CHAIN_RED = parse_matrix("1+D+D^2,1,D+D^2")
H_CHAIN_RED = parse_matrix("1,1,1;1,1+D+D^2,0")
CHAIN_PAIR = GHPair(G_CHAIN, H_CHAIN)
CHAIN_T1 = make_type1_plan(3, 1, (2, 3), (1,))
CHAIN_T2 = make_type2_plan(3, (0, 0, 2))

# Tie showcase: the input of a section never reaches its own label, so
# every state of the code trellis has two branches with the same label to
# different next states.
TIE_PAIR = pair("D,D+D^2", "1+D,1")

# Plan-space showcases: every column of DELAY40_PAIR has delay 40, so the
# search at bound 40 has 41^3 legal plans; R8 (G and H as text) is rate
# 1/8 with column delays 0-3, a small box inside a huge nominal space.
DELAY40_PAIR = pair("D^40,D^40,D^40", "1,1,0;0,1,1")
R8 = ("1+D,D,D^2,1,D^3,D+D^2,D^2,1",
      "1,0,0,1+D,0,0,0,0;0,1,0,D,0,0,0,0;0,0,1,D^2,0,0,0,0;"
      "0,0,0,D^3,1,0,0,0;0,0,0,D+D^2,0,1,0,0;0,0,0,D^2,0,0,1,0;"
      "0,0,0,1,0,0,0,1")

ALL_PAIRS = (
    pair("1+D+D^2,1,D^3+D^4", "D^2,D^2,1;1,1+D+D^2,0"),
    MAIN_PAIR,
    T2_PAIR,
    CHAIN_PAIR,
)

# Received word for the MAIN pair, four real blocks plus one flush block,
# and everything the reduction does to it.
Z_MAIN = blocks("001 000 011 010")
ZETA_MAIN = blocks("00 10 01 10 01")
Z_MAIN_SHIFTED = blocks("000 001 010 011 000")
# ones mark the label bits pinned to zero: column 3 of block 1 and
# columns 1 and 2 of block 5
MAIN_MASKS = blocks("001 000 000 000 110")

E_MAIN_RAW = tuple(
    blocks(s)
    for s in (
        "000 100 000 100 000",
        "000 101 101 010 000",
        "001 000 011 010 000",
        "001 001 110 100 000",
    )
)
E_MAIN_RED = tuple(
    blocks(s)
    for s in (
        "000 001 010 011 000",
        "000 001 111 100 000",
        "000 100 000 100 000",
        "000 100 101 011 000",
    )
)
Y_MAIN_RED = tuple(
    blocks(s)
    for s in (
        "000 000 000 000 000",
        "000 000 101 111 000",
        "000 101 010 111 000",
        "000 101 111 000 000",
    )
)
