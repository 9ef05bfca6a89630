"""The packed BlockSequence against a tuple-of-tuples reference.

TupleSequence below is the earlier storage of BlockSequence, kept here as
the reference: every block a tuple of 0/1 ints, order and equality those
of the tuples.  Over random widths 1-4 and lengths 0-40 the packed class,
built from the tuples packed in reading order, must give the same blocks,
bits, xor, weight, padding, text form, equality and order, and the text
reader must refuse what the reference refuses.

slicing_format below is the earlier per-sequence formatter, kept as the
reference of the chunked list formatter format_sequences.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shifttrellis import (
    BlockSequence,
    format_blocks,
    format_sequences,
    parse_blocks,
)
from shifttrellis.blocks import _TABLES, block_values
from pairs import bit_tuples, from_bit_tuples

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)


@dataclass(frozen=True)
class TupleSequence:
    block_width: int
    blocks: tuple

    def __post_init__(self):
        blocks = tuple(tuple(int(b) for b in blk) for blk in self.blocks)
        for blk in blocks:
            if len(blk) != self.block_width or any(b not in (0, 1) for b in blk):
                raise ValueError(
                    f"block {blk} is not {self.block_width} bits")
        object.__setattr__(self, "blocks", blocks)

    def __len__(self):
        return len(self.blocks)

    def __getitem__(self, k):
        return self.blocks[k]

    def bit(self, t, j):
        return self.blocks[t - 1][j - 1]

    def __xor__(self, other):
        if self.block_width != other.block_width or len(self) != len(other):
            raise ValueError(
                f"shape mismatch: {len(self)}x{self.block_width} vs "
                f"{len(other)}x{other.block_width}")
        return TupleSequence(
            self.block_width,
            tuple(tuple(a ^ b for a, b in zip(x, y))
                  for x, y in zip(self.blocks, other.blocks)))

    @property
    def weight(self):
        return sum(sum(blk) for blk in self.blocks)

    @classmethod
    def zero(cls, width, length):
        return cls(width, ((0,) * width,) * length)

    def padded(self, length):
        if length < len(self):
            raise ValueError(f"cannot pad {len(self)} blocks down to {length}")
        pad = ((0,) * self.block_width,) * (length - len(self))
        return TupleSequence(self.block_width, self.blocks + pad)

    def text(self):
        return " ".join("".join(str(b) for b in blk) for blk in self.blocks)


@st.composite
def block_lists(draw, width=None, length=None):
    w = draw(st.integers(1, 4)) if width is None else width
    n = draw(st.integers(0, 40)) if length is None else length
    values = draw(st.lists(st.integers(0, (1 << w) - 1),
                           min_size=n, max_size=n))
    return w, tuple(tuple(map(int, format(v, f"0{w}b"))) for v in values)


@st.composite
def same_shape_lists(draw, count):
    w, first = draw(block_lists())
    rest = [draw(block_lists(w, len(first)))[1] for _ in range(count - 1)]
    return w, [first, *rest]


@SETTINGS
@given(block_lists(), st.data())
def test_packed_matches_tuple_reference(wb, data):
    w, blocks = wb
    seq, ref = from_bit_tuples(w, blocks), TupleSequence(w, blocks)
    assert bit_tuples(seq) == ref.blocks
    assert len(seq) == len(ref)
    assert seq.weight == ref.weight
    assert format_blocks(seq) == ref.text()
    if blocks:
        assert parse_blocks(ref.text(), width=w) == seq
        t = data.draw(st.integers(1, len(blocks)))
        j = data.draw(st.integers(1, w))
        assert seq.bit(t, j) == ref.bit(t, j)
    assert list(block_values(seq.bits, w, len(seq))) == [
        int("".join(map(str, blk)), 2) for blk in ref.blocks]
    extra = data.draw(st.integers(0, 5))
    assert (format_blocks(seq.padded(len(seq) + extra))
            == ref.padded(len(ref) + extra).text())
    if blocks:
        with pytest.raises(ValueError, match="cannot pad"):
            seq.padded(len(seq) - 1)
    zero = BlockSequence(w, len(blocks), 0)
    assert format_blocks(zero) == TupleSequence.zero(w, len(blocks)).text()
    assert zero == from_bit_tuples(
        w, TupleSequence.zero(w, len(blocks)).blocks)


@SETTINGS
@given(same_shape_lists(3))
def test_xor_equality_hash_and_order_match_tuples(wl):
    w, lists = wl
    seqs = [from_bit_tuples(w, b) for b in lists]
    refs = [TupleSequence(w, b) for b in lists]
    a, b, c = seqs
    ra, rb, rc = refs
    assert format_blocks(a ^ b) == (ra ^ rb).text()
    assert (a ^ b) ^ b == a
    for x, y, rx, ry in ((a, b, ra, rb), (b, c, rb, rc), (a, a, ra, ra)):
        assert (x == y) == (rx == ry)
        assert (x < y) == (rx.blocks < ry.blocks)
        assert (x <= y) == (rx.blocks <= ry.blocks)
        assert (x > y) == (rx.blocks > ry.blocks)
    assert ([format_blocks(s) for s in sorted(seqs)]
            == [r.text() for r in sorted(refs, key=lambda r: r.blocks)])
    members = set(seqs)
    assert from_bit_tuples(w, lists[0]) in members
    assert len(members) == len({r.blocks for r in refs})


@SETTINGS
@given(block_lists(), block_lists())
def test_shapes_never_mix(wb1, wb2):
    (w1, b1), (w2, b2) = wb1, wb2
    x, y = from_bit_tuples(w1, b1), from_bit_tuples(w2, b2)
    if (w1, len(b1)) == (w2, len(b2)):
        return
    assert x != y
    assert len({x, y}) == 2
    for op in (lambda: x ^ y, lambda: x < y, lambda: x <= y, lambda: x >= y,
               lambda: sorted([x, y])):
        with pytest.raises(ValueError, match="shape mismatch"):
            op()


@pytest.mark.parametrize("width, blocks", [
    (2, ((0, 2),)),
    (2, ((0, 1), (1, 0, 1))),
    (3, ((0, 1),)),
    (1, ((-1,),)),
])
def test_same_validation_errors(width, blocks):
    """Blocks arrive unchecked only as text: parse_blocks refuses every
    block list the reference refuses."""
    with pytest.raises(ValueError):
        TupleSequence(width, blocks)
    text = " ".join("".join(map(str, blk)) for blk in blocks)
    with pytest.raises(ValueError):
        parse_blocks(text, width=width)


def test_packed_constructor_range_check():
    assert bit_tuples(BlockSequence(2, 2, 0b1001)) == ((1, 0), (0, 1))
    for width, length, bits in ((2, 2, 16), (2, 2, -1), (3, 0, 1)):
        with pytest.raises(ValueError, match="is not"):
            BlockSequence(width, length, bits)


def test_immutable():
    seq = parse_blocks("01 10")
    with pytest.raises(AttributeError):
        seq.bits = 0
    assert format_blocks(seq) == "01 10"


def slicing_format(seq):
    """The text of seq cut from its whole binary string, block by block."""
    w, total = seq.block_width, seq.block_width * seq.length
    text = format(seq.bits, f"0{total}b") if total else ""
    return " ".join([text[k * w:k * w + w] for k in range(seq.length)])


@st.composite
def packed_lists(draw):
    """A width 1-4, a length 0-40 and 0-50 sequences of that shape."""
    w, n = draw(st.integers(1, 4)), draw(st.integers(0, 40))
    ints = draw(st.lists(st.integers(0, (1 << w * n) - 1), max_size=50))
    return [BlockSequence(w, n, bits) for bits in ints]


@SETTINGS
@given(packed_lists())
def test_list_formatter_matches_slicing_reference(seqs):
    want = [slicing_format(s) for s in seqs]
    assert format_sequences(seqs) == want
    assert [format_blocks(s) for s in seqs] == want
    assert max(map(len, _TABLES.values()), default=0) <= 64


@pytest.mark.parametrize("width", [0, 5, 6, 7, 9, 13])
@pytest.mark.parametrize("length", [0, 1, 2, 3, 7])
def test_list_formatter_edge_widths(width, length):
    seqs = [BlockSequence(width, length, bits)
            for bits in range(min(1 << width * length, 9))]
    assert format_sequences(seqs) == [slicing_format(s) for s in seqs]
    assert max(map(len, _TABLES.values()), default=0) <= 64


@SETTINGS
@given(packed_lists(), block_lists(), st.data())
def test_list_formatter_refuses_mixed_shapes(seqs, wb, data):
    w, b = wb
    odd = from_bit_tuples(w, b)
    if not seqs or (w, len(b)) == (seqs[0].block_width, len(seqs[0])):
        return
    k = data.draw(st.integers(0, len(seqs)))
    with pytest.raises(ValueError, match="shape mismatch"):
        format_sequences([*seqs[:k], odd, *seqs[k:]])
