"""Time-indexed sequences of fixed-width bit blocks (y, e, z and syndromes).

A sequence of L blocks of width w is stored as one int of w * L bits, read
as its printed form "001 000 011 010 000" reads: the first block's first
bit is the most significant.  Equality, hashing, xor and weight are then
single int operations, and for sequences of one shape the int order is
exactly the lexicographic order of the printed blocks.  A sequence is built
from that int alone, BlockSequence(w, L, bits), and read as ints (bits,
bit, block_values) or as text (parse_blocks, format_blocks); columns and
from_columns convert to and from one polynomial over time per component.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from itertools import repeat
from operator import and_, attrgetter, rshift


@total_ordering
@dataclass(frozen=True, init=False, repr=False)
class BlockSequence:
    """BlockSequence(width, length, bits) is the sequence of length blocks
    of width bits whose packed form is bits.  Sequences of different
    shapes are never equal and do not order: < between them raises
    ValueError, as ^ does."""

    __slots__ = ("block_width", "length", "bits")
    block_width: int
    length: int
    bits: int

    def __init__(self, block_width: int, length: int, bits: int):
        _set_width(self, block_width)
        _set_length(self, length)
        _set_bits(self, bits)
        self.__post_init__()

    def __post_init__(self):
        """Range check, run once per construction (perfbench counts
        constructions by wrapping it)."""
        if (self.block_width < 0 or self.length < 0
                or not 0 <= self.bits < 1 << self.block_width * self.length):
            raise ValueError(
                f"{self.bits} is not {self.length} blocks of "
                f"{self.block_width} bits")

    def __repr__(self):
        return (f"<BlockSequence {self.length}x{self.block_width}: "
                f"{format_blocks(self)}>")

    def check_shape(self, other):
        """Raise ValueError unless other has this width and length."""
        if (self.block_width != other.block_width
                or self.length != other.length):
            raise ValueError(
                f"shape mismatch: {self.length}x{self.block_width} vs "
                f"{other.length}x{other.block_width}")

    def __lt__(self, other):
        if not isinstance(other, BlockSequence):
            return NotImplemented
        self.check_shape(other)
        return self.bits < other.bits

    def __len__(self):
        return self.length

    def bit(self, t: int, j: int) -> int:
        """Component j of the block at time t (both 1-based)."""
        w = self.block_width
        if not (1 <= t <= self.length and 1 <= j <= w):
            raise IndexError(
                f"bit ({t}, {j}) outside {self.length}x{w} blocks")
        return self.bits >> (self.length - t) * w + w - j & 1

    def __xor__(self, other):
        if not isinstance(other, BlockSequence):
            return NotImplemented
        self.check_shape(other)
        return BlockSequence(self.block_width, self.length,
                             self.bits ^ other.bits)

    @property
    def weight(self) -> int:
        return bin(self.bits).count("1")

    def padded(self, length: int) -> "BlockSequence":
        """Extend with zero blocks up to the given length."""
        if length < self.length:
            raise ValueError(
                f"cannot pad {self.length} blocks down to {length}")
        return BlockSequence(
            self.block_width, length,
            self.bits << (length - self.length) * self.block_width)


# The slot descriptors, which set a field of the frozen class directly.
_set_width = BlockSequence.block_width.__set__
_set_length = BlockSequence.length.__set__
_set_bits = BlockSequence.bits.__set__


def parse_blocks(text: str, width=None) -> BlockSequence:
    """Parse whitespace-separated bit blocks, e.g. "001 000 011 010 000".

    The joined text and the block lengths are checked whole; only a failed
    check scans block by block, to name the first bad block, and a block
    that is not a bit string is named before one of the wrong width."""
    parts = text.split()
    if not parts:
        raise ValueError("empty block sequence")
    joined = "".join(parts)
    if joined.count("0") + joined.count("1") != len(joined):
        k, part = next((k, part) for k, part in enumerate(parts, 1)
                       if part.strip("01"))
        raise ValueError(f"block {k}: {part!r} is not a bit string")
    w = width if width is not None else len(parts[0])
    if set(map(len, parts)) != {w}:
        k, part = next((k, part) for k, part in enumerate(parts, 1)
                       if len(part) != w)
        raise ValueError(f"block {k}: expected width {w}, got {len(part)}")
    return BlockSequence(w, len(parts), int(joined, 2))


def columns(seq: BlockSequence) -> list:
    """Each component of seq as a polynomial over time: bit t of the j-th
    int is component j + 1 of block t + 1."""
    w = seq.block_width
    text = format(seq.bits, f"0{w * seq.length}b")
    return [int("0" + text[j::w][::-1], 2) for j in range(w)]


def from_columns(width: int, length: int, polys) -> BlockSequence:
    """The sequence of length blocks whose components over time are polys,
    the inverse of columns; terms from D^length on are dropped."""
    rows = [format(p & (1 << length) - 1, f"0{length}b")[::-1]
            for p in polys]
    return BlockSequence(
        width, length, int("0" + "".join(map("".join, zip(*rows))), 2))


def block_values(bits: int, width: int, length: int):
    """The length blocks of width bits packed in bits, in order, as ints.
    Each is cut from one text of bits, so no block costs a shift of the
    whole int, and nothing is made before the first block is asked for."""
    text = format(bits, f"0{width * length}b")
    for i in range(0, width * length, width):
        yield int(text[i:i + width], 2)


# Texts are read chunk by chunk, at most _CHUNK_BITS bits of blocks at a
# time, from _TABLES[width, blocks in the chunk]: the text of every value of
# such a chunk, so no table holds more than 2^_CHUNK_BITS strings.
_CHUNK_BITS = 6
_TABLES = {}
_shape = attrgetter("block_width", "length")
_bits = attrgetter("bits")


def _chunk_text(width: int, count: int):
    """The function from the value of count blocks of width bits to their
    text; a block wider than a chunk is printed by str.format alone."""
    if width * count > _CHUNK_BITS:
        return f"{{:0{width}b}}".format
    table = _TABLES.get((width, count))
    if table is None:
        spans = range(0, width * count, width)
        table = _TABLES[width, count] = tuple(
            " ".join([text[i:i + width] for i in spans])
            for text in (format(v, f"0{width * count}b")
                         for v in range(1 << width * count)))
    return table.__getitem__


def _format_bits(width: int, length: int, bits) -> list:
    """The text of each packed int of a list of length blocks of width bits.

    The ints are cut into chunks of _CHUNK_BITS // width blocks (one block
    if wider), the first chunk holding the remainder, and each chunk column
    is read from its table by C-level maps over the whole list.
    """
    if not width * length:
        # no bits to print: "" for no blocks, else length - 1 separators
        return [" " * (length - 1)] * len(bits)
    step = max(_CHUNK_BITS // width, 1)
    head = length % step or step
    head_text, text = _chunk_text(width, head), _chunk_text(width, step)
    mask = (1 << step * width) - 1
    cols = []
    for left in range(length - head, -1, -step):
        # left blocks follow the chunk; only the first has no bits above it
        values = map(rshift, bits, repeat(left * width)) if left else bits
        cols.append(map(text, map(and_, values, repeat(mask))) if cols
                    else map(head_text, values))
    return list(map(" ".join, zip(*cols)))


def format_sequences(seqs) -> list:
    """The text of each sequence of a list of sequences of one shape."""
    if len(set(map(_shape, seqs))) > 1:
        for seq in seqs:
            seqs[0].check_shape(seq)
    if not seqs:
        return []
    return _format_bits(*_shape(seqs[0]), list(map(_bits, seqs)))


def format_blocks(seq: BlockSequence) -> str:
    """The text form of seq, e.g. "001 000 011 010"."""
    return _format_bits(seq.block_width, seq.length, (seq.bits,))[0]
