import re

import pytest

from shifttrellis import BlockSequence, format_blocks, parse_blocks
from shifttrellis.blocks import block_values


def test_parse_format_round_trip():
    z = parse_blocks("001 000 011 010")
    assert z.block_width == 3
    assert len(z) == 4
    assert format_blocks(z) == "001 000 011 010"


def test_explicit_width():
    z = parse_blocks("00 10", width=2)
    assert z.block_width == 2
    with pytest.raises(ValueError):
        parse_blocks("001 000", width=2)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_blocks("001 01")
    with pytest.raises(ValueError):
        parse_blocks("0a1")
    with pytest.raises(ValueError):
        parse_blocks("")


def test_parse_error_names_the_first_bad_block():
    # a block that is not a bit string is named before one of the wrong
    # width, even a later one; int() would take the last two
    for text, message in (
            ("00 001 0a 2", "block 3: '0a' is not a bit string"),
            ("0 0_1", "block 2: '0_1' is not a bit string"),
            ("1 +1", "block 2: '+1' is not a bit string"),
            ("00 001 01 1", "block 2: expected width 2, got 3")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_blocks(text)
    with pytest.raises(ValueError, match="^block 1: expected width 3, got 2$"):
        parse_blocks("00 001", width=3)


def test_indexing():
    z = parse_blocks("001 000 011 010")
    assert list(block_values(z.bits, 3, 4)) == [0b001, 0b000, 0b011, 0b010]
    # bit(t, j) is 1-based on both axes
    assert z.bit(1, 3) == 1
    assert z.bit(3, 2) == 1
    assert z.bit(3, 1) == 0


def test_xor():
    a = parse_blocks("001 000")
    b = parse_blocks("011 010")
    assert format_blocks(a ^ b) == "010 010"
    assert format_blocks(a ^ a) == "000 000"
    with pytest.raises(ValueError):
        a ^ parse_blocks("01 00", width=2)
    with pytest.raises(ValueError):
        a ^ parse_blocks("001", width=3)


def test_repr_is_text_form():
    assert repr(parse_blocks("001 000")) == "<BlockSequence 2x3: 001 000>"
    assert repr(BlockSequence(2, 0, 0)) == "<BlockSequence 0x2: >"


def test_weight():
    assert parse_blocks("001 000 011 010").weight == 4
    assert BlockSequence(3, 5, 0).weight == 0


def test_zero_and_padded():
    z = BlockSequence(2, 3, 0)
    assert format_blocks(z) == "00 00 00"
    p = parse_blocks("001 010").padded(4)
    assert format_blocks(p) == "001 010 000 000"
    assert parse_blocks("001 010").padded(2) == parse_blocks("001 010")
    with pytest.raises(ValueError):
        parse_blocks("001 010").padded(1)


def test_validation():
    with pytest.raises(ValueError):
        parse_blocks("01 101", width=2)
    with pytest.raises(ValueError):
        parse_blocks("02", width=2)
    with pytest.raises(ValueError, match="is not 2 blocks of 2 bits"):
        BlockSequence(2, 2, 16)
