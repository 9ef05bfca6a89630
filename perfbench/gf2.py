"""The benchmark's own GF(2)[D] arithmetic.

The correctness checks use these helpers instead of the functions being
timed, so a bug in the program cannot also hide the evidence of itself.  A
polynomial is an int, bit i holding the coefficient of D^i; a column of a
block sequence is read the same way, bit t holding the block at time t.
"""

from __future__ import annotations


def clmul(a: int, b: int) -> int:
    """Carry-less product."""
    r = 0
    while b:
        low = b & -b
        r ^= a << (low.bit_length() - 1)
        b ^= low
    return r


def degree(p: int) -> int:
    return p.bit_length() - 1


def delay(p: int) -> int:
    return (p & -p).bit_length() - 1


def poly_text(p: int) -> str:
    """The program's polynomial grammar, e.g. 1+D+D^6."""
    terms = [("1" if i == 0 else "D" if i == 1 else f"D^{i}")
             for i in range(p.bit_length()) if p >> i & 1]
    return "+".join(terms) or "0"


def matrix_text(rows) -> str:
    return ";".join(",".join(poly_text(e) for e in row) for row in rows)


def columns(blocks_text: str, width: int) -> list:
    """Split a block sequence such as "01 11 00" into one int per column."""
    cols = [0] * width
    for t, blk in enumerate(blocks_text.split()):
        if len(blk) != width or blk.strip("01"):
            raise ValueError(f"block {t + 1} is not {width} bits: {blk!r}")
        for j, c in enumerate(blk):
            if c == "1":
                cols[j] |= 1 << t
    return cols


def blocks_text(cols, length: int) -> str:
    """Inverse of columns()."""
    return " ".join("".join(str(c >> t & 1) for c in cols)
                    for t in range(length))


def nu(rows) -> int:
    """Overall constraint length: the sum of the row degrees."""
    return sum(max((degree(e) for e in row if e), default=0) for row in rows)


def times_transpose(a_rows, b_rows):
    """A * B^T over GF(2)[D]."""
    out = []
    for ra in a_rows:
        line = []
        for rb in b_rows:
            s = 0
            for x, y in zip(ra, rb):
                s ^= clmul(x, y)
            line.append(s)
        out.append(line)
    return out
