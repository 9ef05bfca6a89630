"""Exact arithmetic over GF(2)[D]: polynomials, matrices, generator/check pairs.

A polynomial is a plain int, bit i holding the coefficient of D^i; the zero
polynomial is 0.  Addition is a single xor and a matrix is a flat tuple of
ints, which is all the sizes in this domain ever need.  Row and column
indices on the matrix helpers are 1-based, matching the convention of the
coding literature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

Poly = int

# Largest exponent parse_poly accepts; D^k costs an int of k + 1 bits.
MAX_EXPONENT = 1024


def degree(p):
    """Degree of p, or None for the zero polynomial (which has no degree)."""
    if p == 0:
        return None
    return p.bit_length() - 1


def exponents(p: Poly) -> list:
    """Exponents of p's nonzero terms, lowest first."""
    out = []
    while p:
        low = p & -p
        out.append(low.bit_length() - 1)
        p ^= low
    return out


def poly_mul(a: Poly, b: Poly) -> Poly:
    """Carry-less product of two coefficient masks."""
    # The set-bit walk of exponents(), inlined: this is the inner loop of
    # every pair and rank check, and building a list per call made it
    # about 1.6 times slower on small operands.
    r = 0
    while b:
        low = b & -b
        r ^= a << (low.bit_length() - 1)
        b ^= low
    return r


def delay(p: Poly) -> int:
    """Largest l such that D^l divides p, i.e. the lowest set exponent."""
    if p == 0:
        raise ValueError("delay undefined for zero")
    return (p & -p).bit_length() - 1


def divide_by_power(p: Poly, l: int) -> Poly:
    """Strip a factor D^l from p.  Errors if p is not divisible by D^l."""
    if p == 0:
        return 0
    if delay(p) < l:
        raise ValueError(
            f"not divisible: {format_poly(p)} has delay {delay(p)}, needs {l}")
    return p >> l


def parse_poly(text: str) -> Poly:
    """Parse terms like "1+D+D^2" (no whitespace).  Repeated terms cancel,
    and an exponent above MAX_EXPONENT is refused."""
    p = 0
    for term in text.split("+"):
        if term == "0":
            continue
        if term == "1":
            p ^= 1
        elif term == "D":
            p ^= 2
        elif term.startswith("D^") and term[2:].isdigit():
            k = int(term[2:])
            if k > MAX_EXPONENT:
                raise ValueError(f"exponent {k} exceeds cap {MAX_EXPONENT}")
            p ^= 1 << k
        else:
            raise ValueError(f"bad polynomial term {term!r}")
    return p


def format_poly(p: Poly) -> str:
    if p == 0:
        return "0"
    return "+".join("1" if i == 0 else "D" if i == 1 else f"D^{i}"
                    for i in exponents(p))


@dataclass(frozen=True)
class PolyMatrix:
    """Immutable matrix over GF(2)[D], entries stored row-major."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        ents = tuple(self.entries)
        if len(ents) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(ents)}")
        if any(not isinstance(e, int) or e < 0 for e in ents):
            raise ValueError("entries must be nonnegative ints")
        object.__setattr__(self, "entries", ents)

    def entry(self, i: int, j: int) -> Poly:
        """Entry at row i, column j, both 1-based."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"({i},{j}) outside {self.rows}x{self.cols}")
        return self.entries[(i - 1) * self.cols + (j - 1)]

    def row(self, i: int) -> tuple:
        if not 1 <= i <= self.rows:
            raise IndexError(f"row {i} outside 1..{self.rows}")
        return self.entries[(i - 1) * self.cols:i * self.cols]

    def column(self, j: int) -> tuple:
        if not 1 <= j <= self.cols:
            raise IndexError(f"column {j} outside 1..{self.cols}")
        return self.entries[j - 1::self.cols]


def matrix(rows) -> PolyMatrix:
    """Build a PolyMatrix from an iterable of rows of ints."""
    rows = [tuple(r) for r in rows]
    return PolyMatrix(len(rows), len(rows[0]) if rows else 0,
                      tuple(e for r in rows for e in r))


def parse_matrix(text: str) -> PolyMatrix:
    """Parse the matrix grammar: rows split by ";", entries by ","."""
    raw = [r.split(",") for r in text.strip().split(";")]
    width = len(raw[0])
    ents = []
    for i, r in enumerate(raw, 1):
        if len(r) != width:
            raise ValueError(
                f"ragged matrix: row 1 has {width} entries, row {i} has {len(r)}")
        for j, term in enumerate(r, 1):
            try:
                ents.append(parse_poly(term))
            except ValueError as exc:
                raise ValueError(f"row {i}, entry {j}: {exc}") from None
    return PolyMatrix(len(raw), width, tuple(ents))


def format_matrix(M: PolyMatrix) -> str:
    return ";".join(
        ",".join(format_poly(e) for e in M.row(i)) for i in range(1, M.rows + 1))


def column_delay(M: PolyMatrix, j: int):
    """Largest power of D dividing every entry of column j (zeros ignored).

    An all-zero column is divisible by every power, so like degree(0) it
    has no value and the result is None.
    """
    return min((delay(e) for e in M.column(j) if e), default=None)


def row_delay(M: PolyMatrix, i: int) -> int:
    ds = [delay(e) for e in M.row(i) if e]
    if not ds:
        raise ValueError(f"row delay undefined: row {i} is all zero")
    return min(ds)


def row_degree(M: PolyMatrix, i: int) -> int:
    """Constraint length of row i: its largest entry degree, 0 for a zero row."""
    return max((degree(e) for e in M.row(i) if e), default=0)


def memory(M: PolyMatrix) -> int:
    """Largest row degree, the flush length of the obvious realization."""
    return max(row_degree(M, i) for i in range(1, M.rows + 1))


def overall_constraint_length(M: PolyMatrix) -> int:
    """Sum of row degrees; log2 of the obvious realization's state count."""
    return sum(row_degree(M, i) for i in range(1, M.rows + 1))


def mat_mul_transpose(A: PolyMatrix, B: PolyMatrix) -> PolyMatrix:
    """A * B^T, the bilinear form behind every pair check here."""
    if A.cols != B.cols:
        raise ValueError(f"column counts differ: {A.cols} and {B.cols}")
    ents = []
    for p in range(1, A.rows + 1):
        for q in range(1, B.rows + 1):
            s = 0
            for a, b in zip(A.row(p), B.row(q)):
                s ^= poly_mul(a, b)
            ents.append(s)
    return PolyMatrix(A.rows, B.rows, tuple(ents))


def full_row_rank(M: PolyMatrix) -> bool:
    """True iff the rows of M are independent over the field of fractions."""
    # Fraction-free elimination: scale rows by pivot entries instead of
    # dividing, which never leaves GF(2)[D] and preserves rank over the
    # fraction field.
    rows = [list(M.row(i)) for i in range(1, M.rows + 1)]
    rank = 0
    for col in range(M.cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pe = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            re = rows[r][col]
            if re:
                rows[r] = [poly_mul(pe, x) ^ poly_mul(re, y)
                           for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank == M.rows


def check_gh_relation(G: PolyMatrix, H: PolyMatrix) -> bool:
    """True iff G and H form a GHPair: matching column counts, row counts
    adding up to n, G * H^T = 0 and both matrices of full row rank."""
    return GHPair.fault(G, H) is None


def reciprocal_dual(H: PolyMatrix) -> PolyMatrix:
    """Row-wise coefficient reversal: row i maps h(D) to D^(nu_i) h(1/D).

    With nu_i the row degree, each entry's coefficients are mirrored inside
    a window of width nu_i + 1.  Applying it twice is the identity whenever
    every row is delay free.
    """
    ents = []
    for i in range(1, H.rows + 1):
        row = H.row(i)
        if not any(row):
            raise ValueError(f"reciprocal dual undefined: row {i} is all zero")
        nu = row_degree(H, i)
        ents.extend(sum(1 << (nu - d) for d in exponents(e)) for e in row)
    return PolyMatrix(H.rows, H.cols, tuple(ents))


@dataclass(frozen=True)
class GHPair:
    """A generator matrix with its matching parity-check matrix.

    Construction insists on the row counts adding up to the column count,
    on G * H^T = 0 and on both matrices having full row rank, so a GHPair
    is always a valid (n, n-m) code pair.
    """

    G: PolyMatrix
    H: PolyMatrix

    def __post_init__(self):
        fault = GHPair.fault(self.G, self.H)
        if fault:
            raise ValueError(fault)

    @staticmethod
    def fault(G: PolyMatrix, H: PolyMatrix):
        """The first pair rule G and H break, as a message, or None if they
        form a pair.  The rules, in order: equal column counts, row counts
        adding up to n, G * H^T = 0, G and then H of full row rank."""
        if G.cols != H.cols:
            return f"column counts differ: {G.cols} and {H.cols}"
        if G.rows + H.rows != G.cols:
            return f"row counts {G.rows}+{H.rows} do not add up to n={G.cols}"
        prod = mat_mul_transpose(G, H)
        for p in range(1, prod.rows + 1):
            for q in range(1, prod.cols + 1):
                e = prod.entry(p, q)
                if e:
                    return (f"G*H^T is not zero: entry ({p},{q}) = "
                            f"{format_poly(e)}")
        for name, M in (("G", G), ("H", H)):
            if not full_row_rank(M):
                return f"{name} is not full row rank"
        return None

    @property
    def n(self) -> int:
        return self.G.cols

    @cached_property
    def nu(self) -> tuple:
        """(nu(G), nu(H)), computed once per pair."""
        return tuple(map(overall_constraint_length, (self.G, self.H)))
