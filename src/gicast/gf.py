"""Finite-field linear algebra for broadcast coding matrices.

Coefficients live in GF(2) or GF(2^8), each with log/antilog tables over a
fixed irreducible polynomial.  GF(2) is a subfield of GF(2^8), and rank does
not change under a field extension, so one elimination kernel, `Echelon`,
serves matrices over both: a row is packed into a Python int, one byte per
column; rows add by XOR and scale through `bytes.translate`.  A coded
matrix built from packed rows, `CodingMatrix.of_packed`, is over GF(2)
exactly when its entries are all 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

__all__ = [
    "Field",
    "field",
    "GF2",
    "GF256",
    "CodingMatrix",
    "Decoding",
    "Decoder",
    "Echelon",
    "pack_row",
    "unpack_row",
    "unit_row",
    "column_mask",
    "scale_row",
    "rank",
    "row_basis",
    "FieldSizeError",
    "mds_generator",
    "mds_rows",
    "residual_rank",
    "conditional_entropy",
    "solve_decode",
]

# Irreducible polynomial (bit i = coefficient of x^i) and a generator of the
# multiplicative group, per supported extension degree.  Degree 8 is
# x^8 + x^4 + x^3 + x + 1, generated by x + 1.
_FIELDS = {1: (0b11, 1), 8: (0b100011011, 3)}


class Field:
    """Arithmetic in GF(2) or GF(2^8).  Elements are ints 0..2^w-1;
    addition is XOR, multiplication goes through log/antilog tables."""

    __slots__ = ("w", "order", "poly", "_exp", "_log")

    def __init__(self, w: int):
        if w not in _FIELDS:
            raise ValueError(f"extension degree must be 1 or 8, got {w}")
        self.w = w
        self.order = 1 << w
        self.poly, gen = _FIELDS[w]
        self._exp, self._log = self._build_tables(gen)

    def _mul_noTable(self, a: int, b: int) -> int:
        """Carry-less multiply modulo the field polynomial (table bootstrap)."""
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & self.order:
                a ^= self.poly
        return r

    def _build_tables(self, g: int) -> tuple[list[int], list[int]]:
        n = self.order - 1
        exp = [0] * (2 * n if n > 1 else 2)
        log = [0] * self.order
        x = 1
        for i in range(n):
            exp[i] = x
            log[x] = i
            x = self._mul_noTable(x, g)
        for i in range(n, len(exp)):
            exp[i] = exp[i - n]
        return exp, log

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp[self.order - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.w == self.w

    def __hash__(self) -> int:
        return hash(("Field", self.w))

    def __repr__(self) -> str:
        return f"GF(2^{self.w})"


@lru_cache(maxsize=None)
def field(w: int) -> Field:
    """Shared Field instance per extension degree, 1 or 8."""
    return Field(w)


GF2 = field(1)
GF256 = field(8)


@dataclass(frozen=True)
class CodingMatrix:
    """Immutable matrix over GF(2) or GF(2^8); rows[r][c] is the coefficient of packet
    c+1 in coded symbol r."""

    field: Field
    ncols: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.ncols < 1:
            raise ValueError("matrix needs at least one column")
        for r, row in enumerate(self.rows):
            if len(row) != self.ncols:
                raise ValueError(f"row {r} has {len(row)} entries, expected {self.ncols}")
            for e in row:
                if not 0 <= e < self.field.order:
                    raise ValueError(f"row {r} entry {e} outside {self.field}")

    @staticmethod
    def of_packed(ncols: int, rows: Sequence[int]) -> "CodingMatrix":
        """The matrix of rows packed as by `pack_row`, over GF(2) exactly
        when every entry is 0 or 1 and over GF(2^8) otherwise.  The packed
        rows are kept as `packed`."""
        high = ((1 << 8 * ncols) - 1) // 0xFF * 0xFE  # 0xFE in every byte
        fld = GF256 if any(row & high for row in rows) else GF2
        M = CodingMatrix(fld, ncols, tuple(unpack_row(row, ncols) for row in rows))
        M.__dict__["packed"] = tuple(rows)  # the `packed` cache, filled in advance
        return M

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @cached_property
    def packed(self) -> tuple[int, ...]:
        """The rows packed by `pack_row`, computed on first use and kept, so
        every `Decoder` of this matrix packs it only once."""
        return tuple(map(pack_row, self.rows))

    def dump(self) -> str:
        """One row per line, space-separated field elements in decimal."""
        return "\n".join(" ".join(str(e) for e in row) for row in self.rows)


def pack_row(row: Sequence[int]) -> int:
    """A row of field elements as an `Echelon` row: byte c holds column c."""
    return int.from_bytes(bytes(row), "little")


def unpack_row(row: int, ncols: int) -> tuple[int, ...]:
    """The first ncols columns of a packed row."""
    return tuple(row.to_bytes(ncols, "little"))


def unit_row(p: int) -> int:
    """Packed unit row of packet p (1-based)."""
    return 1 << 8 * (p - 1)


def column_mask(packets: Iterable[int]) -> int:
    """Packed row with byte 0xFF at the column of every packet."""
    return 0xFF * sum(unit_row(p) for p in set(packets))


def _scale_tables() -> list[bytes]:
    """Table f maps every byte x to f * x in GF(2^8), for `bytes.translate`.
    For x != 0, f * x = exp[log f + log x], so translating the logs of
    1..255 through the powers from exp[log f] on gives the table."""
    exp, log = bytes(GF256._exp), GF256._log
    logs = bytes(log[1:])
    tables = [bytes(256)]
    for f in range(1, 256):
        powers = exp[log[f]:log[f] + 255] + b"\0"  # no log is 255
        tables.append(b"\0" + logs.translate(powers))
    return tables


_SCALE = _scale_tables()


def scale_row(row: int, f: int, width: int) -> int:
    """Each of the first `width` bytes of a packed row times f in GF(2^8)."""
    return int.from_bytes(row.to_bytes(width, "little").translate(_SCALE[f]), "little")


class Echelon:
    """Row echelon basis over GF(2^8), so also over its subfield GF(2).

    Rows are packed as by `pack_row`.  Each basis row is keyed by its pivot,
    its first nonzero column, and scaled to 1 there.  Only the first `ncols`
    columns are eliminated.  The bytes above them, up to `width` bytes in
    all, ride along: an identity appended there records how a remainder
    combines the inserted rows."""

    __slots__ = ("pivots", "_data", "_width")

    def __init__(self, ncols: int, width: int | None = None):
        self.pivots: dict[int, int] = {}
        self._data = (1 << 8 * ncols) - 1
        self._width = ncols if width is None else width

    def __len__(self) -> int:
        return len(self.pivots)

    def copy(self) -> "Echelon":
        new = Echelon.__new__(Echelon)
        new.pivots = dict(self.pivots)
        new._data = self._data
        new._width = self._width
        return new

    def _reduce(self, row: int) -> tuple[int, int]:
        """Subtract pivot rows until the first nonzero column has no pivot;
        returns the remainder and that column, or -1 once the eliminated
        columns are all zero."""
        pivots = self.pivots
        data = self._data
        while True:
            v = row & data
            if not v:
                return row, -1
            c = ((v & -v).bit_length() - 1) >> 3
            p = pivots.get(c)
            if p is None:
                return row, c
            f = (v >> 8 * c) & 0xFF
            row ^= p if f == 1 else scale_row(p, f, self._width)

    def reduce(self, row: int) -> int:
        """Row less the pivot rows subtracted until its first nonzero column
        has no pivot; its first `ncols` columns are all zero iff row lies in
        the span."""
        return self._reduce(row)[0]

    def insert(self, row: int) -> int | None:
        """Add row's remainder to the basis and return its pivot column;
        None, with the basis unchanged, when row lies in the span."""
        row, c = self._reduce(row)
        if c < 0:
            return None
        f = (row >> 8 * c) & 0xFF
        self.pivots[c] = row if f == 1 else scale_row(row, GF256.inv(f), self._width)
        return c


def rank(M: CodingMatrix) -> int:
    """Rank of M over its field."""
    ech = Echelon(M.ncols)
    for row in M.packed:
        ech.insert(row)
    return len(ech)


def row_basis(M: CodingMatrix) -> CodingMatrix:
    """Greedy maximal independent subset of M's rows, kept in original order.
    Every dropped row is a linear combination of the kept ones.  The basis
    gets its own field from `CodingMatrix.of_packed`: GF(2) when its rows
    are all 0/1, even when a dropped row was not."""
    ech = Echelon(M.ncols)
    keep = [row for row in M.packed if ech.insert(row) is not None]
    return CodingMatrix.of_packed(M.ncols, keep)


class FieldSizeError(ValueError):
    """The field has too few elements for the requested MDS code."""


def mds_generator(n: int, r: int, fld: Field) -> CodingMatrix:
    """Generator matrix of an (n, r) MDS code: r x n with every r x r
    submatrix invertible.  r=1 gives the all-ones parity row, r=n the
    identity; otherwise the Cauchy rows 1/(a_i + b_j) with a_i = i and
    b_j = r + j (char 2: + is XOR), which need 2^w >= n + r; a smaller
    field raises FieldSizeError."""
    if n < 1 or r < 1:
        raise ValueError("matrix dimensions must be positive")
    if r > n:
        raise ValueError(f"need r <= n, got r={r} n={n}")
    if r == n:
        rows = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(r))
    elif r == 1:
        rows = ((1,) * n,)
    else:
        if fld.order < n + r:
            raise FieldSizeError(f"{fld} too small for a Cauchy matrix: need order >= {n + r}")
        rows = tuple(tuple(fld.inv(i ^ (r + j)) for j in range(n)) for i in range(r))
    return CodingMatrix(fld, n, rows)


def mds_rows(rows: Sequence[int], r: int) -> list[int]:
    """r MDS-coded rows from n packed 0/1 content rows, combined by the rows
    of `mds_generator(n, r, GF256)`: the rows themselves when r = n, their
    XOR when r = 1, the Cauchy combinations in between."""
    if r == len(rows):
        return list(rows)
    out = []
    for coeffs in mds_generator(len(rows), r, GF256).rows:
        acc = 0
        for f, row in zip(coeffs, rows):
            acc ^= f * row  # every byte of row is 0 or 1, so this scales it by f
        out.append(acc)
    return out


def residual_rank(rows: Iterable[int], known: Iterable[int], ncols: int) -> int:
    """Rank of packed rows once the columns of the known packets are zeroed:
    what the rows still tell a receiver holding those packets."""
    unknown = ~column_mask(known)
    ech = Echelon(ncols)
    for row in rows:
        ech.insert(row & unknown)
    return len(ech)


def conditional_entropy(M: CodingMatrix, known: Iterable[int]) -> int:
    """Residual information in M's rows for a receiver holding the packets in
    `known` (1-based): rank after zeroing the known columns."""
    kset = set(known)
    for p in kset:
        if not 1 <= p <= M.ncols:
            raise ValueError(f"known packet {p} outside 1..{M.ncols}")
    return residual_rank(M.packed, kset, M.ncols)


@dataclass(frozen=True)
class Decoding:
    """Certificate that a unit vector lies in span(rows + known units):
    e_target = sum(row_coeffs[r] * rows[r]) + sum(c * e_p for (p, c))."""

    target: int
    row_coeffs: tuple[int, ...]
    known_coeffs: tuple[tuple[int, int], ...]


class Decoder:
    """Decodings of one matrix for any number of receivers from a single
    elimination of its rows.

    Row r is inserted into a shared `Echelon` with a 1 in tail slot r, and
    the unit row of packet p, reduced once against it and cached, carries a
    1 in tail slot nrows + p - 1; the tail of every remainder then records
    how it combines the rows and the unit rows.  A receiver copies the shared
    echelon, inserts the remainders of its side packets, and reduces the
    remainder of its target.  The copy is needed: `Echelon.reduce` stops at
    the first column without a pivot, so a remainder may still hold columns
    that only the shared rows eliminate."""

    __slots__ = ("ncols", "nrows", "_ech", "_units", "_unit_tag")

    def __init__(self, M: CodingMatrix):
        m = self.ncols = M.ncols
        n = self.nrows = M.nrows
        ech = self._ech = Echelon(m, 2 * m + n)
        tag = unit_row(m + 1)
        for row in M.packed:
            ech.insert(row | tag)
            tag <<= 8
        # e_1 with its tag; shifted up by p - 1 bytes, it is e_p with its tag
        self._unit_tag = tag | 1
        self._units: dict[int, int] = {}

    def _unit(self, p: int) -> int:
        """Remainder of the tagged e_p against the rows, cached; never 0,
        since its tag is set."""
        rem = self._units[p] = self._ech.reduce(self._unit_tag << 8 * (p - 1))
        return rem

    def decode(self, known: Iterable[int], target: int) -> Decoding | None:
        """Express e_target as a combination of the rows and the unit
        vectors of the known packets; None when the target is outside the
        span."""
        m = self.ncols
        if not 1 <= target <= m:
            raise ValueError(f"target packet {target} outside 1..{m}")
        kcols = sorted(set(known))
        if target in kcols:
            raise ValueError(f"target packet {target} already known")
        if kcols and not (1 <= kcols[0] and kcols[-1] <= m):
            raise ValueError(f"known packets {kcols} outside 1..{m}")
        ech = self._ech.copy()
        insert, units = ech.insert, self._units
        for p in kcols:
            insert(units.get(p) or self._unit(p))
        rem = ech.reduce(units.get(target) or self._unit(target))
        if rem & ((1 << 8 * m) - 1):
            return None
        n = self.nrows
        tail = (rem >> 8 * m).to_bytes(n + m, "little")
        return Decoding(
            target=target,
            row_coeffs=tuple(tail[:n]),
            known_coeffs=tuple((p, tail[n + p - 1]) for p in kcols),
        )


def solve_decode(M: CodingMatrix, known: Iterable[int], target: int) -> Decoding | None:
    """Express e_target as a combination of M's rows and the unit vectors of
    the known packets; None when the target is outside the span.  One
    receiver's `Decoder.decode`."""
    return Decoder(M).decode(known, target)
