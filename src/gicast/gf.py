"""Finite-field linear algebra for broadcast coding matrices.

Coefficients live in GF(2) or GF(2^8), both multiplied through one GF(2^8)
log/antilog table built at import.  GF(2) is a subfield of GF(2^8), and rank
does not change under a field extension, so one elimination kernel, `Echelon`,
serves matrices over both: a row is packed into a Python int, one byte per
column; rows add by XOR and scale through `bytes.translate`.  A coded
matrix built from packed rows, `CodingMatrix.of_packed`, is over GF(2)
exactly when its entries are all 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence

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
    "scale_row",
    "rank",
    "row_basis",
    "FieldSizeError",
    "mds_generator",
    "mds_rows",
    "residual_rank",
    "solve_decode",
]


def _tables() -> tuple[list[int], list[int]]:
    """Antilog and log tables of GF(2^8) modulo x^8 + x^4 + x^3 + x + 1,
    whose multiplicative group x + 1 generates: exp[i] = (x + 1)^i, written
    out to 510 entries so a sum of two logs needs no reduction."""
    exp = [0] * 510
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = exp[i + 255] = x
        log[x] = i
        x ^= x << 1  # times x + 1
        if x & 0x100:
            x ^= 0x11B
    return exp, log


_EXP, _LOG = _tables()


class Field:
    """Arithmetic in GF(2) or GF(2^8).  Elements are ints 0..2^w-1;
    addition is XOR, multiplication goes through the one GF(2^8) log/antilog
    table, which GF(2) shares as its subfield {0, 1}."""

    __slots__ = ("w", "order")

    def __init__(self, w: int):
        if w not in (1, 8):
            raise ValueError(f"extension degree must be 1 or 8, got {w}")
        self.w = w
        self.order = 1 << w

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return _EXP[_LOG[a] + _LOG[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return _EXP[255 - _LOG[a]]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        return _EXP[_LOG[a] * e % 255]

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
        return "\n".join(" ".join(map(str, row)) for row in self.rows)


def pack_row(row: Sequence[int]) -> int:
    """A row of field elements as an `Echelon` row: byte c holds column c."""
    return int.from_bytes(bytes(row), "little")


def unpack_row(row: int, ncols: int) -> tuple[int, ...]:
    """The first ncols columns of a packed row."""
    return tuple(row.to_bytes(ncols, "little"))


def unit_row(p: int) -> int:
    """Packed unit row of packet p (1-based)."""
    return 1 << 8 * (p - 1)


def _scale_tables() -> list[bytes]:
    """Table f maps every byte x to f * x in GF(2^8), for `bytes.translate`.
    For x != 0, f * x = exp[log f + log x], so translating the logs of
    1..255 through the powers from exp[log f] on gives the table."""
    exp, log = bytes(_EXP), _LOG
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
    columns are eliminated, or the columns of the byte mask `_data`, which
    `Decoder` narrows for each receiver.  The bytes above them, up to
    `width` bytes in all, ride along: an identity appended there records
    how a remainder combines the inserted rows.  An insert never changes
    the rows already there, so deleting the pivots it returned undoes it.
    `_reduce` is the one loop that subtracts pivot rows; `insert` and
    `residue` are built on it."""

    __slots__ = ("pivots", "_data", "_width")

    def __init__(self, ncols: int, width: int | None = None):
        self.pivots: dict[int, int] = {}
        self._data = (1 << 8 * ncols) - 1
        self._width = ncols if width is None else width

    def __len__(self) -> int:
        return len(self.pivots)

    def _reduce(self, row: int, cols: int) -> tuple[int, int]:
        """Subtract pivot rows until the first nonzero column of `cols` (a
        byte mask) has no pivot; returns the remainder and that column, or
        -1 once the columns of `cols` are all zero."""
        pivots = self.pivots
        while True:
            v = row & cols
            if not v:
                return row, -1
            c = ((v & -v).bit_length() - 1) >> 3
            p = pivots.get(c)
            if p is None:
                return row, c
            f = (v >> 8 * c) & 0xFF
            row ^= p if f == 1 else scale_row(p, f, self._width)

    def residue(self, row: int) -> int:
        """Row less the pivot rows at every pivot column, in ascending order:
        zero in every pivot column, 0 iff row lies in the span, and the same
        for two rows iff their difference lies in the span."""
        cols = self._data
        while True:
            row, c = self._reduce(row, cols)
            if c < 0:
                return row
            cols &= -1 << 8 * (c + 1)  # go on past the column without a pivot

    def insert(self, row: int) -> int | None:
        """Add row's remainder to the basis and return its pivot column;
        None, with the basis unchanged, when row lies in the span."""
        row, c = self._reduce(row, self._data)
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
    b_j = r + j (char 2: + is XOR) where 2^w >= n + r, and else the
    Reed-Solomon rows (j + 1)^i, whose columns are Vandermonde columns on
    distinct nonzero points, so 2^w > n.  A field too small for both
    raises FieldSizeError."""
    if n < 1 or r < 1:
        raise ValueError("matrix dimensions must be positive")
    if r > n:
        raise ValueError(f"need r <= n, got r={r} n={n}")
    if r == n:
        rows = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(r))
    elif r == 1:
        rows = ((1,) * n,)
    elif n + r <= fld.order:
        rows = tuple(tuple(fld.inv(i ^ (r + j)) for j in range(n)) for i in range(r))
    elif n < fld.order:
        rows = tuple(tuple(fld.pow(j + 1, i) for j in range(n)) for i in range(r))
    else:
        raise FieldSizeError(f"{fld} too small for an MDS code of length {n}")
    return CodingMatrix(fld, n, rows)


@lru_cache(maxsize=None)
def _mds_coeffs(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    """The rows of `mds_generator(n, r, GF256)`, built and checked once per
    shape."""
    return mds_generator(n, r, GF256).rows


def mds_rows(rows: Sequence[int], r: int) -> list[int]:
    """r MDS-coded rows from n packed 0/1 content rows, combined by the rows
    of `mds_generator(n, r, GF256)`: the rows themselves when r = n, their
    XOR when r = 1, the Cauchy or Reed-Solomon combinations in between."""
    if r == len(rows):
        return list(rows)
    out = []
    for coeffs in _mds_coeffs(len(rows), r):
        acc = 0
        for f, row in zip(coeffs, rows):
            acc ^= f * row  # every byte of row is 0 or 1, so this scales it by f
        out.append(acc)
    return out


def residual_rank(rows: Iterable[int], known: Iterable[int], ncols: int) -> int:
    """Rank of packed rows once the columns of the known packets are zeroed:
    what the rows still tell a receiver holding those packets."""
    unknown = ~(0xFF * sum(unit_row(p) for p in set(known)))
    ech = Echelon(ncols)
    for row in rows:
        ech.insert(row & unknown)
    return len(ech)


class Decoding(NamedTuple):
    """Certificate that a unit vector lies in span(rows + known units):
    e_target = sum(row_coeffs[r] * rows[r]) + sum(c * e_p for (p, c))."""

    target: int
    row_coeffs: tuple[int, ...]
    known_coeffs: tuple[tuple[int, int], ...]


class Decoder:
    """Decodings of one matrix for any number of receivers from a single
    elimination of its rows.

    Row r of the matrix goes into one echelon with a 1 in tail slot r, so
    the tail of every combination records how it combines the rows.  The
    echelon is then reduced once: right to left, each pivot row is
    reduced against the other pivot rows at their columns, so a pivot row
    is zero in every other pivot column.  A receiver with side set S and
    target t then eliminates only the columns that have no pivot row and
    are not in S.  It inserts the pivot rows at its side columns, in
    ascending order, into an echelon over just those columns, and reduces
    e_t less the pivot row at t there.  The target decodes iff that
    remainder is zero on those columns.  The remainder is then e_t plus a
    combination of the rows, recorded in its tail, and is zero outside S,
    so its byte at each side column is that side packet's coefficient.  A
    receiver with no column to eliminate inserts nothing.  A receiver
    leaves the shared pivot rows as they were, so any number of receivers
    can share one decoder."""

    __slots__ = ("ncols", "nrows", "_pivots", "_free")

    def __init__(self, M: CodingMatrix):
        m = self.ncols = M.ncols
        n = self.nrows = M.nrows
        ech = Echelon(m, m + n)
        tag = unit_row(m + 1)
        for row in M.packed:
            ech.insert(row | tag)
            tag <<= 8
        pivots = self._pivots = ech.pivots
        cols = sum(0xFF << 8 * c for c in pivots)
        self._free = (ech._data ^ cols).to_bytes(m, "little")  # 0xFF at each column without a pivot row
        # Right to left, each pivot row less the pivot rows at the other
        # pivot columns: those right of it are already reduced, and those left
        # of it are never reached, since a pivot row is zero before its column.
        for c in sorted(pivots, reverse=True):
            pivots[c] = ech._reduce(pivots[c], cols ^ (0xFF << 8 * c))[0]

    def decode(self, known: Iterable[int], target: int) -> Decoding | None:
        """Express e_target as a combination of the rows and the unit
        vectors of the known packets; None when the target is outside the
        span.  One receiver of `decode_all`."""
        return self.decode_all([(known, target)])[0]

    def decode_all(self, receivers: Iterable[tuple[Iterable[int], int]]) -> list[Decoding | None]:
        """`decode(known, target)` of every (known, target) pair, in input
        order.  Every receiver is checked before any is decoded."""
        m, n = self.ncols, self.nrows
        jobs = []
        for known, target in receivers:
            if not 1 <= target <= m:
                raise ValueError(f"target packet {target} outside 1..{m}")
            kcols = sorted(set(known))
            if target in kcols:
                raise ValueError(f"target packet {target} already known")
            if kcols and not (1 <= kcols[0] and kcols[-1] <= m):
                raise ValueError(f"known packets {kcols} outside 1..{m}")
            jobs.append((kcols, target))
        out: list[Decoding | None] = []
        ech = Echelon(m, m + n)  # one receiver echelon, cleared for each receiver
        held, insert = ech.pivots, ech.insert
        pivots, free = self._pivots, self._free
        for kcols, target in jobs:
            lacks = bytearray(free)
            for p in kcols:
                lacks[p - 1] = 0
            cols = int.from_bytes(lacks, "little")
            rem = unit_row(target) ^ pivots.get(target - 1, 0)
            if cols:
                held.clear()
                ech._data = cols
                for p in kcols:
                    if p - 1 in pivots:
                        insert(pivots[p - 1])
                rem, c = ech._reduce(rem, cols)
                if c >= 0:
                    out.append(None)
                    continue
            coeffs = rem.to_bytes(m + n, "little")
            out.append(Decoding(target, tuple(coeffs[m:]), tuple([(p, coeffs[p - 1]) for p in kcols])))
        return out


def solve_decode(M: CodingMatrix, known: Iterable[int], target: int) -> Decoding | None:
    """Express e_target as a combination of M's rows and the unit vectors of
    the known packets; None when the target is outside the span.  One
    receiver of `Decoder(M)`: build the decoder once to certify many."""
    return Decoder(M).decode(known, target)
