"""Finite-field linear algebra for broadcast coding matrices.

Coefficients live in GF(2) or GF(2^8), both multiplied through one GF(2^8)
log/antilog table built at import.  One elimination kernel, `Echelon`,
serves matrices over both.  A row is packed into a Python int in one of two
packings, and rows add by XOR in either:

- one byte per column, byte c holding column c (`pack_row`): any GF(2^8)
  entry, with rows scaled through `bytes.translate`;
- one bit per column, bit c holding column c (`bit_row`): 0/1 entries,
  where every nonzero coefficient is 1 and no row is ever scaled.

GF(2) is a subfield of GF(2^8), and rank does not change under a field
extension, so either packing gives a 0/1 matrix's GF(2) rank.  `rank`,
`row_basis` and `Decoder` eliminate a matrix over GF(2) on its bit-packed
rows, `CodingMatrix.packed_bits`, and one over GF(2^8) on its byte rows.  A
coded matrix built from packed rows, `CodingMatrix.of_packed`, is over GF(2)
exactly when its entries are all 0 or 1.

Only `Echelon` and `_echelon_rows` know how a row is packed, so one path of
`Decoder` decodes both packings.

Side sets are column bitmasks, bit c for packet c + 1, made from packets only
by `_known_columns`: for `GicInstance.packet_masks`, and in `Decoder.decode`
and `decode_all`.
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
    "bit_row",
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

    @cached_property
    def packed_bits(self) -> tuple[int, ...]:
        """The rows of a matrix over GF(2) packed one bit per column by
        `bit_row`: the rows that `rank`, `row_basis` and `Decoder` eliminate.
        Computed on first use and kept, like `packed`."""
        if self.field.w != 1:
            raise ValueError(f"bit-packed rows need a matrix over GF(2), not {self.field}")
        return tuple(bit_row(row, self.ncols) for row in self.packed)

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


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def bit_row(row: int, ncols: int) -> int:
    """A packed 0/1 row of ncols columns, one byte per column, repacked one
    bit per column: bit c holds column c."""
    return int(row.to_bytes(ncols, "big").translate(_DIGITS), 2)


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
_WHOLE = bytes.maketrans(b"01", b"\0\xff")
_ENTRIES = bytes.maketrans(b"01", b"\0\1")


def scale_row(row: int, f: int, width: int) -> int:
    """Each of the first `width` bytes of a packed row times f in GF(2^8)."""
    return int.from_bytes(row.to_bytes(width, "little").translate(_SCALE[f]), "little")


class Echelon:
    """Row echelon basis over GF(2^8), so also over its subfield GF(2).

    Rows are packed `bits` bits per column: 8, as by `pack_row`, for any
    GF(2^8) entries, or 1, as by `bit_row`, for 0/1 entries.  Each basis row
    is keyed by its pivot, its first nonzero column, and scaled to 1 there.
    A coefficient is read through a one-column mask, so on bit rows it is
    always 1 and no row is ever scaled, with no test of the packing.  Only the
    first `ncols` columns are eliminated, or the columns of the mask `_data`
    (all `bits` bits of each), which `Decoder` narrows for each receiver.
    The columns above them, up to `width` columns in all, ride along: an
    identity appended there records how a remainder combines the inserted
    rows.  An insert never changes the rows already there, so deleting the
    pivots it returned undoes it.  `_reduce` is the one loop that subtracts
    pivot rows; `insert` and `residue` are built on it."""

    __slots__ = ("pivots", "_data", "_width", "_shift", "_lane")

    def __init__(self, ncols: int, width: int | None = None, bits: int = 8):
        # column c starts at bit c << _shift; _lane masks one column
        if bits == 8:
            self._shift, self._lane = 3, 0xFF
        elif bits == 1:
            self._shift, self._lane = 0, 1
        else:
            raise ValueError(f"bits per column must be 1 or 8, got {bits}")
        self.pivots: dict[int, int] = {}
        self._data = (1 << bits * ncols) - 1
        self._width = ncols if width is None else width

    def __len__(self) -> int:
        return len(self.pivots)

    def _reduce(self, row: int, cols: int) -> tuple[int, int]:
        """Subtract pivot rows until the first nonzero column of `cols` (a
        mask of whole columns) has no pivot; returns the remainder and that
        column, or -1 once the columns of `cols` are all zero."""
        pivots, shift, lane = self.pivots, self._shift, self._lane
        while True:
            v = row & cols
            if not v:
                return row, -1
            c = ((v & -v).bit_length() - 1) >> shift
            p = pivots.get(c)
            if p is None:
                return row, c
            f = (v >> (c << shift)) & lane  # always 1 on bit rows
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
            cols &= -1 << ((c + 1) << self._shift)  # go on past the column without a pivot

    def insert(self, row: int) -> int | None:
        """Add row's remainder to the basis and return its pivot column;
        None, with the basis unchanged, when row lies in the span."""
        row, c = self._reduce(row, self._data)
        if c < 0:
            return None
        f = (row >> (c << self._shift)) & self._lane
        self.pivots[c] = row if f == 1 else scale_row(row, GF256.inv(f), self._width)
        return c

    def columns(self, mask: int) -> int:
        """The whole columns of a column bitmask, bit c for column c, in
        this packing: the bitmask itself on bit rows, a 0xFF byte per column
        on byte rows."""
        if self._lane == 1:
            return mask
        return int.from_bytes(f"{mask:b}".encode().translate(_WHOLE), "big")

    def coefficients(self, row: int, ncols: int) -> bytes:
        """The first ncols coefficients of a row in this packing, byte c
        holding column c's."""
        if self._lane == 1:
            return f"{row & ((1 << ncols) - 1):0{ncols}b}".encode().translate(_ENTRIES)[::-1]
        return (row & ((1 << 8 * ncols) - 1)).to_bytes(ncols, "little")


def _echelon_rows(M: CodingMatrix, width: int | None = None) -> tuple[Echelon, tuple[int, ...]]:
    """An empty `Echelon` over M's columns, `width` columns wide, in M's
    packing, and M's rows in it: one bit per column over GF(2), one byte
    over GF(2^8)."""
    if M.field.w == 1:
        return Echelon(M.ncols, width, 1), M.packed_bits
    return Echelon(M.ncols, width), M.packed


def _known_columns(known: Iterable[int], m: int) -> int:
    """Known packets as a column bitmask, bit c for packet c + 1.  A packet
    outside 1..m raises ValueError."""
    side = 0
    for p in known:
        if not 1 <= p <= m:
            raise ValueError(f"known packet {p} outside 1..{m}")
        side |= 1 << p
    return side >> 1


def rank(M: CodingMatrix) -> int:
    """Rank of M over its field."""
    ech, rows = _echelon_rows(M)
    for row in rows:
        ech.insert(row)
    return len(ech)


def row_basis(M: CodingMatrix) -> CodingMatrix:
    """Greedy maximal independent subset of M's rows, kept in original order.
    Every dropped row is a linear combination of the kept ones.  The basis
    gets its own field from `CodingMatrix.of_packed`: GF(2) when its rows
    are all 0/1, even when a dropped row was not."""
    ech, rows = _echelon_rows(M)
    keep = [row for row, x in zip(M.packed, rows) if ech.insert(x) is not None]
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


def residual_rank(rows: Iterable[int], side: int, ncols: int) -> int:
    """Rank of packed rows once the columns of a receiver's side mask, bit
    c for packet c + 1, are zeroed: what the rows still tell the receiver,
    eliminated on a mask of the unknown columns as in `Decoder.decode_all`.
    Bits of the mask above the ncols columns are ignored."""
    ech = Echelon(ncols)
    ech._data = ech.columns(((1 << ncols) - 1) & ~side)
    for row in rows:
        ech.insert(row)
    return len(ech)


class Decoding(NamedTuple):
    """Certificate that a unit vector lies in span(rows + known units):
    e_target = sum(row_coeffs[r] * rows[r]) + sum(c * e_p for (p, c))."""

    target: int
    row_coeffs: tuple[int, ...]
    known_coeffs: tuple[tuple[int, int], ...]


class Decoder:
    """Decodings of one matrix, and of its rows' trial payloads, for any
    number of receivers from a single elimination of its rows.

    The rows are eliminated in the matrix's packing: one bit per column over
    GF(2), one byte over GF(2^8).  Row r goes into one echelon with a 1 in
    tail column r, so the tail of every combination records how it combines
    the rows, and with `payloads[r]`, its symbols in `trials` trials, above
    the tail, packed like the rows: one bit per trial over GF(2), one byte
    over GF(2^8).  The echelon is then reduced once, so a pivot row is zero
    in every other pivot column.  A receiver with side set S and target t
    then eliminates only the columns that have no pivot row and are not in
    S.  It inserts the pivot rows at its side columns, in ascending order,
    into an echelon over just those columns, and reduces e_t less the pivot
    row at t there.  The target decodes iff that remainder is zero on those
    columns.  The remainder is then e_t plus a combination of the rows,
    recorded in its tail, with that combination of their symbols on top,
    and is zero outside S, so its column at each side packet is that
    packet's coefficient.  Receivers leave the shared pivot rows unchanged.
    Side sets, pivot columns and free columns are column bitmasks, bit c
    for column c, in either packing."""

    __slots__ = ("ncols", "nrows", "_bits", "_width", "_ech", "_pivots", "_pivot_cols", "_free")

    def __init__(self, M: CodingMatrix, payloads: Sequence[int] = (), trials: int = 0):
        m = self.ncols = M.ncols
        n = self.nrows = M.nrows
        bits = self._bits = M.field.w
        width = self._width = m + n + trials
        ech, rows = _echelon_rows(M, width)
        if payloads:
            rows = [row | y << bits * (m + n) for row, y in zip(rows, payloads)]
        tag = 1 << bits * m
        for row in rows:
            ech.insert(row | tag)
            tag <<= bits
        self._ech = ech
        pivots = self._pivots = ech.pivots
        held = self._pivot_cols = sum(1 << c for c in pivots)
        self._free = (1 << m) - 1 ^ held  # the columns without a pivot row
        cols = ech.columns(held)
        # Right to left after the rightmost, each pivot row less the pivot rows at
        # the other pivot columns: those right of it are already reduced, and those
        # left of it are never reached, since a pivot row is zero before its column.
        for c in sorted(pivots, reverse=True)[1:]:
            lead = pivots[c] & -pivots[c]  # its 1 at column c, set aside while it is reduced
            pivots[c] = ech._reduce(pivots[c] ^ lead, cols)[0] ^ lead

    def decode(self, known: Iterable[int], target: int) -> Decoding | None:
        """Express e_target as a combination of the rows and the unit
        vectors of the known packets; None when the target is outside the
        span.  One receiver of `decode_all`."""
        return self._decoding(*self.combinations([(_known_columns(known, self.ncols), target)])[0])

    def decode_all(self, receivers: Iterable[tuple[Iterable[int], int]]) -> list[Decoding | None]:
        """`decode(known, target)` of every (known, target) pair, in input
        order: the `Decoding` read off each of its `combinations`, with the
        known packets turned into side masks by `_known_columns`.  A known
        packet outside 1..m raises ValueError."""
        sides = [(_known_columns(known, self.ncols), target) for known, target in receivers]
        return [self._decoding(*found) for found in self.combinations(sides)]

    def _decoding(self, side: int, target: int, rem: int | None) -> Decoding | None:
        """The `Decoding` of one result of `combinations`, read off its
        remainder's coefficients at the side columns and in the tail."""
        if rem is None:
            return None
        m = self.ncols
        coeffs = self._ech.coefficients(rem, m + self.nrows)
        known = []
        while side:
            low = side & -side
            c = low.bit_length() - 1
            known.append((c + 1, coeffs[c]))
            side ^= low
        return Decoding(target, tuple(coeffs[m:]), tuple(known))

    def combinations(self, receivers: Iterable[tuple[int, int]]) -> list[tuple[int, int, int | None]]:
        """(side mask, target, remainder or None) of every (side mask,
        target) pair, in input order.  A side mask is a column bitmask, bit c
        for packet c + 1, within the m columns, as `GicInstance.packet_masks`
        and `decode_all` give it; the remainder is packed like the decoder's
        rows, and None where the target does not decode.  Every target is
        checked first."""
        m, bits, pivots, free, pivot_cols = self.ncols, self._bits, self._pivots, self._free, self._pivot_cols
        columns = self._ech.columns
        jobs = []  # (side set, free columns the receiver lacks, its pivot rows at side columns, target)
        for side, target in receivers:
            if not 1 <= target <= m:
                raise ValueError(f"target packet {target} outside 1..{m}")
            if side >> (target - 1) & 1:
                raise ValueError(f"target packet {target} already known")
            lacks = free & ~side
            rows = []
            held = side & pivot_cols if lacks else 0
            while held:
                low = held & -held
                rows.append(pivots[low.bit_length() - 1])
                held ^= low
            jobs.append((side, columns(lacks) if lacks else 0, rows, target))
        if len(pivots) == m:  # no free column: every target decodes by its pivot row alone
            return [(side, target, (1 << (target - 1) * bits) ^ pivots[target - 1]) for side, _, _, target in jobs]
        out = []
        ech = Echelon(m, self._width, bits)  # one receiver echelon, cleared for each receiver
        held, insert = ech.pivots, ech.insert
        for side, cols, rows, target in jobs:
            rem = (1 << (target - 1) * bits) ^ pivots.get(target - 1, 0)
            if rows and cols:
                held.clear()
                ech._data = cols
                for row in rows:
                    insert(row)
                rem, c = ech._reduce(rem, cols)
                if c >= 0:
                    rem = None
            elif rem & cols:  # no side pivot row left to eliminate with
                rem = None
            out.append((side, target, rem))
        return out


def solve_decode(M: CodingMatrix, known: Iterable[int], target: int) -> Decoding | None:
    """Express e_target as a combination of M's rows and the unit vectors of
    the known packets; None when the target is outside the span.  One
    receiver of `Decoder(M)`: build the decoder once to certify many."""
    return Decoder(M).decode(known, target)
