"""Certificate checker written apart from gicast.gf and gicast.oracle.

A solution certifies when its rate equals its row count and, for every
receiver, the unit vector of the demanded packet lies in the span of the
solution's rows plus the unit vectors of the receiver's side information.
Projecting the rows onto the columns the receiver does not know turns that
into plain span membership, decided here by Gaussian elimination over GF(2)
or over GF(2^8) with the modulus x^8 + x^4 + x^3 + x + 1 that gicast.gf
documents.

A matrix whose entries are all 0 or 1 is checked over GF(2), whatever field
the program labelled it with: rank, and so span membership, of a 0/1 matrix
is the same over GF(2) and over any extension of it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

POLY = 0x11B  # x^8 + x^4 + x^3 + x + 1

EXP = [0] * 510
LOG = [0] * 256


def _build_tables() -> None:
    """Powers of the primitive element x + 1 (0x03)."""
    x = 1
    for i in range(255):
        EXP[i] = x
        LOG[x] = i
        x2 = x << 1
        if x2 & 0x100:
            x2 ^= POLY
        x = x2 ^ x
    for i in range(255, 510):
        EXP[i] = EXP[i - 255]


_build_tables()


def gf256_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return EXP[LOG[a] + LOG[b]]


def gf256_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    return EXP[255 - LOG[a]]


def clmul_mod(a: int, b: int) -> int:
    """Carry-less product reduced by POLY, the table-free definition the
    tables are tested against."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= POLY
    return r


class Receiver(NamedTuple):
    packet: int
    copy: int
    side: frozenset[int]


class Instance(NamedTuple):
    m: int
    receivers: tuple[Receiver, ...]


def parse_instance(text: str) -> Instance:
    """The benchmark's own reader of the `gic <m>` / `user i j : side` text."""
    m = None
    receivers = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if m is None:
            tag, value = line.split()
            if tag != "gic":
                raise ValueError(f"bad header {line!r}")
            m = int(value)
            continue
        head, _, tail = line.partition(":")
        tag, i, j = head.split()
        if tag != "user":
            raise ValueError(f"bad user line {line!r}")
        receivers.append(Receiver(int(i), int(j), frozenset(int(t) for t in tail.split())))
    if m is None:
        raise ValueError("missing header")
    return Instance(m, tuple(receivers))


def format_instance(inst: Instance) -> str:
    lines = [f"gic {inst.m}"]
    for r in inst.receivers:
        side = "".join(f" {p}" for p in sorted(r.side))
        lines.append(f"user {r.packet} {r.copy} :{side}")
    return "\n".join(lines) + "\n"


def is_binary(rows: Sequence[Sequence[int]]) -> bool:
    return all(e in (0, 1) for row in rows for e in row)


def _gf2_in_span(rows: Sequence[int], target: int) -> bool:
    basis: dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length()
            other = basis.get(top)
            if other is None:
                basis[top] = r
                break
            r ^= other
    while target:
        other = basis.get(target.bit_length())
        if other is None:
            return False
        target ^= other
    return True


def _gf256_in_span(rows: Sequence[list[int]], target: list[int]) -> bool:
    """Rows and target over the same columns; echelon rows are normalised
    to a leading 1."""
    basis: dict[int, list[int]] = {}

    def reduce(v: list[int]) -> tuple[int, list[int]]:
        for c in range(len(v)):
            e = v[c]
            if not e:
                continue
            b = basis.get(c)
            if b is None:
                return c, v
            le = LOG[e]
            v = [x ^ (EXP[le + LOG[y]] if y else 0) for x, y in zip(v, b)]
        return -1, v

    for row in rows:
        c, v = reduce(row)
        if c >= 0:
            s = 255 - LOG[v[c]]
            basis[c] = [EXP[s + LOG[x]] if x else 0 for x in v]
    c, _ = reduce(target)
    return c < 0


def decodes(m: int, rows: Sequence[Sequence[int]], side: frozenset[int], target: int) -> bool:
    """Whether e_target lies in span(rows + {e_p : p in side})."""
    if target in side:
        raise ValueError(f"target {target} is in the side information")
    keep = [c for c in range(m) if c + 1 not in side]
    if is_binary(rows):
        masks = []
        for row in rows:
            mask = 0
            for bit, c in enumerate(keep):
                if row[c]:
                    mask |= 1 << bit
            masks.append(mask)
        return _gf2_in_span(masks, 1 << keep.index(target - 1))
    projected = [[row[c] for c in keep] for row in rows]
    goal = [1 if c == target - 1 else 0 for c in keep]
    return _gf256_in_span(projected, goal)


def certify(inst: Instance, rate: int, rows: Sequence[Sequence[int]]) -> str | None:
    """None when the solution certifies, otherwise the first reason it does
    not."""
    if rate != len(rows):
        return f"rate {rate} != {len(rows)} rows"
    for r, row in enumerate(rows):
        if len(row) != inst.m:
            return f"row {r} has {len(row)} entries, expected {inst.m}"
        if any(not 0 <= e < 256 for e in row):
            return f"row {r} has an entry outside GF(2^8)"
    for rcv in inst.receivers:
        if not decodes(inst.m, rows, rcv.side, rcv.packet):
            return f"receiver ({rcv.packet},{rcv.copy}) cannot decode packet {rcv.packet}"
    return None
