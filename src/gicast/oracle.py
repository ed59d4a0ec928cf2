"""Ground-truth checks for scheme outputs.

The optimality reference is the minimum rank over GF(2) of any matrix with a
forced 1 in each receiver's demanded column, free entries in its
side-information columns, and zeros elsewhere — the best possible
scalar-linear GF(2) code length.  The decode simulator certifies achievable
solutions symbolically and on random payloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .gf import Decoder, Echelon, bit_row, scale_row, unit_row
from .model import GicInstance, UserId
from .partition import SchemeSolution, acyclic_bound, acyclic_lower_bound

__all__ = [
    "DEFAULT_FREE_BIT_BUDGET",
    "MinrankBudgetError",
    "minrank_gf2",
    "DecodeReport",
    "simulate_decode",
]

#: Refuse minimum-rank searches with more than this many free cells.
DEFAULT_FREE_BIT_BUDGET = 26


class MinrankBudgetError(ValueError):
    """Completion space too large for the configured free-bit budget."""


def _residues(basis: Echelon, demand: int, side: Sequence[int]) -> list[int]:
    """`basis.residue` of each completion of a receiver's template row, the
    demanded unit row plus any sum of its side unit rows, in the order
    e_d, e_d + e_s1, e_d + e_s2, e_d + e_s1 + e_s2, ...  Residues are
    linear, so one residue per unit row gives them all by XOR."""
    rems = [basis.residue(demand)]
    for p in side:
        r = basis.residue(unit_row(p))
        rems += [o ^ r for o in rems]
    return rems


def minrank_gf2(inst: GicInstance, budget: int = DEFAULT_FREE_BIT_BUDGET) -> int:
    """Minimum rank over GF(2) over all completions of the instance template.

    Walks receivers depth-first, choosing each row among its 2^|A|
    admissible completions while maintaining an echelon basis.  Only the
    span matters, so a completion already in the span is taken alone (any
    other choice gives a larger span), and otherwise one completion per
    distinct residue mod the span is tried.  A branch is cut once its rank
    plus `acyclic_lower_bound` of the receivers left reaches the incumbent.
    The bound never exceeds the number of fresh packets, so it is not
    computed where the rank plus that number stays below the incumbent.
    The walk ends at the first leaf whose rank is the root bound,
    `acyclic_bound`, which no completion goes below.  None of these cuts
    changes the exact minimum."""
    free = sum(len(side) for _, side in inst.users)
    if free > budget:
        raise MinrankBudgetError(f"{free} free cells exceed the budget of {budget}")
    # Packed 0/1 rows: the echelon works over GF(256), whose rank on them is
    # the GF(2) rank, and keeps them 0/1, so a row's support is a packet mask.
    users = [(unit_row(uid.packet), sorted(side)) for uid, side in inst.users]
    masks = [(demand, sum(map(unit_row, side))) for demand, side in users]
    nrows = len(users)
    demanded = [0] * (nrows + 1)  # demanded[i]: the packets receivers i.. demand
    for i in range(nrows - 1, -1, -1):
        demanded[i] = demanded[i + 1] | masks[i][0]
    floor = acyclic_bound(inst)
    best = nrows + 1
    basis = Echelon(inst.m)
    pivots = basis.pivots

    def walk(idx: int, touched: int) -> bool:
        # touched: the support of the span, the packets some pivot row is on;
        # returns True once a leaf reaches the floor, the minimum
        nonlocal best
        fresh = demanded[idx] & ~touched
        rank = len(pivots)
        if rank + fresh.bit_count() >= best and rank + acyclic_lower_bound(fresh, masks[idx:]) >= best:
            return False
        if idx == nrows:
            best = len(pivots)
            return best == floor
        rems = _residues(basis, *users[idx])
        if 0 in rems:
            return walk(idx + 1, touched)
        for rem in dict.fromkeys(rems):
            if len(pivots) + 1 >= best:  # every branch left adds a row
                return False
            pivot = basis.insert(rem)
            found = walk(idx + 1, touched | rem)
            del pivots[pivot]
            if found:
                return True
        return False

    walk(0, 0)
    return best


@dataclass(frozen=True)
class DecodeReport:
    """Simulator verdict: symbolic decodability for every receiver plus
    random-payload trials, decoded in the same elimination."""

    passed: bool
    trials: int
    failures: tuple[tuple[UserId, int | None, str], ...]

    @property
    def first_failure(self) -> tuple[UserId, int | None, str] | None:
        return self.failures[0] if self.failures else None


def _combine(coeffs: Sequence[int], packets: Iterable[int], x: Sequence[int], width: int) -> int:
    """Sum of coeffs[p - 1] * x[p - 1] over GF(2^8) for p in packets, each
    x[p - 1] packed in `width` bytes."""
    acc = 0
    for p in packets:
        f = coeffs[p - 1]
        if f:
            acc ^= x[p - 1] if f == 1 else scale_row(x[p - 1], f, width)
    return acc


def _symbol(v: int, x: Sequence[int]) -> int:
    """The symbol of a GF(2) combination v of bit-packed columns: the XOR
    of the payloads x[c] of its columns."""
    acc = 0
    while v:
        low = v & -v
        acc ^= x[low.bit_length() - 1]
        v ^= low
    return acc


@lru_cache(maxsize=64)
def _seeded_payloads(seed: int, w: int, count: int) -> bytes:
    """`count` draws of `random.Random(seed).randrange(2^w)`, w 1 or 8, as
    bytes.  They depend on (seed, w, count) alone, so each is drawn once,
    and a repeat pays for neither the draws nor the Mersenne Twister key
    schedule of seeding."""
    rng = random.Random(seed)
    return bytes(rng.randrange(1 << w) for _ in range(count))


@lru_cache(maxsize=64)
def _bit_payloads(seed: int, m: int, trials: int) -> tuple[int, ...]:
    """The GF(2) draws `_seeded_payloads(seed, 1, trials * m)` packed one
    bit per trial: x[c] holds packet c + 1's payloads, bit t in trial t.
    Kept like the draws, so a repeat packs nothing."""
    if not trials:
        return (0,) * m
    draws = _seeded_payloads(seed, 1, trials * m)
    return tuple(bit_row(int.from_bytes(draws[c::m], "little"), trials) for c in range(m))


def simulate_decode(
    inst: GicInstance, solution: SchemeSolution, trials: int = 16, seed: int = 0
) -> DecodeReport:
    """Check that every receiver can recover its packet from the solution's
    transmissions plus its own side information, symbolically and on
    `trials` random payload vectors of the solution's field, in one
    `Decoder.combinations` pass whose remainders carry the rows' part of
    each reconstruction; the side packets' part is added here.  The
    payloads are `random.Random(seed).randrange(order)`, trial by trial and
    packet by packet, drawn once per (seed, field, count), and packed like
    the decoder's rows.  Over GF(2^8) they take one byte per trial, and the
    side packets' part is the sum of k_p * x_p.  Over GF(2) they take one
    bit per trial, and that part is the XOR of the payloads of the side
    packets whose coefficient is 1.  Raises ValueError for a negative
    `trials` or a matrix not over inst.m columns."""
    M = solution.matrix
    m = inst.m
    if trials < 0 or M.ncols != m:
        raise ValueError(f"need trials >= 0 and {m} matrix columns, got {trials} and {M.ncols}")
    gf2 = M.field.w == 1
    if gf2:
        x = _bit_payloads(seed, m, trials)
        y = [_symbol(row, x) for row in M.packed_bits]
    else:
        # x[c]: packet c + 1's payloads, byte t in trial t
        draws = _seeded_payloads(seed, 8, trials * m)
        x = [int.from_bytes(draws[c::m], "little") for c in range(m)]
        y = [_combine(row, range(1, m + 1), x, trials) for row in M.rows]
    top = m + M.nrows
    found = Decoder(M, y, trials).combinations([(side, uid.packet) for uid, side in inst.users])
    low = (1 << m) - 1  # over GF(2), a remainder's side packets' coefficients
    failures: list[tuple[UserId, int | None, str]] = []
    wrong = []
    for (uid, _), (side, target, rem) in zip(inst.users, found):
        if rem is None:
            failures.append((uid, None, f"packet {target} outside span of rows + side info; rows:\n{M.dump()}"))
            continue
        if gf2:
            est = rem >> top ^ _symbol(rem & low, x)
        else:
            coeffs = rem.to_bytes(top + trials, "little")
            est = int.from_bytes(coeffs[top:], "little") ^ _combine(coeffs, side, x, trials)
        if est != x[target - 1]:
            wrong.append((uid, est, x[target - 1]))
    bits = M.field.w
    lane = (1 << bits) - 1
    for t in range(trials if wrong else 0):
        for uid, est, payload in wrong:
            e, v = est >> bits * t & lane, payload >> bits * t & lane
            if e != v:
                failures.append((uid, t, f"trial {t}: reconstructed {e}, payload {v}"))
    return DecodeReport(passed=not failures, trials=trials, failures=tuple(failures))
