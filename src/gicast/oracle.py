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
from typing import Sequence

from .gf import Decoder, Echelon, _echelon_rows, scale_row
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


def _residues(basis: Echelon, demand: int, side: int) -> list[int]:
    """`basis.residue` of each completion of a receiver's template row, the
    demanded unit row plus any sum of the unit rows of its side mask, in
    the order e_d, e_d + e_s1, e_d + e_s2, e_d + e_s1 + e_s2, ... for side
    packets s1 < s2 < ...  Residues are linear, so one residue per unit
    row gives them all by XOR."""
    rems = [basis.residue(demand)]
    while side:
        low = side & -side
        r = basis.residue(low)
        rems += [o ^ r for o in rems]
        side ^= low
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
    # Bit rows, bit p - 1 for packet p, so a row is its own packet mask.
    masks = inst.packet_masks
    nrows = len(masks)
    demanded = [0] * (nrows + 1)  # demanded[i]: the packets receivers i.. demand
    for i in range(nrows - 1, -1, -1):
        demanded[i] = demanded[i + 1] | masks[i][0]
    floor = acyclic_bound(inst)
    best = nrows + 1
    basis = Echelon(inst.m, bits=1)
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
        rems = _residues(basis, *masks[idx])
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


def _combine(row: int, x: Sequence[int]) -> int:
    """The symbol of a packed row on bit-sliced payloads x: the XOR of
    x[b] over the set bits b of the row."""
    acc = 0
    while row:
        top = row.bit_length() - 1
        acc ^= x[top]
        row ^= 1 << top
    return acc


@lru_cache(maxsize=64)
def _payloads(seed: int, w: int, m: int, trials: int) -> tuple[int, ...]:
    """`trials * m` draws of `random.Random(seed).randrange(2^w)`, w 1 or 8,
    trial by trial and packet by packet, packed w bits per trial,
    bit-sliced like a row packed w bits per column: entry w * c + i holds
    packet c + 1's payloads times 2^i, trial t's at bit w * t, so entry
    w * c holds the payloads themselves.  A coefficient f of column c is the
    sum of the 2^i of its set bits, so f times the payloads is the XOR of
    the entries at those bits, and `_combine` gives a row's symbol.  They
    depend on the arguments alone, so a repeat pays for neither the draws,
    nor the Mersenne Twister key schedule of seeding, nor the packing."""
    rng = random.Random(seed)
    draws = bytes(rng.randrange(1 << w) for _ in range(trials * m))
    packed = [sum(v << w * t for t, v in enumerate(draws[c::m])) for c in range(m)]
    return tuple(scale_row(x, 1 << i, trials) for x in packed for i in range(w))


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
    the decoder's rows, w bits per trial over GF(2^w), and bit-sliced by
    `_payloads`.  The rows' symbols and the side packets' part, the sum of
    k_p * x_p, both come from `_combine` on the packed rows, which over
    GF(2) is the XOR of the payloads of a row's packets.  Raises ValueError
    for a negative `trials` or a matrix not over inst.m columns."""
    M = solution.matrix
    m = inst.m
    if trials < 0 or M.ncols != m:
        raise ValueError(f"need trials >= 0 and {m} matrix columns, got {trials} and {M.ncols}")
    w = M.field.w  # bits per column of the decoder's rows, and per trial of the payloads
    x = _payloads(seed, w, m, trials)
    y = [_combine(row, x) for row in _echelon_rows(M)[1]]
    top = m + M.nrows
    receivers = [(side, uid.packet) for uid, (_, side) in zip(inst.user_ids, inst.packet_masks)]
    found = Decoder(M, y, trials).combinations(receivers)
    packets = (1 << w * m) - 1  # a remainder's packet columns
    failures: list[tuple[UserId, int | None, str]] = []
    wrong = []
    for (uid, _), (_, target, rem) in zip(inst.users, found):
        if rem is None:
            failures.append((uid, None, f"packet {target} outside span of rows + side info; rows:\n{M.dump()}"))
            continue
        est = rem >> w * top ^ _combine(rem & packets, x)
        payload = x[w * (target - 1)]
        if est != payload:
            wrong.append((uid, est, payload))
    lane = (1 << w) - 1
    for t in range(trials if wrong else 0):
        for uid, est, payload in wrong:
            e, v = est >> w * t & lane, payload >> w * t & lane
            if e != v:
                failures.append((uid, t, f"trial {t}: reconstructed {e}, payload {v}"))
    return DecodeReport(passed=not failures, trials=trials, failures=tuple(failures))
