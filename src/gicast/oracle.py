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

from .gf import Decoder, Decoding, Echelon, scale_row, unit_row
from .model import GicInstance, UserId
from .partition import SchemeSolution

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


def minrank_gf2(inst: GicInstance, budget: int = DEFAULT_FREE_BIT_BUDGET) -> int:
    """Minimum rank over GF(2) over all completions of the instance template.

    Walks receivers depth-first, choosing each row among its 2^|A| admissible
    completions while maintaining an echelon basis; branches whose partial
    rank already reaches the incumbent are cut, which prunes without ever
    changing the exact minimum."""
    free = sum(len(side) for _, side in inst.users)
    if free > budget:
        raise MinrankBudgetError(f"{free} free cells exceed the budget of {budget}")
    # Packed 0/1 rows: the echelon works over GF(256), whose rank on them is
    # the GF(2) rank.
    candidates: list[list[int]] = []
    for uid, side in inst.users:
        opts = [unit_row(uid.packet)]  # the forced demanded column
        for p in sorted(side):  # the free side-information columns
            opts = opts + [o | unit_row(p) for o in opts]
        candidates.append(opts)

    nrows = len(candidates)
    best = nrows + 1
    basis = Echelon(inst.m)

    def walk(idx: int) -> None:
        nonlocal best
        if len(basis) >= best:
            return
        if idx == nrows:
            best = len(basis)
            return
        for row in candidates[idx]:
            pivot = basis.insert(row)
            walk(idx + 1)
            if pivot is not None:
                del basis.pivots[pivot]
            if best == 1:
                return

    walk(0)
    return best


@dataclass(frozen=True)
class DecodeReport:
    """Simulator verdict: symbolic decodability for every receiver plus
    random-payload trials run through the decoding coefficients."""

    passed: bool
    trials: int
    failures: tuple[tuple[UserId, int | None, str], ...]

    @property
    def first_failure(self) -> tuple[UserId, int | None, str] | None:
        return self.failures[0] if self.failures else None


def _combine(terms, width: int) -> int:
    """Sum of f * row over GF(2^8) for (f, row) pairs, rows packed in
    `width` bytes."""
    acc = 0
    for f, row in terms:
        if f:
            acc ^= row if f == 1 else scale_row(row, f, width)
    return acc


def simulate_decode(
    inst: GicInstance, solution: SchemeSolution, trials: int = 16, seed: int = 0
) -> DecodeReport:
    """Check that every receiver can recover its packet from the solution's
    transmissions plus its own side information: first symbolically (span
    membership with explicit coefficients, from one shared elimination of
    the rows), then on `trials` random payload vectors drawn from the
    solution's field, all trials at once."""
    M = solution.matrix
    m = inst.m
    failures: list[tuple[UserId, int | None, str]] = []
    decodings: dict[UserId, Decoding] = {}
    decoder = Decoder(M)
    for uid, side in inst.users:
        dec = decoder.decode(side, uid.packet)
        if dec is None:
            failures.append(
                (uid, None, f"packet {uid.packet} outside span of rows + side info; rows:\n{M.dump()}")
            )
        else:
            decodings[uid] = dec

    # Payloads are packed like `Echelon` rows, one byte per trial: byte t of
    # x[p - 1] is packet p in trial t.  GF(2) payloads are 0/1 bytes, on
    # which GF(2^8) arithmetic agrees with GF(2).
    rng = random.Random(seed)
    draws = bytes(rng.randrange(M.field.order) for _ in range(trials * m))
    x = [int.from_bytes(draws[p::m], "little") for p in range(m)]
    y = [_combine(zip(row, x), trials) for row in M.rows]
    wrong = []
    for uid, dec in decodings.items():
        est = _combine(zip(dec.row_coeffs, y), trials)
        est ^= _combine([(f, x[p - 1]) for p, f in dec.known_coeffs], trials)
        payload = x[uid.packet - 1]
        if est != payload:
            wrong.append((uid, est, payload))
    for t in range(trials):
        for uid, est, payload in wrong:
            e, v = est >> 8 * t & 0xFF, payload >> 8 * t & 0xFF
            if e != v:
                failures.append((uid, t, f"trial {t}: reconstructed {e}, payload {v}"))
    return DecodeReport(passed=not failures, trials=trials, failures=tuple(failures))
