"""Minrank ground truth and the decode simulator."""

import random
from itertools import product

import pytest

from gicast import (
    CodingMatrix,
    GF2,
    GicInstance,
    MinrankBudgetError,
    MinrankTemplate,
    SchemeSolution,
    UserId,
    UserPartition,
    build_transmissions,
    generate_k2,
    iupm_rate,
    minrank_gf2,
    simulate_decode,
    upm_rate,
)
from gicast.partition import CoeffPolicy

from conftest import bitmask_rank, random_instance


def brute_force_minrank(inst: GicInstance) -> int:
    """Enumerate every 0/1 assignment of the free cells and take the
    smallest rank -- exponential, only for cross-checking tiny cases."""
    rows = []
    for uid, side in inst.users:
        base = 1 << (uid.packet - 1)
        free = sorted(side)
        rows.append((base, free))
    best = len(inst.users)
    free_counts = [len(f) for _, f in rows]
    for bits in product(*[range(1 << c) for c in free_counts]):
        masks = []
        for (base, free), b in zip(rows, bits):
            mask = base
            for t, col in enumerate(free):
                if (b >> t) & 1:
                    mask |= 1 << (col - 1)
            masks.append(mask)
        best = min(best, bitmask_rank(masks))
    return best


# ------------------------------------------------------------------ minrank

def test_minrank_example1(ex1):
    assert minrank_gf2(ex1) == 2


def test_minrank_matches_brute_force(ex1):
    assert brute_force_minrank(ex1) == 2
    rng = random.Random(23)
    for _ in range(15):
        inst = random_instance(rng, max_m=3, max_users=4)
        assert minrank_gf2(inst) == brute_force_minrank(inst)


def test_minrank_everyone_knows_everything():
    inst = GicInstance.make(3, [
        ((1, 1), {2, 3}), ((2, 1), {1, 3}), ((3, 1), {1, 2}),
    ])
    assert minrank_gf2(inst) == 1


@pytest.mark.parametrize("k,expected", [(3, 2), (4, 3)])
def test_minrank_k2_family(k, expected):
    inst, _ = generate_k2(k)
    assert minrank_gf2(inst) == expected


def test_minrank_budget():
    inst, _ = generate_k2(5)  # 60 free cells
    with pytest.raises(MinrankBudgetError):
        minrank_gf2(inst)
    # a raised budget is allowed but unnecessary here; the tight one suffices
    inst4, _ = generate_k2(4)
    assert minrank_gf2(inst4, budget=24) == 3


def test_minrank_relabel_invariance():
    rng = random.Random(37)
    for _ in range(10):
        inst = random_instance(rng, max_m=4, max_users=5)
        base = minrank_gf2(inst)
        perm = list(range(1, inst.m + 1))
        rng.shuffle(perm)
        relabel = {old: new for old, new in zip(range(1, inst.m + 1), perm)}
        copies: dict[int, int] = {}
        relabeled = []
        for uid, side in inst.users:
            p = relabel[uid.packet]
            copies[p] = copies.get(p, 0) + 1
            relabeled.append(((p, copies[p]), {relabel[s] for s in side}))
        assert minrank_gf2(GicInstance.make(inst.m, relabeled)) == base


def test_template_shape(ex1):
    tpl = MinrankTemplate.from_instance(ex1)
    assert tpl.m == 4
    assert len(tpl.rows) == 5
    assert tpl.free_bits == sum(len(s) for _, s in ex1.users)


# ---------------------------------------------------------------- simulator

def test_simulate_example1_solution(ex1):
    M = CodingMatrix(GF2, 4, ((1, 0, 0, 1), (1, 1, 1, 0)))
    P = UserPartition.of([
        {UserId(1, 1), UserId(4, 1)},
        {UserId(1, 2), UserId(2, 1), UserId(3, 1)},
    ])
    sol = SchemeSolution("upm-group", 2, P, M)
    report = simulate_decode(ex1, sol)
    assert report.passed
    assert report.trials == 16
    assert report.failures == ()


def test_simulate_flags_undecodable_user():
    inst = GicInstance.make(1, [((1, 1), set())])
    sol = SchemeSolution("upm-group", 0, None, CodingMatrix(GF2, 1, ()))
    report = simulate_decode(inst, sol)
    assert not report.passed
    assert report.first_failure is not None
    assert report.first_failure[0] == UserId(1, 1)


def test_simulate_k6_reduced_rows():
    inst, gs = generate_k2(6)
    part = UserPartition.of(gs.user_groups())
    rate, basis, label = iupm_rate(inst, part, CoeffPolicy())
    sol = SchemeSolution("iupm-group", rate, part, basis, policy=label)
    assert simulate_decode(inst, sol).passed


def test_simulate_seed_stability(ex1):
    M = CodingMatrix(GF2, 4, ((1, 0, 0, 1), (1, 1, 1, 0)))
    P = UserPartition.of([
        {UserId(1, 1), UserId(4, 1)},
        {UserId(1, 2), UserId(2, 1), UserId(3, 1)},
    ])
    sol = SchemeSolution("upm-group", 2, P, M)
    a = simulate_decode(ex1, sol, trials=4, seed=99)
    b = simulate_decode(ex1, sol, trials=4, seed=99)
    assert (a.passed, a.trials, a.failures) == (b.passed, b.trials, b.failures)


def test_ordering_chain_small():
    from gicast import exhaustive_iupm, exhaustive_ppm, exhaustive_upm

    rng = random.Random(61)
    for _ in range(25):
        inst = random_instance(rng)
        mr = minrank_gf2(inst)
        iu = exhaustive_iupm(inst).rate
        up = exhaustive_upm(inst).rate
        pp = exhaustive_ppm(inst).rate
        assert mr <= iu <= up <= pp
