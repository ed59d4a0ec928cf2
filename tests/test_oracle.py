"""Minrank ground truth and the decode simulator."""

import random
from functools import reduce
from itertools import product
from operator import or_, xor

import pytest

import gicast.oracle
from gicast import (
    CodingMatrix,
    GF2,
    GF256,
    GicInstance,
    MinrankBudgetError,
    SchemeSolution,
    UserId,
    UserPartition,
    build_transmissions,
    exhaustive_iupm,
    exhaustive_ppm,
    exhaustive_upm,
    generate_k2,
    group_partition,
    iupm_rate,
    mds_generator,
    minrank_gf2,
    rank,
    run_heuristic,
    simulate_decode,
    solve_decode,
    upm_rate,
)
from gicast.gf import Decoder, Decoding
from gicast.partition import _fresh_bound

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


def test_minrank_matches_brute_force(ex1, monkeypatch):
    assert brute_force_minrank(ex1) == 2
    rng = random.Random(23)
    for _ in range(15):
        inst = random_instance(rng, max_m=3, max_users=4)
        assert minrank_gf2(inst) == brute_force_minrank(inst)

    # Larger draws, on which every cut of the search happens: a completion
    # already in the span (dominance), completions sharing a residue
    # (dedupe), and the fresh-packet bound.  Each search is run with the
    # bound and with the bound replaced by 0, counting nodes (one bound per
    # node); both must equal the brute force.
    seen = {"dominance": 0, "dedupe": 0, "bound": 0}
    residues = gicast.oracle._residues

    def spy_residues(*args):
        rems = residues(*args)
        if 0 in rems:
            seen["dominance"] += 1
        elif len(set(rems)) < len(rems):
            seen["dedupe"] += 1
        return rems

    nodes = [0]

    def counted(bound):
        def spy(fresh, pending):
            nodes[0] += 1
            return bound(fresh, pending)
        return spy

    with_bound = counted(gicast.oracle._fresh_bound)
    without_bound = counted(lambda fresh, pending: 0)
    monkeypatch.setattr(gicast.oracle, "_residues", spy_residues)
    rng = random.Random(5)
    draws = 0
    while draws < 40:
        inst = random_instance(rng, max_m=5, max_users=6)
        if sum(len(side) for _, side in inst.users) > 12:
            continue
        draws += 1
        expected = brute_force_minrank(inst)
        counts = []
        for spy in (with_bound, without_bound):
            monkeypatch.setattr(gicast.oracle, "_fresh_bound", spy)
            nodes[0] = 0
            assert minrank_gf2(inst) == expected
            counts.append(nodes[0])
        assert counts[0] <= counts[1]
        seen["bound"] += counts[0] < counts[1]
    assert all(seen.values()), seen


def test_minrank_fresh_bound_holds_on_completion_prefixes():
    """On random completions of the template, the bound `minrank_gf2` gives
    every prefix of the rows is at most the rank the remaining rows add.
    Some prefixes are cut by the bound alone: their rank is below the
    minimum, their rank plus the bound is not."""
    rng = random.Random(13)
    cuts = 0
    for _ in range(40):
        inst = random_instance(rng, max_m=5, max_users=6)
        best = minrank_gf2(inst)
        users = [(1 << (uid.packet - 1), sum(1 << (p - 1) for p in side)) for uid, side in inst.users]
        for _ in range(10):
            rows = [demand | side & rng.getrandbits(inst.m) for demand, side in users]
            total = bitmask_rank(rows)
            for i in range(len(rows)):
                r = bitmask_rank(rows[:i])
                fresh = reduce(or_, (demand for demand, _ in users[i:])) & ~reduce(or_, rows[:i], 0)
                b = _fresh_bound(fresh, users[i:])
                assert b <= total - r
                cuts += r < best <= r + b
    assert cuts


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
    rate, basis, label = iupm_rate(inst, part)
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


# ------------------------------------------------- simulator equivalence

#: The minimal instance on which heuristic step 3 emits an undecodable code.
FAULT = GicInstance.make(3, [((1, 1), {2}), ((2, 1), {1, 3}), ((2, 2), {3}), ((3, 1), {2})])


def every_solution(inst: GicInstance) -> list[SchemeSolution]:
    """Every scheme but minrank, as `gicast solve` runs it; the exhaustive
    searches only on instances small enough to be quick."""
    part = group_partition(inst)
    urate, _ = upm_rate(inst, part)
    irate, basis, label = iupm_rate(inst, part)
    sols = [
        SchemeSolution("upm-group", urate, part, build_transmissions(inst, part)),
        SchemeSolution("iupm-group", irate, part, basis, policy=label),
        run_heuristic(inst, "user"),
        run_heuristic(inst, "packet"),
    ]
    if len(inst.users) <= 8:
        sols += [exhaustive_ppm(inst), exhaustive_upm(inst), exhaustive_iupm(inst)]
    return sols


def in_span(M: CodingMatrix, known, target: int) -> bool:
    """Whether e_target lies in span(rows + known units): appending e_target
    to the rows with the known columns zeroed leaves their rank unchanged.
    GF(2) matrices are ranked as bitmasks, apart from gicast's kernel."""
    if M.field == GF2:
        kmask = sum(1 << (p - 1) for p in known)
        zeroed = [sum(e << c for c, e in enumerate(row)) & ~kmask for row in M.rows]
        return bitmask_rank(zeroed + [1 << (target - 1)]) == bitmask_rank(zeroed)
    zeroed = tuple(tuple(0 if c + 1 in known else e for c, e in enumerate(row)) for row in M.rows)
    unit = tuple(int(c == target - 1) for c in range(M.ncols))
    return rank(CodingMatrix(GF256, M.ncols, zeroed + (unit,))) == rank(CodingMatrix(GF256, M.ncols, zeroed))


def test_simulate_verdicts_match_span_test():
    rng = random.Random(71)
    instances = [random_instance(rng, max_m=5, max_users=7) for _ in range(200)]
    instances += [generate_k2(k)[0] for k in range(2, 7)] + [FAULT]
    fields = set()
    for inst in instances:
        for sol in every_solution(inst):
            M = sol.matrix
            fields.add(M.field)
            assert (M.field == GF2) == all(e <= 1 for row in M.rows for e in row), sol.scheme
            report = simulate_decode(inst, sol)
            assert all(t is None for _, t, _ in report.failures), "a correct decoding failed a trial"
            undecodable = [uid for uid, _, _ in report.failures]
            expected = [uid for uid, side in inst.users if not in_span(M, side, uid.packet)]
            assert undecodable == expected, (sol.scheme, M.rows)
            assert report.passed == (not expected)
    assert fields == {GF2, GF256}


def test_simulate_fault_instance_fails_one_receiver():
    sol = run_heuristic(FAULT, "user")
    report = simulate_decode(FAULT, sol)
    assert report.failures == (
        (UserId(2, 2), None, f"packet 2 outside span of rows + side info; rows:\n{sol.matrix.dump()}"),
    )


# ------------------------------------------------ packed payload trials

#: Four receivers that each know two packets of an MDS (4, 2) code.
MDS_INST = GicInstance.make(4, [
    ((1, 1), {3, 4}), ((2, 1), {3, 4}), ((3, 1), {1, 2}), ((4, 1), {1, 2}), ((1, 2), {2, 3}),
])
MDS_SOL = SchemeSolution("upm-group", 2, None, mds_generator(4, 2, GF256))


def scalar_trials(inst, M, decodings, trials, seed):
    """The payload trials one trial and one receiver at a time through
    GF256.mul, in the simulator's order of draws and of failures."""
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        x = [rng.randrange(256) for _ in range(inst.m)]
        y = [reduce(xor, (GF256.mul(e, v) for e, v in zip(row, x)), 0) for row in M.rows]
        for uid, dec in decodings.items():
            est = reduce(xor, (GF256.mul(f, v) for f, v in zip(dec.row_coeffs, y)), 0)
            est ^= reduce(xor, (GF256.mul(f, x[p - 1]) for p, f in dec.known_coeffs), 0)
            if est != x[uid.packet - 1]:
                failures.append((uid, t, f"trial {t}: reconstructed {est}, payload {x[uid.packet - 1]}"))
    return failures


@pytest.mark.parametrize("wrong", [[UserId(2, 1)], [UserId(4, 1), UserId(2, 1)]])
def test_simulate_reports_wrong_coefficients_in_every_trial(monkeypatch, wrong):
    # receivers are told apart by their (target, side) pairs
    sides = {(uid.packet, frozenset(side)): uid for uid, side in MDS_INST.users}

    class WrongDecoder(Decoder):
        def decode(self, known, target):
            dec = super().decode(known, target)
            if sides[target, frozenset(known)] in wrong:
                dec = Decoding(dec.target, (dec.row_coeffs[0] ^ 0x35, *dec.row_coeffs[1:]), dec.known_coeffs)
            return dec

    monkeypatch.setattr(gicast.oracle, "Decoder", WrongDecoder)
    M = MDS_SOL.matrix
    decodings = {}
    for uid, side in MDS_INST.users:
        decodings[uid] = WrongDecoder(M).decode(side, uid.packet)
    report = simulate_decode(MDS_INST, MDS_SOL, trials=16, seed=5)
    expected = scalar_trials(MDS_INST, M, decodings, 16, seed=5)
    assert report.failures == tuple(expected)
    assert not report.passed
    order = [uid for uid, _ in MDS_INST.users]
    assert [(t, order.index(uid)) for uid, t, _ in report.failures] == sorted(
        (t, order.index(uid)) for uid, t, _ in report.failures
    )
    # a wrong first coefficient shows in every trial whose first row symbol is nonzero
    rng = random.Random(5)
    affected = []
    for t in range(16):
        x = [rng.randrange(256) for _ in range(4)]
        if reduce(xor, (GF256.mul(e, v) for e, v in zip(M.rows[0], x)), 0):
            affected.append(t)
    for uid in wrong:
        assert [t for u, t, _ in report.failures if u == uid] == affected
    assert {u for u, _, _ in report.failures} == set(wrong)

    empty = simulate_decode(MDS_INST, MDS_SOL, trials=0, seed=5)
    assert (empty.passed, empty.trials, empty.failures) == (True, 0, ())


@pytest.mark.parametrize("w", [1, 8])
def test_payloads_are_the_randrange_draws_trial_by_trial(w):
    m = 5
    for seed in range(40):
        for trials in (0, 1, 3, 16, 400):
            rng = random.Random(seed)
            expected = bytes(rng.randrange(1 << w) for _ in range(trials) for _ in range(m))
            assert gicast.oracle._seeded_payloads(seed, w, trials * m) == expected, (seed, trials)


def test_simulate_draws_the_payloads_once_per_field_and_count(ex1):
    gicast.oracle._seeded_payloads.cache_clear()
    upm, ppm = exhaustive_upm(ex1), exhaustive_ppm(ex1)
    assert (upm.matrix.field, ppm.matrix.field) == (GF2, GF256)
    reports = [simulate_decode(ex1, sol, seed=3) for sol in (upm, ppm, upm, ppm)]
    assert gicast.oracle._seeded_payloads.cache_info().misses == 2  # the repeats draw nothing
    assert reports[:2] == reports[2:]
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("trials", [0, 16])
def test_simulate_matrix_without_rows(trials):
    sol = SchemeSolution("upm-group", 0, None, CodingMatrix(GF256, 4, ()))
    report = simulate_decode(MDS_INST, sol, trials=trials)
    assert report.trials == trials
    assert [(uid, t) for uid, t, _ in report.failures] == [(uid, None) for uid, _ in MDS_INST.users]


def test_solve_decode_is_one_receiver_of_the_shared_decoder():
    # every receiver of one shared decoder gets what a fresh decoder gives it
    inst, _ = generate_k2(5)
    M = run_heuristic(inst, "user").matrix
    shared = Decoder(M)
    for uid, side in inst.users:
        assert shared.decode(side, uid.packet) == solve_decode(M, side, uid.packet)
