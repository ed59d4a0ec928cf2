"""Partition enumeration and the three partition-based rate objectives."""

import random

import pytest

from gicast import (
    GF2,
    GF256,
    PacketPartition,
    PartitionCapError,
    UserId,
    UserPartition,
    build_transmissions,
    enumerate_partitions,
    exhaustive_iupm,
    exhaustive_ppm,
    exhaustive_upm,
    generate_k2,
    group_partition,
    iupm_rate,
    load_instance,
    ppm_as_upm,
    ppm_rate,
    run_heuristic,
    upm_rate,
)
from gicast.gf import Echelon, mds_generator
from gicast.partition import (
    _fresh_bounds,
    _min_partition_sum,
    _packet_cost_table,
    _user_cost_table,
)

from conftest import certify, random_instance, reference_min_partition_sum


def bell_numbers(n: int) -> list[int]:
    """Bell-triangle recurrence, independent of the enumerator."""
    out = [1]
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        out.append(row[-1])
    return out


# ---------------------------------------------------------------- enumeration

def test_partition_counts_match_bell():
    bells = bell_numbers(9)
    for n in range(1, 10):
        assert sum(1 for _ in enumerate_partitions(n)) == bells[n - 1]


def test_partition_n3_explicit():
    got = [tuple(sorted(tuple(sorted(b)) for b in p)) for p in enumerate_partitions(3)]
    assert len(got) == 5
    assert ((1, 2, 3),) in got
    assert ((1,), (2,), (3,)) in got
    assert len(set(got)) == 5


def test_partition_n1():
    assert list(enumerate_partitions(1)) == [((1,),)]


def test_partition_first_is_single_block():
    first = next(iter(enumerate_partitions(6)))
    assert first == ((1, 2, 3, 4, 5, 6),)


def test_partition_cap_refused():
    with pytest.raises(PartitionCapError):
        next(iter(enumerate_partitions(14)))
    # explicit override lifts it
    it = enumerate_partitions(14, cap=14)
    assert next(iter(it)) == (tuple(range(1, 15)),)


def test_packet_partition_checks():
    P = PacketPartition.of([{1, 3}, {2}])
    P.check(3)
    with pytest.raises(ValueError):
        PacketPartition.of([{1}, {1, 2}]).check(2)
    with pytest.raises(ValueError):
        PacketPartition.of([{1}]).check(2)


# ---------------------------------------------------------------- objectives

def test_ppm_rate_example1(ex1):
    P = PacketPartition.of([{2}, {1, 3, 4}])
    rate, degrees = ppm_rate(ex1, P)
    assert rate == 3
    # canonical block order sorts by smallest packet: {1,3,4} first
    assert degrees == (1, 0)


def test_ppm_rate_single_block_no_side(ex1):
    inst = random_instance(random.Random(0))
    # a user with empty side info forces degree 0 on the whole-set block
    from gicast import GicInstance

    inst = GicInstance.make(3, [((1, 1), set()), ((2, 1), {1}), ((3, 1), {1})])
    rate, _ = ppm_rate(inst, PacketPartition.of([{1, 2, 3}]))
    assert rate == 3


def test_ppm_rate_matches_fresh_evaluation():
    rng = random.Random(42)
    for _ in range(25):
        inst = random_instance(rng, max_m=5, max_users=7)
        for blocks in enumerate_partitions(inst.m):
            P = PacketPartition.of(blocks)
            rate, degrees = ppm_rate(inst, P)
            # re-derive from the definition
            total = 0
            for T, d in zip(P.blocks, degrees):
                dd = min(
                    len(side & T)
                    for uid, side in inst.users
                    if uid.packet in T
                )
                assert dd == d
                total += len(T) - dd
            assert rate == total


def test_upm_rate_example1_optimal(ex1):
    P = UserPartition.of([
        {UserId(1, 1), UserId(4, 1)},
        {UserId(1, 2), UserId(2, 1), UserId(3, 1)},
    ])
    rate, overlaps = upm_rate(ex1, P)
    assert rate == 2
    assert overlaps == (1, 2)


@pytest.mark.parametrize("k", [3, 5, 8])
def test_upm_rate_group_partition(k):
    inst, gs = generate_k2(k)
    part = UserPartition.of(gs.user_groups())
    rate, overlaps = upm_rate(inst, part)
    assert rate == k
    assert set(overlaps) == {k - 2}


def test_upm_rate_singleton_blocks():
    rng = random.Random(7)
    for _ in range(20):
        inst = random_instance(rng)
        P = UserPartition.of([{uid} for uid in inst.user_ids])
        rate, overlaps = upm_rate(inst, P)
        assert rate == len(inst.users)
        assert all(c == 0 for c in overlaps)


def test_ppm_as_upm_identity():
    rng = random.Random(13)
    for _ in range(30):
        inst = random_instance(rng, max_m=5)
        for blocks in enumerate_partitions(inst.m):
            P = PacketPartition.of(blocks)
            r1, _ = ppm_rate(inst, P)
            r2, _ = upm_rate(inst, ppm_as_upm(inst, P))
            assert r1 == r2


def test_ppm_as_upm_example1(ex1):
    P = PacketPartition.of([{2}, {1, 3, 4}])
    U = ppm_as_upm(ex1, P)
    blocks = {frozenset(b) for b in U.blocks}
    assert frozenset({UserId(2, 1)}) in blocks
    assert frozenset({UserId(1, 1), UserId(1, 2), UserId(3, 1), UserId(4, 1)}) in blocks


def test_group_partition_example1_is_optimal(ex1):
    part = group_partition(ex1)
    rate, _ = upm_rate(ex1, part)
    assert rate == 2


def test_group_partition_example3(ex3):
    part = group_partition(ex3)
    assert len(part.blocks) == 15
    rate, overlaps = upm_rate(ex3, part)
    assert rate == 15
    assert set(overlaps) == {3}


# ------------------------------------------------------------- transmissions

def test_transmissions_group_xor_rows():
    inst, gs = generate_k2(6)
    part = UserPartition.of(gs.user_groups())
    M = build_transmissions(inst, part)
    assert M.field == GF2
    assert M.nrows == 6
    for row, Y in zip(M.rows, gs.packet_sets):
        assert {c + 1 for c, v in enumerate(row) if v} == set(Y)


def test_transmissions_example1_optimal(ex1):
    P = UserPartition.of([
        {UserId(1, 1), UserId(4, 1)},
        {UserId(1, 2), UserId(2, 1), UserId(3, 1)},
    ])
    M = build_transmissions(ex1, P)
    assert M.rows == ((1, 0, 0, 1), (1, 1, 1, 0))


def test_transmissions_single_saturated_user():
    from gicast import GicInstance

    inst = GicInstance.make(3, [((1, 1), {2, 3}), ((2, 1), set()), ((3, 1), set())])
    P = UserPartition.of([{UserId(1, 1)}, {UserId(2, 1)}, {UserId(3, 1)}])
    M = build_transmissions(inst, P)
    assert M.nrows == 3  # one row per block, b=1 each


def test_transmissions_wide_block_uses_extension_field(ex1):
    # one block holding every user: c=1, so b=3 coded symbols over GF(2^8)
    P = UserPartition.of([set(ex1.user_ids)])
    rate, _ = upm_rate(ex1, P)
    M = build_transmissions(ex1, P)
    assert M.field == GF256
    assert M.nrows == rate == 3


def test_transmissions_match_placed_generator_rows():
    # reference: each block's mds_generator(|Y|, b) rows placed on sorted Y
    rng = random.Random(20261018)
    for _ in range(300):
        inst = random_instance(rng, max_m=6, max_users=9)
        ids = inst.user_ids
        labels = [rng.randrange(len(ids)) for _ in ids]
        part = UserPartition.of([u for u, l in zip(ids, labels) if l == b] for b in set(labels))
        expect = []
        for W in part.blocks:
            Y = sorted({u.packet for u in W})
            b = len(Y) - min(len(inst.side_of(u) & set(Y)) for u in W)
            for coeffs in mds_generator(len(Y), b, GF256).rows:
                row = [0] * inst.m
                for p, f in zip(Y, coeffs):
                    row[p - 1] = f
                expect.append(tuple(row))
        M = build_transmissions(inst, part)
        assert M.rows == tuple(expect)
        assert (M.field == GF2) == all(e <= 1 for row in M.rows for e in row)


def test_identity_rows_are_gf2_for_every_scheme():
    # one block over both users sends the unit rows: no coefficient above 1
    inst = load_instance("gic 2\nuser 1 1 :\nuser 2 1 :\n")
    solvers = [exhaustive_ppm, exhaustive_upm, exhaustive_iupm, run_heuristic]
    for sol in (certify(inst, solve(inst)) for solve in solvers):
        assert sol.matrix.rows == ((1, 0), (0, 1)), sol.scheme
        assert sol.matrix.field == GF2, sol.scheme


def test_cost_tables_match_block_rates():
    # block mask costs its upm_rate / ppm_rate beside singletons, which cost 1 each
    rng = random.Random(8)
    for _ in range(40):
        inst = random_instance(rng, max_m=5, max_users=7)
        ids = inst.user_ids
        cost, _ = _user_cost_table(inst)
        for mask in range(1, 1 << len(ids)):
            W = [u for t, u in enumerate(ids) if mask >> t & 1]
            part = UserPartition.of([W] + [[u] for u in ids if u not in W])
            assert cost[mask] == upm_rate(inst, part)[0] - (len(ids) - len(W))
        cost = _packet_cost_table(inst)
        for mask in range(1, 1 << inst.m):
            T = [p for p in range(1, inst.m + 1) if mask >> (p - 1) & 1]
            part = PacketPartition.of([T] + [[p] for p in range(1, inst.m + 1) if p not in T])
            assert cost[mask] == ppm_rate(inst, part)[0] - (inst.m - len(T))


def test_cost_tables_are_monotone_with_unit_singletons():
    # the precondition of `_min_partition_sum`
    rng = random.Random(12)
    for _ in range(60):
        inst = random_instance(rng, max_m=5, max_users=7)
        for cost in (_user_cost_table(inst)[0], _packet_cost_table(inst)):
            n = len(cost).bit_length() - 1
            for t in range(n):
                assert cost[1 << t] <= 1
                for B in range(len(cost)):
                    assert cost[B | 1 << t] >= cost[B], (B, t)


# --------------------------------------------------------------------- iupm

def test_iupm_k6_drops_one_row():
    inst, gs = generate_k2(6)
    part = UserPartition.of(gs.user_groups())
    rate, basis, label = iupm_rate(inst, part)
    assert rate == 5
    assert basis.nrows == 5
    assert label == "deterministic"
    # the dropped sixth row is the XOR of the five kept rows
    M = build_transmissions(inst, part)
    acc = [0] * inst.m
    for row in basis.rows:
        acc = [a ^ v for a, v in zip(acc, row)]
    assert tuple(acc) == M.rows[-1]


def test_iupm_disjoint_blocks_full_rank():
    from gicast import GicInstance

    inst = GicInstance.make(4, [
        ((1, 1), {2}), ((2, 1), {1}), ((3, 1), {4}), ((4, 1), {3}),
    ])
    P = UserPartition.of([
        {UserId(1, 1), UserId(2, 1)}, {UserId(3, 1), UserId(4, 1)},
    ])
    rate, basis, _ = iupm_rate(inst, P)
    assert rate == 2 == basis.nrows


# ------------------------------------------------------------- exhaustive

def test_exhaustive_ppm_example1(ex1):
    sol = certify(ex1, exhaustive_ppm(ex1))
    assert sol.rate == 3
    assert sol.scheme == "ppm-exhaustive"


def test_exhaustive_upm_example1(ex1):
    sol = certify(ex1, exhaustive_upm(ex1))
    assert sol.rate == 2
    blocks = {frozenset(b) for b in sol.partition.blocks}
    assert blocks == {
        frozenset({UserId(1, 1), UserId(4, 1)}),
        frozenset({UserId(1, 2), UserId(2, 1), UserId(3, 1)}),
    }
    assert sol.matrix.rows == ((1, 0, 0, 1), (1, 1, 1, 0))


def test_exhaustive_iupm_example1(ex1):
    sol = certify(ex1, exhaustive_iupm(ex1))
    assert sol.rate == 2


def test_exhaustive_k3_values():
    inst, _ = generate_k2(3)
    assert certify(inst, exhaustive_ppm(inst)).rate == 2
    # a single all-user block already achieves 2, beating the k groups
    usol = certify(inst, exhaustive_upm(inst))
    assert usol.rate == 2
    assert len(usol.partition.blocks) == 1
    assert certify(inst, exhaustive_iupm(inst)).rate == 2


def test_exhaustive_cap_error():
    inst, _ = generate_k2(5)  # 20 users
    with pytest.raises(PartitionCapError):
        exhaustive_upm(inst)


def _first_optimum(n, score):
    """Brute-force reference: the blocks and RGS of the first partition of n
    elements, in enumeration order, with the smallest score(blocks, rgs)."""
    best = None
    for blocks in enumerate_partitions(n):
        rgs = [0] * n
        for b, blk in enumerate(blocks):
            for x in blk:
                rgs[x - 1] = b
        s = score(blocks, rgs)
        if best is None or s < best[0]:
            best = (s, blocks, rgs)
    return best[1], best[2]


def _summary(sol):
    return sol.rate, sol.partition, sol.matrix.rows, sol.policy


def _users(inst, blocks):
    ids = inst.user_ids
    return UserPartition.of([ids[x - 1] for x in blk] for blk in blocks)


def _iupm_reference(inst):
    blocks, _ = _first_optimum(len(inst.user_ids), lambda b, _: iupm_rate(inst, _users(inst, b))[0])
    part = _users(inst, blocks)
    r, basis, label = iupm_rate(inst, part)
    return r, part, basis.rows, label


def test_exhaustive_searches_match_brute_force():
    rng = random.Random(3)
    for _ in range(16):
        inst = random_instance(rng, max_m=8, max_users=8)

        blocks, _ = _first_optimum(inst.m, lambda b, _: ppm_rate(inst, PacketPartition.of(b))[0])
        part = PacketPartition.of(blocks)
        rows = build_transmissions(inst, ppm_as_upm(inst, part)).rows
        assert _summary(exhaustive_ppm(inst)) == (ppm_rate(inst, part)[0], part, rows, "deterministic")

        blocks, _ = _first_optimum(len(inst.user_ids), lambda b, _: upm_rate(inst, _users(inst, b))[0])
        part = _users(inst, blocks)
        rows = build_transmissions(inst, part).rows
        assert _summary(exhaustive_upm(inst)) == (upm_rate(inst, part)[0], part, rows, "deterministic")

        assert _summary(exhaustive_iupm(inst)) == _iupm_reference(inst)


def test_min_partition_sum_matches_the_keyed_single_pass_dp():
    """Same total and lex-first string as the reference DP, on random cost
    tables of 9-12 elements and on tie-heavy ones: the family's packet
    tables, and instances where every receiver knows every other packet,
    so that every block costs 1."""
    from gicast import GicInstance

    rng = random.Random(17)
    tables = []
    for n in range(9, 13):
        inst = random_instance(rng, max_m=n, max_users=n)
        while len(inst.user_ids) < 9:
            inst = random_instance(rng, max_m=n, max_users=n)
        tables.append(_user_cost_table(inst)[0])
        sides = [{q for q in range(1, n + 1) if q != p and rng.random() < 0.5} for p in range(1, n + 1)]
        tables.append(_packet_cost_table(GicInstance.make(n, [((p, 1), sides[p - 1]) for p in range(1, n + 1)])))
    for k in (3, 4, 5):
        tables.append(_packet_cost_table(generate_k2(k)[0]))
    for m, n in ((3, 9), (5, 12)):
        everyone = {(i % m + 1, i // m + 1): set(range(1, m + 1)) - {i % m + 1} for i in range(n)}
        inst = GicInstance.make(m, everyone)
        tables += [_user_cost_table(inst)[0], _packet_cost_table(inst)]
    # Tables on which the tight block whose rest has the least lifted string
    # is not the lex-first string's block 0: the rests' own strings decide.
    for seed in (1031, 1085):
        inst = random_instance(random.Random(seed), max_m=6, max_users=9)
        tables += [_user_cost_table(inst)[0], _packet_cost_table(inst)]
    for cost in tables:
        n = len(cost).bit_length() - 1
        assert _min_partition_sum(n, cost) == reference_min_partition_sum(n, cost), n


def test_exhaustive_iupm_k4_family():
    inst, _ = generate_k2(4)  # 12 users
    assert certify(inst, exhaustive_iupm(inst)).rate == 3


def test_fresh_bound_holds_for_every_block_prefix():
    """For every user partition, in enumeration order, and every prefix of
    its blocks, the bound `exhaustive_iupm` gives the users left is at most
    the rank the remaining blocks add, and so is that bound plus the check
    it makes before a block's first insert: min(cost, the block's packets
    no earlier block demands).  Some prefixes are cut by the bound alone:
    their rank is within the optimum, their rank plus the bound is not.
    Some blocks are cut by the check alone: the rank before them plus the
    bound is within the optimum, plus the check it is not."""
    rng = random.Random(11)
    cuts = block_cuts = 0
    for _ in range(25):
        inst = random_instance(rng, max_m=5, max_users=6)
        n = len(inst.user_ids)
        cost, ymask = _user_cost_table(inst)
        bound = _fresh_bounds(inst, ymask)
        prefixes = []  # (rank before a block, the check, rank after, bound of the users left, total)
        for blocks in enumerate_partitions(n):
            part = _users(inst, blocks)
            rows = iter(build_transmissions(inst, part).packed)
            _, overlaps = upm_rate(inst, part)
            ech = Echelon(inst.m)
            left = (1 << n) - 1
            steps = []
            for blk, c in zip(blocks, overlaps):
                B = sum(1 << (x - 1) for x in blk)
                before = len(ech)
                check = min(cost[B], (ymask[B] & ~ymask[(1 << n) - 1 ^ left]).bit_count())
                for _ in range(len({inst.user_ids[x - 1].packet for x in blk}) - c):
                    ech.insert(next(rows))
                left ^= B
                steps.append((before, check, len(ech), bound[left]))
            prefixes += [(*step, len(ech)) for step in steps]
        best = min(total for *_, total in prefixes)
        for before, check, r, b, total in prefixes:
            assert b <= total - r
            assert check + b <= total - before
            cuts += r <= best < r + b
            block_cuts += before + b <= best < before + check + b
    assert cuts
    assert block_cuts
