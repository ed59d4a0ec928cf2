"""Partition enumeration and the three partition-based rate objectives."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gicast.oracle
import gicast.partition

from gicast import (
    GF2,
    MinrankBudgetError,
    GF256,
    PacketPartition,
    PartitionCapError,
    UserId,
    UserPartition,
    acyclic_bound,
    build_transmissions,
    exhaustive_iupm,
    exhaustive_ppm,
    exhaustive_upm,
    generate_k2,
    group_partition,
    iupm_rate,
    load_instance,
    minrank_gf2,
    ppm_as_upm,
    ppm_rate,
    run_heuristic,
    upm_rate,
)
from gicast.gf import Echelon, mds_generator
from gicast.partition import (
    _block_demands,
    _cost_table,
    _min_partition_sum,
    _packet_cost_table,
    _packing,
    _totals,
    _user_cost_table,
    acyclic_lower_bound,
)

from conftest import (
    FIXTURES,
    certify,
    enumerate_partitions,
    packing_out_of_memory,
    random_instance,
    reference_cost_table,
    reference_fresh_bound,
    reference_min_partition_sum,
    reference_totals,
    shaped_instance,
)


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
    from gicast import GicInstance

    # 14 packets with one receiver each: a ground set of 14 for every search
    inst = GicInstance.make(14, [((p, 1), set()) for p in range(1, 15)])
    for search in (exhaustive_ppm, exhaustive_upm, exhaustive_iupm):
        with pytest.raises(PartitionCapError):
            search(inst)
    # explicit override lifts it
    assert exhaustive_upm(inst, cap=14).rate == 14


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


def test_group_schemes_send_nothing_for_a_block_its_receivers_hold():
    # only a receiver that lists its own packet gives a block an overlap c
    # equal to |Y|; such a block sends no row instead of asking for an (n, 0)
    # MDS code, and the group schemes agree with the exhaustive searches
    from gicast import GicInstance
    from gicast.cli import SOLVERS

    inst = GicInstance.make(3, [((1, 1), {1, 2}), ((2, 1), set()), ((3, 1), {1})])
    groups = group_partition(inst)
    for scheme in ("upm-group", "iupm-group", "ppm-exhaustive", "upm-exhaustive", "iupm-exhaustive"):
        assert SOLVERS[scheme](inst, groups, 16).rate == 2, scheme
    assert build_transmissions(inst, groups).rows == ((0, 1, 0), (0, 0, 1))


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
        ids, side = inst.user_ids, dict(inst.users)
        labels = [rng.randrange(len(ids)) for _ in ids]
        part = UserPartition.of([u for u, l in zip(ids, labels) if l == b] for b in set(labels))
        expect = []
        for W in part.blocks:
            Y = sorted({u.packet for u in W})
            b = len(Y) - min(len(side[u] & set(Y)) for u in W)
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
        cost = _user_cost_table(inst)
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
        for cost in (_user_cost_table(inst), _packet_cost_table(inst)):
            n = len(cost).bit_length() - 1
            for t in range(n):
                assert cost[1 << t] <= 1
                for B in range(len(cost)):
                    assert cost[B | 1 << t] >= cost[B], (B, t)


def _member_tables(inst):
    """The (demand, holders, sides) masks of the user and the packet cost
    tables, built from the instance alone."""
    ids = inst.user_ids
    sides = [sum(1 << (p - 1) for p in side) for _, side in inst.users]
    users = ([1 << (uid.packet - 1) for uid in ids], [1 << t for t in range(len(ids))], sides)
    holders = [sum(1 << t for t, uid in enumerate(ids) if uid.packet == p) for p in range(1, inst.m + 1)]
    return users, ([1 << t for t in range(inst.m)], holders, sides)


def test_cost_table_matches_the_per_subset_reference():
    """Both tables, and the user table's demanded packets, equal the
    per-subset reference on shaped draws of 8-13 receivers, on the family's
    packet tables (several demanders per packet), and on receivers that
    know nothing or every other packet.  On up to 10 members the DP reads
    the reference DP's total and witness off the new table."""
    from gicast import GicInstance

    rng = random.Random(29)
    insts = [shaped_instance(rng, rng.randint(3, min(n, 9)), n) for n in range(8, 14) for _ in range(2)]
    family = [generate_k2(k)[0] for k in range(2, 6)]
    extremes = []
    for m, n in ((3, 8), (5, 9), (6, 12)):
        users = {}
        for i in range(n):
            p, others = i % m + 1, set(range(1, m + 1)) - {i % m + 1}
            users[p, i // m + 1] = (set(), others, {q for q in others if rng.random() < 0.5})[i % 3]
        extremes.append(GicInstance.make(m, users))
    checked = 0
    for inst in insts + family + extremes:
        user_members, packet_members = _member_tables(inst)
        packet_ref, _ = reference_cost_table(*packet_members)
        tables = [(packet_ref, _packet_cost_table(inst))]
        if len(inst.user_ids) <= 13:  # not family k=5: 2^20 subsets
            user_ref, ymask = reference_cost_table(*user_members)
            tables.append((user_ref, _user_cost_table(inst)))
            assert _block_demands(user_members[0]) == ymask
        for ref, cost in tables:
            assert cost == ref
            n = len(cost).bit_length() - 1
            if n <= 10:
                assert _min_partition_sum(n, cost) == reference_min_partition_sum(n, ref)
                checked += 1
    assert checked >= 20


def test_cost_table_peak_memory_stays_within_the_reference():
    # the lanes of 12 members over 12 packets hold less than the
    # reference's three lists and their entries
    inst = shaped_instance(random.Random(31), 12, 12)
    members, _ = _member_tables(inst)

    def peak(build) -> int:
        tracemalloc.start()
        try:
            build(*members)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(_cost_table) < peak(reference_cost_table)


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


def _all_but_own(m: int, n: int):
    """n receivers over m packets, receiver i demanding packet i mod m + 1
    and knowing every other packet."""
    from gicast import GicInstance

    return GicInstance.make(m, {(i % m + 1, i // m + 1): set(range(1, m + 1)) - {i % m + 1} for i in range(n)})


def test_exhaustive_iupm_matches_brute_force_on_ties_and_above_the_floor():
    """The first optimum in restricted-growth order where every receiver
    knows every packet but its own, so that many partitions tie, and on
    draws whose optimum is above `acyclic_bound`, so that the search cannot
    end on the bound.  Seed 1743 (6 users) is a draw where the first optimal
    partition that the block-by-block search meets is not the first optimal
    string."""
    insts = [_all_but_own(m, n) for m, n in ((2, 8), (3, 7), (4, 6), (5, 5))]
    insts.append(random_instance(random.Random(1743), max_m=7, max_users=8))
    rng = random.Random(23)
    while len(insts) < 16:
        inst = random_instance(rng, max_m=6, max_users=7)
        if exhaustive_iupm(inst).rate > acyclic_bound(inst):
            insts.append(inst)
    for inst in insts:
        assert _summary(exhaustive_iupm(inst)) == _iupm_reference(inst)


def _dp_tables() -> list[list[int]]:
    """Random cost tables of 9-12 elements and tie-heavy ones: the family's
    packet tables, and instances where every receiver knows every other
    packet, so that every block costs 1."""
    from gicast import GicInstance

    rng = random.Random(17)
    tables = []
    for n in range(9, 13):
        inst = random_instance(rng, max_m=n, max_users=n)
        while len(inst.user_ids) < 9:
            inst = random_instance(rng, max_m=n, max_users=n)
        tables.append(_user_cost_table(inst))
        sides = [{q for q in range(1, n + 1) if q != p and rng.random() < 0.5} for p in range(1, n + 1)]
        tables.append(_packet_cost_table(GicInstance.make(n, [((p, 1), sides[p - 1]) for p in range(1, n + 1)])))
    for k in (3, 4, 5):
        tables.append(_packet_cost_table(generate_k2(k)[0]))
    for m, n in ((3, 9), (5, 12)):
        inst = _all_but_own(m, n)
        tables += [_user_cost_table(inst), _packet_cost_table(inst)]
    # Tables on which the tight block whose rest has the least lifted string
    # is not the lex-first string's block 0: the rests' own strings decide.
    for seed in (1031, 1085):
        inst = random_instance(random.Random(seed), max_m=6, max_users=9)
        tables += [_user_cost_table(inst), _packet_cost_table(inst)]
    return tables


def test_min_partition_sum_matches_the_keyed_single_pass_dp():
    """Same total and lex-first string as the reference DP, on the tables
    of `_dp_tables`."""
    for cost in _dp_tables():
        n = len(cost).bit_length() - 1
        assert _min_partition_sum(n, cost) == reference_min_partition_sum(n, cost), n


def _assert_totals_match(cost: list[int]) -> None:
    """`_totals` equals the reference scan on every set that pass 1
    defines: the sets without element 0, and the full set."""
    n = len(cost).bit_length() - 1
    full = (1 << n) - 1
    defined = [*range(0, full, 2), full]
    got, want = _totals(n, cost), reference_totals(n, cost)
    assert [got[S] for S in defined] == [want[S] for S in defined], n


def test_totals_match_the_reference_scan():
    """Pass 1 gives the reference scan's total on every set it defines, on
    the tables of `_dp_tables` and on the user tables of the two shaped
    fixtures, of 12 and 13 receivers."""
    tables = _dp_tables()
    for name in ("shaped_7_12.gic", "shaped_6_13.gic"):
        tables.append(_user_cost_table(load_instance((FIXTURES / name).read_text())))
    for cost in tables:
        _assert_totals_match(cost)


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_totals_match_the_reference_scan_on_random_tables(rng):
    inst = random_instance(rng, max_m=9, max_users=9)
    _assert_totals_match(_user_cost_table(inst))
    _assert_totals_match(_packet_cost_table(inst))


def test_exhaustive_iupm_k4_family():
    inst, _ = generate_k2(4)  # 12 users
    assert certify(inst, exhaustive_iupm(inst)).rate == 3


def _left_bounds(inst, ymask):
    """The bound `exhaustive_iupm` gives every mask of users left, once the
    other users' blocks are placed, and the reference fresh bound there."""
    users = inst.packet_masks
    full = len(ymask) - 1
    out = {}
    for left in range(full + 1):
        fresh = ymask[left] & ~ymask[full ^ left]
        pending = [u for t, u in enumerate(users) if left >> t & 1]
        out[left] = acyclic_lower_bound(fresh, pending), reference_fresh_bound(fresh, pending)
    return out


def test_fresh_bound_holds_for_every_block_prefix():
    """For every user partition, in enumeration order, and every prefix of
    its blocks, the acyclic bound `exhaustive_iupm` gives the users left is
    at most the rank the remaining blocks add, and so is that bound plus
    the check it makes before a block's first insert: min(cost, the block's
    packets no earlier block demands).  The bound is never below the
    reference fresh-packet bound, and above it on some prefixes.  Some
    prefixes are cut by the bound alone: their rank is within the optimum,
    their rank plus the bound is not.  Some blocks are cut by the check
    alone: the rank before them plus the bound is within the optimum, plus
    the check it is not."""
    rng = random.Random(11)
    cuts = block_cuts = stronger = 0
    for _ in range(25):
        inst = random_instance(rng, max_m=5, max_users=6)
        n = len(inst.user_ids)
        cost = _user_cost_table(inst)
        ymask = _block_demands([demand for demand, _ in inst.packet_masks])
        bounds = _left_bounds(inst, ymask)
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
                b, ref = bounds[left]
                assert b >= ref
                stronger += b > ref
                steps.append((before, check, len(ech), b))
            prefixes += [(*step, len(ech)) for step in steps]
        best = min(total for *_, total in prefixes)
        for before, check, r, b, total in prefixes:
            assert b <= total - r
            assert check + b <= total - before
            cuts += r <= best < r + b
            block_cuts += before + b <= best < before + check + b
    assert cuts
    assert block_cuts
    assert stronger


# ------------------------------------------------------- the acyclic floor

def _floorless(monkeypatch):
    monkeypatch.setattr(gicast.partition, "acyclic_bound", lambda inst: 0)
    monkeypatch.setattr(gicast.oracle, "acyclic_bound", lambda inst: 0)


def _minrank(inst):
    try:
        return minrank_gf2(inst)
    except MinrankBudgetError:
        return None


def test_acyclic_floor_changes_no_result(monkeypatch):
    """`exhaustive_iupm` ends its loop at the first branch whose limit is
    below the root bound, and `minrank_gf2` stops at the first leaf that
    reaches it; with the floor at 0 both give the same witnesses and
    values, and minrank walks more nodes (one `acyclic_lower_bound` per
    node)."""
    nodes = [0]
    node_bound = gicast.oracle.acyclic_lower_bound

    def counted(fresh, pending):
        nodes[0] += 1
        return node_bound(fresh, pending)

    monkeypatch.setattr(gicast.oracle, "acyclic_lower_bound", counted)
    rng = random.Random(29)
    insts = [random_instance(rng, max_m=6, max_users=8) for _ in range(60)]
    insts += [generate_k2(3)[0], load_instance((FIXTURES / "shaped_7_12.gic").read_text())]
    with_floor = [(_summary(exhaustive_iupm(inst)), _minrank(inst)) for inst in insts]
    floor_nodes = nodes[0]
    _floorless(monkeypatch)
    assert [(_summary(exhaustive_iupm(inst)), _minrank(inst)) for inst in insts] == with_floor
    assert floor_nodes < nodes[0] - floor_nodes


def _inserts(monkeypatch, inst) -> int:
    """Rows `exhaustive_iupm` inserts into its echelon: the work of its
    search nodes."""
    count = [0]

    class Counting(Echelon):
        def insert(self, row):
            count[0] += 1
            return super().insert(row)

    monkeypatch.setattr(gicast.partition, "Echelon", Counting)
    exhaustive_iupm(inst)
    return count[0]


def test_exhaustive_iupm_ends_at_its_first_leaf_on_the_bound(monkeypatch):
    """On the k=3 family the first partition in restricted-growth order,
    the all-user block, has rank 2 = `acyclic_bound`: the search inserts
    that block's rows and reads no other block's cost."""
    inst, _ = generate_k2(3)
    one = UserPartition.of([inst.user_ids])
    assert iupm_rate(inst, one)[0] == acyclic_bound(inst) == 2
    reads = set()

    class Reads(list):
        def __getitem__(self, mask):
            reads.add(mask)
            return super().__getitem__(mask)

    table = gicast.partition._cost_table
    monkeypatch.setattr(gicast.partition, "_cost_table", lambda *args: Reads(table(*args)))
    assert _inserts(monkeypatch, inst) == len(build_transmissions(inst, one).rows) == 2
    assert reads == {(1 << len(inst.user_ids)) - 1}


def test_acyclic_bounds_cut_the_shaped_searches(monkeypatch):
    """On a 13-user instance the acyclic bounds leave 11 inserts, where the
    fresh-packet bound let the search make 698 679.  On a 12-user one whose
    optimum the root bound meets, the floor cuts the branches that could
    only tie the incumbent once the incumbent reaches it."""
    shaped = load_instance((FIXTURES / "shaped_6_13.gic").read_text())
    assert _inserts(monkeypatch, shaped) == 11
    shaped = load_instance((FIXTURES / "shaped_7_12.gic").read_text())
    assert exhaustive_iupm(shaped).rate == acyclic_bound(shaped)
    with_floor = _inserts(monkeypatch, shaped)
    _floorless(monkeypatch)
    assert with_floor < _inserts(monkeypatch, shaped)


# ------------------------------------------------------------ memory limits

def test_packed_strings_past_memory_are_a_cap_error(monkeypatch):
    """When the packed strings of the PPM/UPM witness pass do not fit, both
    searches raise PartitionCapError; the cache keeps no failure.  IUPM
    builds no such table, and claims each 2^n table through `_table`."""
    inst = shaped_instance(random.Random(5), 4, 9)
    upm = _summary(exhaustive_upm(inst))
    packing_out_of_memory(monkeypatch)
    with pytest.raises(PartitionCapError, match=r"^packed strings of 2\^9 sets do not fit in memory$"):
        exhaustive_upm(inst)
    with pytest.raises(PartitionCapError, match=r"^packed strings of 2\^4 sets do not fit in memory$"):
        exhaustive_ppm(inst)
    claims = []
    table = gicast.partition._table
    monkeypatch.setattr(gicast.partition, "_table", lambda n, fill=0: claims.append((n, fill)) or table(n, fill))
    exhaustive_iupm(inst)
    assert claims == [(9, 0), (9, 0), (9, -1)]
    monkeypatch.undo()
    assert _packing(9)[0] == 4
    assert _summary(exhaustive_upm(inst)) == upm
