"""Three-step merge heuristic, both seeding variants."""

import pytest

from gicast import (
    GicInstance,
    UserId,
    generate_k2,
    initial_subsets_packet,
    initial_subsets_user,
    run_heuristic,
    step2_merge,
)

from conftest import certify


def naive_user_keys(inst: GicInstance) -> dict[UserId, frozenset[UserId]]:
    """Straight-from-the-definition recomputation of each receiver's seed
    key: itself plus every receiver that (a) demands one of its side-info
    packets and (b) holds its demanded packet."""
    keys = {}
    for uid, side in inst.users:
        members = {uid}
        for other, other_side in inst.users:
            if other == uid:
                continue
            if other.packet in side and uid.packet in other_side:
                members.add(other)
        keys[uid] = frozenset(members)
    return keys


# -------------------------------------------------------------------- step 1

def test_user_seed_keys_match_naive(ex1):
    subsets = initial_subsets_user(ex1)
    naive = naive_user_keys(ex1)
    # every receiver's packet must sit in the subset keyed by its naive key
    for uid, key_members in naive.items():
        key = tuple(sorted(key_members))
        assert key in subsets
        assert any(uid.packet in grp for grp in subsets[key])


def test_user_seed_keys_k2_family():
    inst, gs = generate_k2(4)
    subsets = initial_subsets_user(inst)
    # one subset per group, keyed by the full group, holding its packet set
    assert len(subsets) == 4
    for grp_users, pkts in zip(gs.user_groups(), gs.packet_sets):
        key = tuple(sorted(set(grp_users)))
        assert key in subsets
        assert frozenset().union(*subsets[key]) == set(pkts)


def test_user_seed_isolated_user():
    inst = GicInstance.make(2, [((1, 1), set()), ((2, 1), {1})])
    subsets = initial_subsets_user(inst)
    key = (UserId(1, 1),)
    assert key in subsets
    assert len(key) == 1


def test_packet_seed_keys_k2_family():
    inst, gs = generate_k2(4)
    subsets = initial_subsets_packet(inst)
    # one singleton subset per packet, keyed by the union of its two groups
    assert len(subsets) == 6
    for key, groups in subsets.items():
        pkts = frozenset().union(*groups)
        assert len(pkts) == 1
        (i,) = pkts
        touching = [g for g, Y in zip(gs.user_groups(), gs.packet_sets) if i in Y]
        assert key == tuple(sorted(set().union(*touching)))


def test_packet_seed_unicast_matches_user_seed():
    # when every packet has one receiver the two seedings coincide
    inst = GicInstance.make(3, [((1, 1), {2}), ((2, 1), {1}), ((3, 1), {1})])
    assert set(initial_subsets_packet(inst)) == set(initial_subsets_user(inst))


def test_example1_packet_seed_keys(ex1):
    subsets = initial_subsets_packet(ex1)
    keys = {frozenset(map(tuple, k)): frozenset().union(*groups) for k, groups in subsets.items()}
    assert keys == {
        frozenset({(1, 1), (1, 2), (2, 1), (3, 1), (4, 1)}): frozenset({1}),
        frozenset({(1, 2), (2, 1), (3, 1)}): frozenset({2, 3}),
        frozenset({(1, 1), (4, 1)}): frozenset({4}),
    }


# -------------------------------------------------------------------- step 2

def test_step2_fixed_point_on_group_seeds():
    inst, _ = generate_k2(5)
    subsets = initial_subsets_user(inst)
    merged, trace = step2_merge(inst, subsets)
    assert merged == subsets
    assert trace == ()


def test_step2_positive_entropy_unchanged():
    inst = GicInstance.make(2, [((1, 1), set()), ((2, 1), set())])
    subsets = initial_subsets_user(inst)
    merged, trace = step2_merge(inst, subsets)
    assert merged == subsets
    assert trace == ()


def test_step2_k2_packet_seeds_collapse():
    # packet seeding on the family cascades into a single subset holding
    # every packet; growth stops one level above the seed keys, where all
    # key members see the same residual m - (k-2)
    k = 4
    inst, _ = generate_k2(k)
    merged, trace = step2_merge(inst, initial_subsets_packet(inst))
    assert len(merged) == 1
    ((key, groups),) = merged.items()
    assert len(key) == 2 * (k - 1) + 1
    assert frozenset().union(*groups) == set(range(1, inst.m + 1))
    assert all(len(g) == 1 for g in groups)
    assert len(trace) == inst.m


def test_step2_example1_trace(ex1):
    merged, trace = step2_merge(ex1, initial_subsets_packet(ex1))
    assert trace == (
        "promote (1,1)(4,1) level 2 -> 3 merge into (1,2)(2,1)(3,1)",
        "promote (1,2)(2,1)(3,1) level 3 -> 4",
        "promote (1,1)(1,2)(2,1)(3,1) level 4 -> 5 merge into (1,1)(1,2)(2,1)(3,1)(4,1)",
    )
    assert len(merged) == 1


@pytest.mark.parametrize("init", [initial_subsets_user, initial_subsets_packet], ids=["user", "packet"])
def test_subset_keys_are_sorted_receiver_tuples(ex1, init):
    for inst in (ex1, generate_k2(4)[0]):
        start = init(inst)
        merged, _ = step2_merge(inst, start)
        for key in [*start, *merged]:
            assert key == tuple(sorted(set(key)))
            assert all(isinstance(u, UserId) for u in key)


# -------------------------------------------------------------------- step 3

@pytest.mark.parametrize("k", [2, 4, 6])
def test_heuristic_user_rate_on_family(k):
    inst, gs = generate_k2(k)
    sol = certify(inst, run_heuristic(inst, "user"))
    assert sol.rate == k
    if k >= 3:
        # one XOR row per group
        assert sol.matrix.nrows == k
        supports = {
            frozenset(c + 1 for c, v in enumerate(row) if v) for row in sol.matrix.rows
        }
        assert supports == {frozenset(Y) for Y in gs.packet_sets}


# from k=17 a subset's code, (136, 121) at k=17, is too long for Cauchy rows
# over GF(2^8) and takes Reed-Solomon rows
@pytest.mark.parametrize("k", [3, 4, 6, 7, 17])
def test_heuristic_packet_rate_on_family(k):
    inst, _ = generate_k2(k)
    sol = certify(inst, run_heuristic(inst, "packet"))
    assert sol.rate == k * (k - 3) // 2 + 2


def test_heuristic_single_unknown_packet():
    inst = GicInstance.make(2, [((1, 1), {2}), ((2, 1), {1})])
    sol = certify(inst, run_heuristic(inst, "user"))
    assert sol.rate == 1


def test_heuristic_example1_regression(ex1):
    user = certify(ex1, run_heuristic(ex1, "user"))
    assert user.rate == 2
    assert user.matrix.rows == ((1, 0, 0, 1), (1, 1, 1, 0))
    packet = certify(ex1, run_heuristic(ex1, "packet"))
    assert packet.rate == 2
    assert packet.scheme == "heuristic-packet"


def test_heuristic_rejects_unknown_init(ex1):
    with pytest.raises(ValueError):
        run_heuristic(ex1, "both")
