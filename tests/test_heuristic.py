"""Three-step merge heuristic, both seeding variants."""

import random

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

from conftest import certify, random_instance, reference_initial_subsets, reference_step2_merge


def random_cases() -> list[GicInstance]:
    """The 1200 random instances steps 1 and 2 are checked on against
    their references."""
    cases = []
    for seed, max_m, max_users in ((7, 5, 7), (8, 6, 9)):
        rng = random.Random(seed)
        cases += [random_instance(rng, max_m, max_users) for _ in range(600)]
    return cases


# -------------------------------------------------------------------- step 1

def test_user_seed_keys_match_naive(ex1):
    # both seedings, dict order and groups included, against the definition
    for inst in [ex1, *(generate_k2(k)[0] for k in range(2, 31)), *random_cases()]:
        by_user, by_packet = reference_initial_subsets(inst)
        assert list(initial_subsets_user(inst).items()) == list(by_user.items())
        assert list(initial_subsets_packet(inst).items()) == list(by_packet.items())


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


@pytest.mark.parametrize("init", [initial_subsets_user, initial_subsets_packet], ids=["user", "packet"])
def test_step2_matches_the_rescanning_reference(init):
    cases = [generate_k2(k)[0] for k in range(2, 20)] + random_cases()
    stuck = 0
    for inst in cases:
        start = init(inst)
        merged, trace = step2_merge(inst, start)
        expected, expected_trace = reference_step2_merge(inst, start)
        assert trace == expected_trace
        assert list(merged.items()) == list(expected.items())  # dict order too
        # a subset keyed by every receiver that still needs promoting stays put
        side, everyone = inst.side_map, inst.user_ids
        if everyone in merged:
            pkts = frozenset().union(*merged[everyone])
            ents = {len(pkts - side[u]) for u in everyone}
            stuck += 0 in ents or len(ents) > 1
    assert stuck > 50


# -------------------------------------------------------------------- step 3

@pytest.mark.parametrize("k", [2, 4, 6, 40])
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
# over GF(2^8) and takes Reed-Solomon rows; k=23, whose code has length 253,
# is the last k where GF(2^8) suffices
@pytest.mark.parametrize("k", [3, 4, 6, 7, 17, 23])
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


@pytest.mark.parametrize("init", ["user", "packet"])
@pytest.mark.parametrize(
    "users",
    [
        [((1, 1), {2}), ((2, 1), {1}), ((3, 1), {1})],  # demands packet 3 of 2
        [((1, 1), {3}), ((2, 1), {1})],  # holds packet 3 of 2
    ],
    ids=["demand", "side"],
)
def test_heuristic_refuses_packets_outside_the_instance(users, init):
    # unvalidated instances reach the library; none may leave a receiver unserved
    with pytest.raises(ValueError, match="outside 1..2"):
        run_heuristic(GicInstance.make(2, users), init)


def test_heuristic_rejects_unknown_init(ex1):
    with pytest.raises(ValueError):
        run_heuristic(ex1, "both")
