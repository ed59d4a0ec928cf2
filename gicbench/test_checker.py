"""Tests of the benchmark's own checker and reference values.

    python3 -m pytest gicbench
"""

import random

import bounds
from checker import (
    Instance,
    Receiver,
    certify,
    clmul_mod,
    gf256_inv,
    gf256_mul,
    parse_instance,
)
from workloads import FAULT_TEXT, shaped_instance

FAULT = parse_instance(FAULT_TEXT)

# Found by the cross-check against gicast: decoding receiver (5,1) needs a
# reduction step that changes later columns of the vector being reduced.
MULTI_STEP = parse_instance(
    "gic 5\nuser 1 1 : 3 5\nuser 2 1 : 1 3 4 5\nuser 3 1 : 2 4\n"
    "user 4 1 : 1 2 3 5\nuser 5 1 : 4\nuser 5 2 : 1 3 4\n"
)
MULTI_STEP_ROWS = ((82, 123, 123, 246, 203), (203, 209, 209, 141, 82), (209, 203, 203, 1, 123))

# Three receivers of one packet each: 1 and 2 know each other's packet.
SMALL = Instance(3, (Receiver(1, 1, frozenset({2})), Receiver(2, 1, frozenset({1})), Receiver(3, 1, frozenset())))
SMALL_ROWS = ((1, 1, 0), (0, 0, 1))


def test_tables_match_carry_less_product():
    for a in range(256):
        for b in range(256):
            assert gf256_mul(a, b) == clmul_mod(a, b)
    for a in range(1, 256):
        assert gf256_mul(a, gf256_inv(a)) == 1


def test_accepts_decodable_codes():
    assert certify(SMALL, 2, SMALL_ROWS) is None
    assert certify(MULTI_STEP, 3, MULTI_STEP_ROWS) is None
    assert certify(FAULT, 2, ((203, 141, 246), (82, 246, 141))) is None


def test_rejects_the_kept_heuristic_fault():
    assert certify(FAULT, 2, ((226, 98, 0), (0, 0, 1))) == "receiver (2,2) cannot decode packet 2"


def test_rejects_a_deleted_row():
    assert certify(SMALL, 1, SMALL_ROWS[:1]) is not None
    assert certify(MULTI_STEP, 2, MULTI_STEP_ROWS[1:]) is not None


def test_rejects_a_zeroed_coefficient():
    assert certify(SMALL, 2, ((1, 0, 0), (0, 0, 1))) is not None
    rows = [list(r) for r in MULTI_STEP_ROWS]
    rows[0][1] = 0
    assert certify(MULTI_STEP, 3, rows) == "receiver (5,1) cannot decode packet 5"


def test_rejects_a_rate_that_is_not_the_row_count():
    assert certify(SMALL, 3, SMALL_ROWS) is not None


def _partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def _ppm_brute(inst):
    def cost(block):
        d = min(len(r.side & set(block)) for r in inst.receivers if r.packet in block)
        return len(block) - d

    return min(sum(cost(b) for b in p) for p in _partitions(list(range(1, inst.m + 1))))


def _upm_brute(inst):
    def cost(block):
        y = {inst.receivers[u].packet for u in block}
        return len(y) - min(len(inst.receivers[u].side & y) for u in block)

    return min(sum(cost(b) for b in p) for p in _partitions(list(range(len(inst.receivers)))))


def test_subset_recursion_matches_enumeration():
    rng = random.Random(5)
    for _ in range(40):
        m = rng.randint(1, 5)
        inst = shaped_instance(rng, m, rng.randint(m, 6))
        assert bounds.ppm_optimum(inst) == _ppm_brute(inst)
        assert bounds.upm_optimum(inst) == _upm_brute(inst)


def test_acyclic_bound():
    # Receiver 1 knows packet 2 and receiver 2 knows packet 1: a 2-cycle.
    assert bounds.acyclic_exact(SMALL) == 2
    assert bounds.acyclic_exact(FAULT) == 2
    # generate_k2(4).  On the (k,2) class the acyclic packet sets are the
    # forests of K_k, so the bound is k - 1.
    k4 = parse_instance(
        "gic 6\nuser 1 1 : 2 3\nuser 1 2 : 4 5\nuser 2 1 : 1 3\nuser 2 2 : 4 6\n"
        "user 3 1 : 1 2\nuser 3 2 : 5 6\nuser 4 1 : 1 5\nuser 4 2 : 2 6\n"
        "user 5 1 : 1 4\nuser 5 2 : 3 6\nuser 6 1 : 2 4\nuser 6 2 : 3 5\n"
    )
    assert bounds.acyclic_exact(k4) == 3
    assert bounds.acyclic_greedy(k4) == 3
