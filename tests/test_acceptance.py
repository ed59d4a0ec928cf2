"""Acceptance gate: eleven end-to-end checks with explicit budgets.

Each test prints one `[criterion NN] ... PASS/FAIL` line (visible with
`pytest -s`, and in the captured output on failure)."""

import random
import time
from contextlib import contextmanager
from itertools import combinations

from gicast import (
    CodingMatrix,
    GF256,
    SchemeSolution,
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
    mds_generator,
    minrank_gf2,
    ppm_as_upm,
    ppm_rate,
    run_heuristic,
    simulate_decode,
    upm_rate,
)
from gicast.gf import rank
from gicast.partition import PacketPartition

from conftest import certify, enumerate_partitions, random_instance


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"[criterion {num:02d}] {name}: PASS ({elapsed:.2f}s)")


def test_criterion_01_small_instance_reproduction(ex1):
    with criterion(1, "4-packet instance: exhaustive rates and oracle", 1.0):
        ppm = certify(ex1, exhaustive_ppm(ex1))
        assert ppm.rate == 3
        upm = certify(ex1, exhaustive_upm(ex1))
        assert upm.rate == 2
        assert minrank_gf2(ex1) == 2
        report = simulate_decode(ex1, upm)
        assert report.passed and not report.failures


def test_criterion_02_six_group_family_reduction():
    with criterion(2, "k=6 family: group rate 6, reduced rank 5, dependency row", 1.0):
        inst, gs = generate_k2(6)
        part = UserPartition.of(gs.user_groups())
        urate, _ = upm_rate(inst, part)
        assert urate == 6
        irate, basis, _ = iupm_rate(inst, part)
        assert irate == 5
        full = build_transmissions(inst, part)
        kept = set(basis.rows)
        (removed,) = [row for row in full.rows if row not in kept]
        acc = [0] * inst.m
        for row in basis.rows:
            acc = [a ^ v for a, v in zip(acc, row)]
        assert tuple(acc) == removed
        certify(inst, SchemeSolution("iupm-group", irate, part, basis))


def test_criterion_03_twenty_packet_group_rank(ex3):
    with criterion(3, "20-packet fixture: group-XOR rank 10, 60 receivers decode", 1.0):
        part = group_partition(ex3)
        assert len(part.blocks) == 15
        rate, basis, _ = iupm_rate(ex3, part)
        assert rate == 10
        assert basis.nrows == 10
        sol = SchemeSolution("iupm-group", rate, part, basis)
        report = simulate_decode(ex3, sol)
        assert report.passed
        assert len(ex3.users) == 60


def test_criterion_04_family_group_rates():
    with criterion(4, "k=2..10: group rate k, reduced rank k-1, XOR identity", 5.0):
        for k in range(2, 11):
            inst, gs = generate_k2(k)
            part = UserPartition.of(gs.user_groups())
            urate, overlaps = upm_rate(inst, part)
            assert urate == k
            assert all(c == k - 2 for c in overlaps)
            irate, basis, _ = iupm_rate(inst, part)
            assert irate == k - 1
            # XOR of the first k-1 group rows equals the k-th
            M = build_transmissions(inst, part)
            acc = [0] * inst.m
            for row in M.rows[:-1]:
                acc = [a ^ v for a, v in zip(acc, row)]
            assert tuple(acc) == M.rows[-1]


def test_criterion_05_family_heuristic_rates():
    with criterion(5, "k=2..10: seeded-merge heuristic rates", 10.0):
        for k in range(2, 11):
            inst, _ = generate_k2(k)
            user = certify(inst, run_heuristic(inst, "user"))
            assert user.rate == k
            if k >= 3:
                packet = certify(inst, run_heuristic(inst, "packet"))
                assert packet.rate == k * (k - 3) // 2 + 2


def test_criterion_06_packet_partition_bound():
    with criterion(6, "k=3,4: exhaustive packet-partition rate meets the bound", 5.0):
        for k, expected in ((3, 2), (4, 4)):
            inst, _ = generate_k2(k)
            sol = certify(inst, exhaustive_ppm(inst))
            assert sol.rate == expected
            assert sol.rate >= k * (k - 1) / 6 + 1


def test_criterion_07_exhaustive_user_partition_k4():
    with criterion(7, "k=4: exhaustive user-partition search over Bell(12)", 120.0):
        inst, _ = generate_k2(4)
        sol = certify(inst, exhaustive_upm(inst))
        assert sol.rate == 4


def test_criterion_08_ordering_chain_random():
    with criterion(8, "200 random instances: rate chain and partition reduction", 60.0):
        rng = random.Random(20260815)
        for _ in range(200):
            inst = random_instance(rng)
            mr = minrank_gf2(inst)
            iu = exhaustive_iupm(inst)
            up = exhaustive_upm(inst)
            pp = exhaustive_ppm(inst)
            assert mr <= iu.rate <= up.rate <= pp.rate
            for blocks in enumerate_partitions(inst.m):
                P = PacketPartition.of(blocks)
                assert ppm_rate(inst, P)[0] == upm_rate(inst, ppm_as_upm(inst, P))[0]


def test_criterion_09_decode_certification(ex1, ex3):
    with criterion(9, "every produced solution decodes for every receiver", 60.0):
        solutions = [
            (ex1, exhaustive_ppm(ex1)),
            (ex1, exhaustive_upm(ex1)),
            (ex1, exhaustive_iupm(ex1)),
            (ex1, run_heuristic(ex1, "user")),
            (ex1, run_heuristic(ex1, "packet")),
        ]
        part3 = group_partition(ex3)
        rate3, basis3, _ = iupm_rate(ex3, part3)
        solutions.append((ex3, SchemeSolution("iupm-group", rate3, part3, basis3)))
        for k in (4, 6):
            inst, gs = generate_k2(k)
            part = UserPartition.of(gs.user_groups())
            solutions.append((inst, SchemeSolution(
                "upm-group", upm_rate(inst, part)[0], part, build_transmissions(inst, part)
            )))
            rate, basis, _ = iupm_rate(inst, part)
            solutions.append((inst, SchemeSolution("iupm-group", rate, part, basis)))
            solutions.append((inst, run_heuristic(inst, "user")))
            solutions.append((inst, run_heuristic(inst, "packet")))
        rng = random.Random(5)
        for _ in range(20):
            inst = random_instance(rng)
            solutions.append((inst, exhaustive_upm(inst)))
            solutions.append((inst, exhaustive_iupm(inst)))
        failures = 0
        for inst, sol in solutions:
            report = simulate_decode(inst, sol)
            assert report.trials == 16
            if not report.passed:
                failures += 1
        assert failures == 0
        assert len(solutions) == 5 + 1 + 8 + 40


def test_criterion_10_linear_algebra_units():
    with criterion(10, "partition counts, field axioms, MDS minors", 30.0):
        assert sum(1 for _ in enumerate_partitions(10)) == 115_975
        for a in range(1, 256):
            assert GF256.mul(a, GF256.inv(a)) == 1
        for n in range(1, 11):
            for r in range(1, n + 1):
                M = mds_generator(n, r, GF256)
                for cols in combinations(range(n), r):
                    sub = CodingMatrix(
                        GF256, r, tuple(tuple(row[c] for c in cols) for row in M.rows)
                    )
                    assert rank(sub) == r


def test_criterion_11_exhaustive_iupm_past_the_default_cap():
    with criterion(11, "k=5 (20 users): exhaustive IUPM at cap 20 ends on the acyclic bound", 5.0):
        inst, _ = generate_k2(5)
        sol = certify(inst, exhaustive_iupm(inst, cap=20))
        assert sol.rate == acyclic_bound(inst) == 4
        blocks = [
            [(1, 1), (2, 1), (3, 1), (4, 1)],
            [(1, 2), (5, 1), (6, 1), (7, 1)],
            [(2, 2), (5, 2), (8, 1), (9, 1)],
            [(3, 2), (6, 2), (8, 2), (10, 1)],
            [(4, 2), (7, 2), (9, 2), (10, 2)],
        ]
        assert sol.partition == UserPartition.of([UserId(*u) for u in b] for b in blocks)
        assert sol.matrix.rows == (
            (1, 1, 1, 1, 0, 0, 0, 0, 0, 0),
            (1, 0, 0, 0, 1, 1, 1, 0, 0, 0),
            (0, 1, 0, 0, 1, 0, 0, 1, 1, 0),
            (0, 0, 1, 0, 0, 1, 0, 1, 0, 1),
        )
