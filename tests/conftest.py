"""Shared fixtures: canned instances, a seeded instance generator, a
decode-certification helper every solution-producing test funnels through,
and brute-force references kept apart from the code the tests check."""

import random
import sys
from functools import reduce
from itertools import combinations
from operator import xor
from pathlib import Path

import pytest

import gicast.partition
from gicast import GF256, CodingMatrix, GicInstance, SchemeSolution, load_instance, simulate_decode
from gicast.gf import mds_rows, scale_row

FIXTURES = Path(__file__).parent / "fixtures"


def certify(inst: GicInstance, sol: SchemeSolution) -> SchemeSolution:
    """Assert the solution actually lets every receiver decode; returns it
    so call sites can chain.  Keeps the no-unverified-solutions rule in one
    place."""
    report = simulate_decode(inst, sol)
    assert report.passed, f"{sol.scheme}: {report.first_failure}"
    return sol


@pytest.fixture(scope="session")
def ex1() -> GicInstance:
    return load_instance((FIXTURES / "example1.gic").read_text())


@pytest.fixture(scope="session")
def ex3() -> GicInstance:
    return load_instance((FIXTURES / "example3.gic").read_text())


def packing_out_of_memory(monkeypatch) -> None:
    """Make the 2^n table of packed strings that the PPM/UPM witness pass
    builds fail with MemoryError, as it does past the memory limit, while
    every other table fits."""
    table = gicast.partition._table

    def claim(n: int, fill: int = 0) -> list[int]:
        if sys._getframe(1).f_code.co_name == "_packing":
            raise MemoryError
        return table(n, fill)

    monkeypatch.setattr(gicast.partition, "_table", claim)
    gicast.partition._packing.cache_clear()


def random_instance(rng: random.Random, max_m: int = 4, max_users: int = 7) -> GicInstance:
    """Small random well-formed instance: every packet demanded at least
    once, side info an arbitrary subset of the other packets."""
    m = rng.randint(1, max_m)
    return shaped_instance(rng, m, rng.randint(m, max_users))


def shaped_instance(rng: random.Random, m: int, n_users: int) -> GicInstance:
    """`random_instance` with m packets and n_users receivers."""
    demands = list(range(1, m + 1)) + [rng.randint(1, m) for _ in range(n_users - m)]
    rng.shuffle(demands)
    copies: dict[int, int] = {}
    users = []
    for i in demands:
        copies[i] = copies.get(i, 0) + 1
        side = {p for p in range(1, m + 1) if p != i and rng.random() < 0.5}
        users.append(((i, copies[i]), side))
    return GicInstance.make(m, users)


def scalar_trials(inst: GicInstance, M, decodings: dict, trials: int, seed: int) -> list:
    """The payload trials one trial and one receiver at a time through
    GF256.mul, in the simulator's order of draws and of failures: payloads
    are `random.Random(seed).randrange` of M's field order, and `decodings`
    maps each decodable receiver, in user order, to its `Decoding`."""
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        x = [rng.randrange(M.field.order) for _ in range(inst.m)]
        y = [reduce(xor, (GF256.mul(e, v) for e, v in zip(row, x)), 0) for row in M.rows]
        for uid, dec in decodings.items():
            est = reduce(xor, (GF256.mul(f, v) for f, v in zip(dec.row_coeffs, y)), 0)
            est ^= reduce(xor, (GF256.mul(f, x[p - 1]) for p, f in dec.known_coeffs), 0)
            if est != x[uid.packet - 1]:
                failures.append((uid, t, f"trial {t}: reconstructed {est}, payload {x[uid.packet - 1]}"))
    return failures


def bitmask_rank(masks) -> int:
    """Rank over GF(2) of rows packed one bit per column: a reference kept
    apart from the kernel in gicast.gf that the tests check."""
    basis: dict[int, int] = {}
    for row in masks:
        while row:
            low = row & -row
            if low not in basis:
                basis[low] = row
                break
            row ^= basis[low]
    return len(basis)


def byte_row(row: int, ncols: int) -> int:
    """A row of ncols columns packed one bit per column repacked one byte
    per column, as by `gicast.gf.pack_row`: the inverse of
    `gicast.gf.bit_row`, kept here to compare the two packings."""
    return sum(1 << 8 * c for c in range(ncols) if row >> c & 1)


def reference_residue(pivots: dict[int, int], row: int, ncols: int, width: int, bits: int = 8) -> int:
    """Row less the pivot rows at every pivot column, in ascending order,
    as one loop of its own: a reference kept apart from `Echelon.residue`,
    which the tests check is built on `Echelon._reduce`.  Rows are packed
    `bits` bits per column, 8 or 1; pivot rows are keyed by their pivot
    column, scaled to 1 there and zero before it; only the first ncols
    columns are eliminated, width columns ride along."""
    lane = (1 << bits) - 1
    rest = (1 << bits * ncols) - 1
    while True:
        v = row & rest
        if not v:
            return row
        c = ((v & -v).bit_length() - 1) // bits
        p = pivots.get(c)
        if p is None:  # step past a column without a pivot
            rest &= -1 << bits * (c + 1)
        else:
            f = (v >> bits * c) & lane
            row ^= p if f == 1 else scale_row(p, f, width)


def reference_back_substitution(pivots: dict[int, int], width: int, bits: int = 8) -> dict[int, int]:
    """The pivot rows of an echelon reduced column by column from the
    right: each pivot row is cleared from every other pivot row, so each is
    zero in every other pivot column.  Rows are packed `bits` bits per
    column, 8 or 1.  A reference kept apart from the reduction in
    `gicast.gf.Decoder`, which goes through `Echelon._reduce`."""
    lane = (1 << bits) - 1
    pivots = dict(pivots)
    for c in sorted(pivots, reverse=True):
        p = pivots[c]
        for d, q in pivots.items():
            f = (q >> bits * c) & lane
            if f and d != c:
                pivots[d] = q ^ (p if f == 1 else scale_row(p, f, width))
    return pivots


def rgs_stream(n: int):
    """Restricted growth strings of length n in lexicographic order; the
    yielded list is reused, callers must copy."""
    a = [0] * n
    maxes = [0] * (n + 1)  # maxes[t] = max(a[:t]); position t may rise to maxes[t]+1
    t = n - 1
    yield a
    while t > 0:
        if a[t] <= maxes[t]:
            a[t] += 1
            maxes[t + 1] = max(maxes[t], a[t])
            for s in range(t + 1, n):
                a[s] = 0
                maxes[s + 1] = maxes[s]
            t = n - 1
            yield a
        else:
            t -= 1


def enumerate_partitions(n: int):
    """Every set partition of {1..n} exactly once, in restricted-growth
    lexicographic order, as tuples of ascending blocks: the brute-force
    reference of the searches, which return the first optimum in this
    order."""
    if n < 1:
        raise ValueError(f"ground set must be nonempty, got n={n}")
    for a in rgs_stream(n):
        blocks: list[list[int]] = [[] for _ in range(max(a) + 1)]
        for x, b in enumerate(a, 1):
            blocks[b].append(x)
        yield tuple(tuple(b) for b in blocks)


def reference_fresh_bound(fresh: int, pending) -> int:
    """The fresh-packet bound the searches pruned with before the acyclic
    one, kept as a reference the acyclic bound must never fall below.  With
    fresh packets it is max(1, t), t the fresh packets demanded by a pending
    receiver whose side set holds no fresh packet; without, 0."""
    if not fresh:
        return 0
    forced = 0
    for demand, side in pending:
        if demand & fresh and not side & fresh:
            forced |= demand
    return max(1, forced.bit_count())


def exact_acyclic_bound(inst: GicInstance) -> int:
    """Size of the largest acyclic packet set, over all 2^m subsets: a set
    is acyclic when one of its packets has a demander whose side set misses
    the rest of the set, and the rest is acyclic.  Every index code sends
    at least this many symbols (Bar-Yossef, Birk, Jayram & Kol)."""
    sides = {p: [side for uid, side in inst.users if uid.packet == p] for p in range(1, inst.m + 1)}
    acyclic = {frozenset()}
    for size in range(1, inst.m + 1):
        grown = {
            T
            for T in map(frozenset, combinations(range(1, inst.m + 1), size))
            if any(T - {p} in acyclic and any(not side & T for side in sides[p]) for p in T)
        }
        if not grown:
            return size - 1
        acyclic |= grown
    return inst.m


def reference_cost_table(demand, holders, sides) -> tuple[list[int], list[int]]:
    """Block costs and demanded packets of every subset of members, one
    subset at a time: a reference kept apart from the whole-table
    `gicast.partition._cost_table` and `_block_demands` that the tests
    check.  Member t demands the packets in demand[t] and stands for the
    receivers in holders[t]; receiver h holds the packets in sides[h].
    Block mask demands Y = ymask[mask] and costs cost[mask] = |Y| minus the
    smallest |sides[h] & Y| over the receivers it stands for."""
    size = 1 << len(demand)
    cost = [0] * size
    ymask = [0] * size
    hmask = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        t = low.bit_length() - 1
        y = ymask[mask] = ymask[mask ^ low] | demand[t]
        hs = hmask[mask] = hmask[mask ^ low] | holders[t]
        ny = c = y.bit_count()
        while hs:
            lb = hs & -hs
            c = min(c, (sides[lb.bit_length() - 1] & y).bit_count())
            hs ^= lb
        cost[mask] = ny - c
    return cost, ymask


def reference_totals(n: int, cost) -> list[int]:
    """Pass 1 of the subset DP by a scan over the blocks of each set: a
    reference kept apart from `gicast.partition._totals` that the tests
    check.  f[S] = min over blocks B holding low = min(S) of cost[B] + f(S
    - B), for the full set and every set without element 0; other entries
    stay 0.  Under the DP's precondition (monotone costs, singletons of
    cost at most 1) f(S) is f(S - low) or one more, so a set's scan stops
    at the first block that reaches f(S - low)."""
    full = (1 << n) - 1
    f = [0] * (1 << n)
    for t in range(n - 1, -1, -1):
        low = 1 << t
        step = low << 1
        c = cost[low::step]
        g = f[0::step]
        h = g  # a free singleton: f(low | R) = f(R)
        if c[0]:
            h = [1] * len(g)
            # the group of element 0 needs only the full set
            for k in range(1, len(g)) if t else (len(g) - 1,):
                lo = g[k]
                sub = k & -k  # the subsets of k, ascending
                while sub:
                    if c[sub] + g[k ^ sub] == lo:
                        break
                    sub = (sub - k) & k
                else:
                    lo += 1
                h[k] = lo
        if t:
            f[low::step] = h
        else:
            f[full] = h[-1]
    return f


def reference_min_partition_sum(n: int, cost) -> tuple[int, list[int]]:
    """Single-pass subset DP over keyed totals: a reference kept apart from
    the two-pass `gicast.partition._min_partition_sum` that the tests check.

    f(S) = min over blocks B holding min(S) of cost[B] + f(S - B).  Each set
    keeps the key total * 2^(width*n) + its packed lex-first optimal RGS, so
    one integer minimum settles ties by the string; with B at label 0, the
    string of S is the rest's string with every label raised by one."""
    width = max(1, (n - 1).bit_length())
    shift = width * n
    ones = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        ones[mask] = ones[mask ^ low] + (1 << (width * (n - low.bit_length())))
    full = (1 << n) - 1
    lifted = [0] * (1 << n)  # key[S] + ones[S]: S as the rest beside a label-0 block
    for S in (*range(2, full, 2), full):  # only these are ever a rest
        low = S & -S
        rest = S ^ low
        best = cost[S] << shift  # B = S, nothing left
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            best = min(best, (cost[sub | low] << shift) + lifted[rest ^ sub])
        lifted[S] = best + ones[S]
    key = lifted[full] - ones[full]
    code = key & ((1 << shift) - 1)
    digit = (1 << width) - 1
    return key >> shift, [(code >> (width * (n - 1 - t))) & digit for t in range(n)]


def reference_seed_keys(inst: GicInstance) -> dict:
    """Each receiver's step-1 key straight from the definition, as a sorted
    tuple: itself plus every other receiver that demands one of its side
    packets and holds its demanded packet."""
    keys = {}
    for uid, side in inst.users:
        members = {uid}
        for other, other_side in inst.users:
            if other != uid and other.packet in side and uid.packet in other_side:
                members.add(other)
        keys[uid] = tuple(sorted(members))
    return keys


def reference_initial_subsets(inst: GicInstance) -> tuple[dict, dict]:
    """Step-1 seeds from the definition, user-seeded then packet-seeded: a
    reference kept apart from `gicast.heuristic.initial_subsets_user` and
    `initial_subsets_packet` that the tests check, dict order included.
    User seeding: each receiver, in user order, inserts its packet under
    its key.  Packet seeding: each packet 1..m is inserted once under the
    union of its demanders' keys.  Packets inserted under one key form its
    single group."""
    keys = reference_seed_keys(inst)
    by_user = [(key, uid.packet) for uid, key in keys.items()]
    by_packet = [
        (tuple(sorted({v for uid, key in keys.items() if uid.packet == i for v in key})), i)
        for i in range(1, inst.m + 1)
    ]
    seeds = []
    for pairs in (by_user, by_packet):
        buckets: dict = {}
        for key, i in pairs:
            buckets.setdefault(key, set()).add(i)
        seeds.append({key: (frozenset(pkts),) for key, pkts in buckets.items()})
    return seeds[0], seeds[1]


def reference_step2_merge(inst: GicInstance, subsets: dict) -> tuple[dict, tuple[str, ...]]:
    """Step 2 by rescanning every subset after each promotion: a reference
    kept apart from the incremental `gicast.heuristic.step2_merge` that the
    tests check, with the same promotions, trace and dict order."""
    subs = dict(subsets)
    all_users = inst.user_ids
    side = inst.side_map
    trace: list[str] = []
    stuck: set = set()
    while True:
        zero, unequal = [], []
        for key, groups in subs.items():
            if key in stuck:
                continue
            pkts = frozenset().union(*groups)
            ents = {len(pkts - side[u]) for u in key}
            if 0 in ents:
                zero.append(key)
            elif len(ents) > 1:
                unequal.append(key)
        cands = zero or unequal
        if not cands:
            break
        key = min(cands, key=lambda k: (len(k), k))
        v = len(key)
        if v == len(all_users):
            stuck.add(key)
            continue
        groups = subs.pop(key)
        higher = [k for k in subs if len(k) == v + 1]
        if higher:
            grown = min(higher)
        else:
            missing = next(u for u in all_users if u not in key)
            grown = tuple(sorted(key + (missing,)))
        step = f"promote {''.join(u.label() for u in key)} level {v} -> {v + 1}"
        if grown in subs:
            subs[grown] += groups
            step += f" merge into {''.join(u.label() for u in grown)}"
        else:
            subs[grown] = groups
        trace.append(step)
    return subs, tuple(trace)


def reference_step3(inst: GicInstance, subsets: dict) -> CodingMatrix:
    """Step 3 from the definition: a reference kept apart from
    `gicast.heuristic.step3_rate` that the tests check.  Subsets are taken
    by ascending (level, key); each packet group is one 0/1 row, duplicates
    dropped.  A subset's rho is the largest, over its key members, of
    `bitmask_rank` of its group masks less the member's side packets, and
    it sends `mds_rows` of its rows, rho of them, nothing when rho is 0."""
    side = inst.side_map
    rows = []
    for key in sorted(subsets, key=lambda k: (len(k), k)):
        masks = list(dict.fromkeys(sum(1 << p - 1 for p in group) for group in subsets[key]))
        rho = max(bitmask_rank([row & ~sum(1 << p - 1 for p in side[u]) for row in masks]) for u in key)
        if rho:
            rows += mds_rows([byte_row(row, inst.m) for row in masks], rho)
    return CodingMatrix.of_packed(inst.m, rows)
