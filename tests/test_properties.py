"""Randomized invariants across the whole pipeline."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from gicast import (
    GF2,
    GF256,
    CodingMatrix,
    DecodeReport,
    GicInstance,
    PacketPartition,
    SchemeSolution,
    build_transmissions,
    exhaustive_iupm,
    exhaustive_ppm,
    exhaustive_upm,
    group_partition,
    iupm_rate,
    load_instance,
    minrank_gf2,
    ppm_as_upm,
    ppm_rate,
    run_heuristic,
    save_instance,
    simulate_decode,
    upm_rate,
)
from gicast.gf import Decoder, rank, residual_rank, row_basis, scale_row, solve_decode

from conftest import (
    bitmask_rank,
    byte_row,
    enumerate_partitions,
    reference_initial_subsets,
    reference_step2_merge,
    reference_step3,
    scalar_trials,
)


@st.composite
def instances(draw, max_m=4, max_users=6):
    m = draw(st.integers(1, max_m))
    extra = draw(st.integers(0, max_users - m))
    fills = draw(st.lists(st.integers(1, m), min_size=extra, max_size=extra))
    copies = {}
    users = []
    for i in sorted(list(range(1, m + 1)) + fills):
        copies[i] = copies.get(i, 0) + 1
        side = draw(st.sets(st.integers(1, m).filter(lambda p: p != i), max_size=m - 1))
        users.append(((i, copies[i]), side))
    return GicInstance.make(m, users)


@st.composite
def gf2_matrices(draw, max_rows=6, max_cols=8):
    ncols = draw(st.integers(1, max_cols))
    nrows = draw(st.integers(1, max_rows))
    rows = tuple(
        tuple(draw(st.integers(0, 1)) for _ in range(ncols)) for _ in range(nrows)
    )
    return CodingMatrix(GF2, ncols, rows)


@st.composite
def gf256_matrices(draw, max_rows=6, max_cols=8):
    ncols = draw(st.integers(1, max_cols))
    nrows = draw(st.integers(1, max_rows))
    entries = st.one_of(st.just(0), st.integers(1, 255))
    rows: list[tuple[int, ...]] = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):
            # a combination of earlier rows, so dependent rows come up often
            row = [0] * ncols
            for prev in rows:
                f = draw(st.integers(0, 255))
                row = [a ^ scale_row(b, f, 1) for a, b in zip(row, prev)]
        else:
            row = [draw(entries) for _ in range(ncols)]
        rows.append(tuple(row))
    return CodingMatrix(GF256, ncols, tuple(rows))


@given(instances())
@settings(max_examples=40, deadline=None)
def test_scheme_ordering_chain(inst):
    mr = minrank_gf2(inst)
    iu = exhaustive_iupm(inst).rate
    up = exhaustive_upm(inst).rate
    pp = exhaustive_ppm(inst).rate
    assert mr <= iu <= up <= pp
    assert pp <= inst.m  # sending everything raw is always available


@given(instances())
@settings(max_examples=30, deadline=None)
def test_packet_partition_reduction(inst):
    for blocks in enumerate_partitions(inst.m):
        P = PacketPartition.of(blocks)
        r1, _ = ppm_rate(inst, P)
        r2, _ = upm_rate(inst, ppm_as_upm(inst, P))
        assert r1 == r2


@given(instances())
@settings(max_examples=50, deadline=None)
def test_save_load_round_trip(inst):
    assert load_instance(save_instance(inst)) == inst


@given(gf2_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_invariant_under_row_shuffle(M):
    rng = random.Random(0)
    rows = list(M.rows)
    rng.shuffle(rows)
    assert rank(CodingMatrix(GF2, M.ncols, tuple(rows))) == rank(M)


@given(gf2_matrices(), st.integers(1, 255))
@settings(max_examples=40, deadline=None)
def test_rank_invariant_under_scaling(M, scalar):
    lifted = CodingMatrix(GF256, M.ncols, M.rows)
    scaled = CodingMatrix(
        GF256,
        M.ncols,
        tuple(tuple(scale_row(v, scalar, 1) for v in row) for row in M.rows),
    )
    assert rank(scaled) == rank(lifted)


@given(gf2_matrices())
@settings(max_examples=40, deadline=None)
def test_entropy_boundaries(M):
    assert residual_rank(M.packed_bits, [0], M.ncols) == rank(M)
    assert residual_rank(M.packed_bits, [(1 << M.ncols) - 1], M.ncols) == 0


@given(gf2_matrices(), st.data())
@settings(max_examples=80, deadline=None)
def test_residual_rank_matches_the_bitmask_reference(M, data):
    drawn = data.draw(st.sets(st.integers(1, M.ncols)))
    ranks = []
    sides = []
    for known in (set(), drawn, set(range(1, M.ncols + 1))):
        masks = [sum(1 << c for c, v in enumerate(row) if v and c + 1 not in known) for row in M.rows]
        side = sum(1 << p - 1 for p in known)
        assert residual_rank(M.packed_bits, [side], M.ncols) == bitmask_rank(masks)
        ranks.append(bitmask_rank(masks))
        sides.append(side)
    # one call over several side masks gives the largest of their ranks
    for order in (sides, sides[::-1], sides[1:]):
        expected = max(ranks[sides.index(side)] for side in order)
        assert residual_rank(M.packed_bits, order, M.ncols) == expected


@given(instances(max_m=5, max_users=8))
@settings(max_examples=150, deadline=None)
def test_heuristic_matches_the_step_references(inst):
    # the whole pipeline, both seedings, against the references of steps 1-3
    for init, start in zip(("user", "packet"), reference_initial_subsets(inst)):
        merged, trace = reference_step2_merge(inst, start)
        expected = reference_step3(inst, merged)
        sol = run_heuristic(inst, init)
        assert (sol.rate, sol.matrix.rows, sol.matrix.field, sol.trace) == (
            expected.nrows,
            expected.rows,
            expected.field,
            trace,
        )


@given(gf256_matrices(), st.data())
@settings(max_examples=80, deadline=None)
def test_gf256_elimination(M, data):
    r = rank(M)
    assert rank(CodingMatrix(GF256, M.nrows, tuple(zip(*M.rows)))) == r

    B = row_basis(M)
    assert B.nrows == r
    rest = iter(M.rows)
    assert all(any(row == kept for row in rest) for kept in B.rows)  # original order

    target = data.draw(st.integers(1, M.ncols))
    others = [p for p in range(1, M.ncols + 1) if p != target]
    known = data.draw(st.sets(st.sampled_from(others))) if others else set()
    unit = tuple(int(c == target - 1) for c in range(M.ncols))
    zeroed = tuple(
        tuple(0 if c + 1 in known else e for c, e in enumerate(row)) for row in M.rows
    )
    raises = rank(CodingMatrix(GF256, M.ncols, zeroed + (unit,))) > rank(
        CodingMatrix(GF256, M.ncols, zeroed)
    )
    dec = solve_decode(M, known, target)
    assert (dec is None) == raises
    if dec is not None:
        assert dec.target == target
        assert [p for p, _ in dec.known_coeffs] == sorted(known)
        acc = [0] * M.ncols
        for f, row in zip(dec.row_coeffs, M.rows, strict=True):
            acc = [a ^ scale_row(e, f, 1) for a, e in zip(acc, row)]
        for p, f in dec.known_coeffs:
            acc[p - 1] ^= f
        assert tuple(acc) == unit


@st.composite
def deficient_gf2_rows(draw, max_cols=8):
    """(ncols, 0/1 rows): a few drawn rows, then sums of drawn pairs and
    repeats, so the rank is often below both the row and column counts."""
    ncols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 1)] * ncols), max_size=4))
    for i, j in draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=4)):
        if rows:
            a, b = rows[i % len(rows)], rows[j % len(rows)]
            rows.append(tuple(x ^ y for x, y in zip(a, b)))
    return ncols, tuple(rows)


@given(deficient_gf2_rows(), st.sampled_from([0, 1, 16]), st.data())
@settings(max_examples=150, deadline=None)
def test_bit_and_byte_packings_agree(drawn, trials, data):
    # the same 0/1 rows eliminated one bit per column (labelled GF(2)) and
    # one byte per column (labelled GF(2^8)) give the same rank, basis rows,
    # decodings and remainders, for receivers that decode and receivers that
    # do not
    m, rows = drawn
    bit, byte = CodingMatrix(GF2, m, rows), CodingMatrix(GF256, m, rows)
    r = rank(bit)
    assert r == rank(byte) == bitmask_rank(bit.packed_bits)
    assert row_basis(bit) == row_basis(byte)
    assert row_basis(bit).nrows == r
    receivers = []
    for _ in range(data.draw(st.integers(1, 2 * m))):
        target = data.draw(st.integers(1, m))
        receivers.append((data.draw(st.sets(st.integers(1, m).filter(lambda p: p != target))), target))
    bit_decoder, byte_decoder = Decoder(bit), Decoder(byte)
    decodings = [bit_decoder.decode(known, target) for known, target in receivers]
    assert decodings == [byte_decoder.decode(known, target) for known, target in receivers]
    # the trial payloads, one bit per trial, ride in the bit rows as the same
    # symbols do one byte per trial in the byte rows
    payloads = data.draw(st.lists(st.integers(0, (1 << trials) - 1), min_size=len(rows), max_size=len(rows)))
    width = m + len(rows) + trials
    sides = [(sum(1 << p - 1 for p in known), target) for known, target in receivers]
    bits = Decoder(bit, payloads, trials).combinations(sides)
    bytes_ = Decoder(byte, [byte_row(y, trials) for y in payloads], trials).combinations(sides)
    assert [(target, rem if rem is None else byte_row(rem, width)) for _, target, rem in bits] == [
        (target, rem) for _, target, rem in bytes_
    ]
    # the side set: the same bitmask of columns in both packings
    assert [side for side, _, _ in bits] == [side for side, _, _ in bytes_]
    assert [side for side, _, _ in bits] == [side for side, _ in sides]
    assert [rem is None for _, _, rem in bits] == [dec is None for dec in decodings]


@given(instances(), st.sampled_from([0, 1, 16]), st.integers(0, 2**32), st.data())
@settings(max_examples=40, deadline=None)
def test_simulate_matches_per_receiver_decodes_and_scalar_trials(inst, trials, seed, data):
    part = group_partition(inst)
    urate, _ = upm_rate(inst, part)
    irate, basis, label = iupm_rate(inst, part)
    sols = [
        SchemeSolution("upm-group", urate, part, build_transmissions(inst, part)),
        SchemeSolution("iupm-group", irate, part, basis, policy=label),
        run_heuristic(inst, "user"),
        run_heuristic(inst, "packet"),
        exhaustive_ppm(inst),
        exhaustive_upm(inst),
        exhaustive_iupm(inst),
    ]
    # a drawn matrix over either field, often too short for some receivers
    fld = data.draw(st.sampled_from([GF2, GF256]))
    row = st.tuples(*[st.integers(0, fld.order - 1)] * inst.m)
    rows = tuple(data.draw(st.lists(row, max_size=inst.m)))
    sols.append(SchemeSolution("upm-group", len(rows), None, CodingMatrix(fld, inst.m, rows)))
    receivers = [(side, uid.packet) for uid, side in inst.users]
    for sol in sols:
        M = sol.matrix
        symbolic, decodings = [], {}
        for uid, side in inst.users:
            dec = solve_decode(M, side, uid.packet)
            if dec is None:
                symbolic.append((uid, None, f"packet {uid.packet} outside span of rows + side info; rows:\n{M.dump()}"))
            else:
                decodings[uid] = dec
        expected = symbolic + scalar_trials(inst, M, decodings, trials, seed)
        assert simulate_decode(inst, sol, trials, seed) == DecodeReport(not expected, trials, tuple(expected))
        # trial payloads riding above the tags leave every decoding as it is;
        # they are packed like the rows, one bit per trial over GF(2)
        payloads = data.draw(st.lists(st.integers(0, (1 << M.field.w * trials) - 1), min_size=M.nrows, max_size=M.nrows))
        riding, plain = Decoder(M, payloads, trials), Decoder(M)
        assert [riding.decode(*r) for r in receivers] == [plain.decode(*r) for r in receivers]


@given(st.integers(1, 7))
@settings(max_examples=7, deadline=None)
def test_partitions_unique_and_complete(n):
    seen = set()
    for blocks in enumerate_partitions(n):
        flat = sorted(i for b in blocks for i in b)
        assert flat == list(range(1, n + 1))
        key = tuple(sorted(tuple(sorted(b)) for b in blocks))
        assert key not in seen
        seen.add(key)


@given(instances(max_m=3, max_users=5))
@settings(max_examples=30, deadline=None)
def test_block_order_invariance(inst):
    parts = [PacketPartition.of(blocks) for blocks in enumerate_partitions(inst.m)]
    for P in parts:
        reversed_blocks = PacketPartition.of(tuple(reversed(P.blocks)))
        assert ppm_rate(inst, P)[0] == ppm_rate(inst, reversed_blocks)[0]
