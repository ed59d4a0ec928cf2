"""Finite-field arithmetic and the matrix kit."""

import random
from itertools import combinations

import pytest

from gicast import GF2, GF256, CodingMatrix, GicInstance, UserId, field, generate_k2, gf, run_heuristic
from gicast.gf import (
    Decoder,
    Decoding,
    Echelon,
    FieldSizeError,
    bit_row,
    mds_generator,
    pack_row,
    rank,
    residual_rank,
    row_basis,
    scale_row,
    solve_decode,
    unpack_row,
)

from conftest import bitmask_rank, byte_row, reference_back_substitution, reference_residue


# ------------------------------------------------------------------- fields

def test_gf2_tables():
    assert GF2.mul(1, 1) == 1
    assert GF2.inv(1) == 1


def test_gf256_inverses_exhaustive():
    for a in range(1, 256):
        assert GF256.mul(a, GF256.inv(a)) == 1


def test_gf256_known_products():
    # 0x53 * 0xCA = 0x01 under the conventional degree-8 polynomial
    assert GF256.mul(0x53, 0xCA) == 0x01
    assert GF256.mul(2, 128) == 0x1B


@pytest.mark.parametrize("w", [1, 8])
def test_field_axioms_randomized(w):
    fld = field(w)
    rng = random.Random(w)
    q = 1 << w
    for _ in range(200):
        a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
        assert fld.mul(a, b) == fld.mul(b, a)
        assert fld.mul(a, fld.mul(b, c)) == fld.mul(fld.mul(a, b), c)
        assert fld.mul(a, b ^ c) == fld.mul(a, b) ^ fld.mul(a, c)
        if a:
            assert fld.mul(fld.mul(a, b), fld.inv(a)) == b


def test_field_pow():
    assert GF256.pow(3, 0) == 1
    a = 7
    acc = 1
    for e in range(1, 10):
        acc = GF256.mul(acc, a)
        assert GF256.pow(a, e) == acc


def test_field_cache_identity():
    assert field(8) is GF256
    assert field(1) is GF2


@pytest.mark.parametrize("w", [0, 2, 4, 12, 16])
def test_field_rejects_other_degrees(w):
    with pytest.raises(ValueError, match="1 or 8"):
        field(w)


# ------------------------------------------------------------------ matrices

def test_matrix_validation():
    with pytest.raises(ValueError):
        CodingMatrix(GF2, 3, ((1, 0),))  # wrong width
    with pytest.raises(ValueError):
        CodingMatrix(GF2, 2, ((2, 0),))  # entry outside field


def test_matrix_dump():
    M = CodingMatrix(GF256, 3, ((1, 0, 255),))
    assert M.dump() == "1 0 255"


def test_rank_identity_rows():
    M = CodingMatrix(GF2, 4, tuple(tuple(1 if c == r else 0 for c in range(4)) for r in range(4)))
    assert rank(M) == 4


def test_rank_dependent_xor_rows():
    rows = ((1, 1, 0), (0, 1, 1), (1, 0, 1))  # third = first + second
    assert rank(CodingMatrix(GF2, 3, rows)) == 2


def test_rank_gf256():
    rows = ((3, 5, 0), (6, 10, 0), (0, 0, 9))  # second = 2 * first
    assert rank(CodingMatrix(GF256, 3, rows)) == 2


def test_echelon_scales_pivot_rows_through_field_mul():
    # a row led by f is stored as f^-1 times itself: every scaling table
    # is checked against Field.mul on every element
    for f in range(1, 256):
        ech = Echelon(257)
        assert ech.insert(pack_row((f, *range(256)))) == 0
        inv = GF256.inv(f)
        assert unpack_row(ech.pivots[0], 257) == (1, *(GF256.mul(inv, x) for x in range(256)))


@pytest.mark.parametrize("order", [2, 256], ids=["GF2", "GF256"])
def test_echelon_residue_is_one_per_coset(order):
    # residue(x) is zero in every pivot column, unchanged by adding a span
    # element, and 0 exactly for the rows the span holds
    rng = random.Random(order)
    for _ in range(40):
        ncols = rng.randint(1, 7)
        rows = [pack_row([rng.randrange(order) for _ in range(ncols)]) for _ in range(rng.randint(0, 6))]
        ech = Echelon(ncols)
        for row in rows:
            ech.insert(row)
        for _ in range(5):
            x = pack_row([rng.randrange(order) for _ in range(ncols)])
            s = 0
            for row in rows:
                s ^= scale_row(row, rng.randrange(order), ncols)
            res = ech.residue(x)
            assert all(unpack_row(res, ncols)[c] == 0 for c in ech.pivots)
            assert ech.residue(x ^ s) == res
            assert ech.residue(s) == 0
            in_span = rank(CodingMatrix.of_packed(ncols, rows + [x])) == len(ech)
            assert (res == 0) == in_span


def test_gf2_rank_masks_matches_matrix_rank():
    rng = random.Random(5)
    for _ in range(50):
        masks = [rng.randrange(1 << 10) for _ in range(rng.randint(1, 8))]
        rows = tuple(tuple((mask >> c) & 1 for c in range(10)) for mask in masks)
        assert bitmask_rank(masks) == rank(CodingMatrix(GF2, 10, rows))


def test_row_basis_keeps_original_rows():
    rows = ((1, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1))
    B = row_basis(CodingMatrix(GF2, 4, rows))
    assert B.rows == ((1, 1, 0, 0), (0, 0, 1, 1))


def test_bit_rows_pack_one_bit_per_column():
    # bit c holds column c; byte_row undoes bit_row on every 0/1 row; both
    # packings read the same coefficients and widen a column bitmask to
    # their own whole columns
    assert bit_row(pack_row((1, 0, 1, 1)), 4) == 0b1101
    assert byte_row(0b1101, 4) == pack_row((1, 0, 1, 1))
    rng = random.Random(24)
    for _ in range(200):
        m = rng.randint(1, 40)
        entries = [rng.randrange(2) for _ in range(m)]
        row, tail = pack_row(entries), rng.getrandbits(16)
        assert byte_row(bit_row(row, m), m) == row
        bits, bytes_ = Echelon(m, bits=1), Echelon(m)
        assert bits.coefficients(bit_row(row, m) | tail << m, m) == bytes_.coefficients(row | tail << 8 * m, m) == bytes(entries)
        assert (bits.columns(bit_row(row, m)), bytes_.columns(bit_row(row, m))) == (bit_row(row, m), row * 0xFF)
    M = CodingMatrix(GF2, 3, ((1, 0, 1), (0, 1, 1)))
    assert M.packed_bits == (0b101, 0b110)
    with pytest.raises(ValueError, match="GF\\(2\\)"):
        CodingMatrix(GF256, 3, ((1, 0, 1),)).packed_bits


@pytest.mark.parametrize("bits", [0, 2, 16])
def test_echelon_refuses_other_packings(bits):
    with pytest.raises(ValueError, match="1 or 8"):
        Echelon(3, bits=bits)


def test_of_packed_field_follows_the_entries():
    rows = [pack_row((1, 0, 1)), pack_row((0, 1, 1))]
    M = CodingMatrix.of_packed(3, rows)
    assert (M.field, M.rows, M.packed) == (GF2, ((1, 0, 1), (0, 1, 1)), tuple(rows))
    assert CodingMatrix.of_packed(3, [pack_row((1, 0, 2))]).field == GF256
    assert CodingMatrix.of_packed(3, []).field == GF2
    # a basis that drops the only entry above 1 is over GF(2)
    B = row_basis(CodingMatrix(GF256, 2, ((1, 0), (0, 1), (1, 7))))
    assert (B.field, B.rows) == (GF2, ((1, 0), (0, 1)))


def test_row_basis_single_row():
    M = CodingMatrix(GF2, 3, ((0, 1, 1),))
    assert row_basis(M).rows == M.rows


def test_row_basis_span_equality_random():
    rng = random.Random(11)
    for _ in range(20):
        rows = tuple(tuple(rng.randint(0, 1) for _ in range(10)) for _ in range(8))
        M = CodingMatrix(GF2, 10, rows)
        B = row_basis(M)
        assert B.nrows == rank(M)
        # every original row lies in the span of the basis: rank unchanged
        for row in M.rows:
            aug = CodingMatrix(GF2, 10, B.rows + (row,))
            assert rank(aug) == B.nrows


# ------------------------------------------------------------------- MDS

def test_mds_r1_is_parity_row():
    M = mds_generator(5, 1, GF2)
    assert M.rows == ((1, 1, 1, 1, 1),)


def test_mds_square_is_identity():
    M = mds_generator(3, 3, GF256)
    assert M.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_mds_minors_n4_r2():
    M = mds_generator(4, 2, GF256)
    for cols in combinations(range(4), 2):
        sub = CodingMatrix(GF256, 2, tuple(tuple(row[c] for c in cols) for row in M.rows))
        assert rank(sub) == 2


def test_mds_rejects_bad_shapes():
    with pytest.raises(ValueError):
        mds_generator(2, 3, GF256)
    with pytest.raises(FieldSizeError, match="too small for an MDS code of length 256"):
        mds_generator(256, 100, GF256)  # 2^8 <= n: no 256 distinct nonzero points


def test_mds_reed_solomon_where_cauchy_does_not_fit():
    # 2^8 < n + r, so the rows are Reed-Solomon: every 100 columns invertible
    M = mds_generator(200, 100, GF256)
    assert M.rows[1][:3] == (1, 2, 3)
    rng = random.Random(17)
    for _ in range(5):
        cols = rng.sample(range(200), 100)
        sub = CodingMatrix(GF256, 100, tuple(tuple(row[c] for c in cols) for row in M.rows))
        assert rank(sub) == 100


# ------------------------------------------------------------ residual rank

def test_entropy_raw_packets():
    # three unit rows for packets 1, 2, 3 out of m=4; side masks, bit p - 1
    # for packet p
    rows = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    S = CodingMatrix(GF2, 4, rows)
    assert residual_rank(S.packed_bits, [0b0011], S.ncols) == 1
    assert residual_rank(S.packed_bits, [0], S.ncols) == 3
    assert residual_rank(S.packed_bits, [0b1111], S.ncols) == 0
    # the largest over the side masks given, 0 for none
    assert residual_rank(S.packed_bits, [0b1111, 0b0011, 0b0111], S.ncols) == 1
    assert residual_rank(S.packed_bits, [], S.ncols) == 0


def test_entropy_single_xor_row():
    S = CodingMatrix(GF2, 4, ((1, 1, 1, 0),))
    assert residual_rank(S.packed_bits, [0b0110], S.ncols) == 1
    assert residual_rank(S.packed_bits, [0b0111], S.ncols) == 0
    assert residual_rank(S.packed_bits, [0b0111, 0b0110], S.ncols) == 1


@pytest.mark.parametrize("known", [{0}, {-1, 2}, {5}, {1, 4, 5}])
def test_side_sets_refuse_packets_outside_the_columns(known):
    # the two places a side set becomes a mask: the instance's view, for the
    # searches, the heuristic and the simulator, and `decode`
    inst = GicInstance(4, ((UserId(3, 1), frozenset(known)),))
    with pytest.raises(ValueError, match=r"^known packet -?\d+ outside 1\.\.4$"):
        inst.packet_masks
    with pytest.raises(ValueError, match=r"^known packet -?\d+ outside 1\.\.4$"):
        Decoder(CodingMatrix(GF2, 4, ((1, 1, 1, 1),))).decode(known, 3)


# ---------------------------------------------------------------- decoding

def test_solve_decode_xor_pair():
    M = CodingMatrix(GF2, 4, ((1, 0, 0, 1),))
    dec = solve_decode(M, {4}, 1)
    assert dec is not None
    assert dec.target == 1
    assert dec.row_coeffs == (1,)
    assert dec.known_coeffs == ((4, 1),)


def test_solve_decode_empty_basis_undecodable():
    M = CodingMatrix(GF2, 3, ())
    assert solve_decode(M, set(), 1) is None


def test_solve_decode_needs_side_info():
    M = CodingMatrix(GF2, 3, ((1, 1, 0),))
    assert solve_decode(M, set(), 1) is None
    assert solve_decode(M, {2}, 1) is not None


def test_solve_decode_reduces_side_packets_against_every_row():
    # e_1 reduces to (0, 1, 1) against the first row and stops at column 2,
    # which has no pivot; column 3 needs the second row, and e_1 = row 1 +
    # row 2 + e_2
    M = CodingMatrix(GF2, 3, ((1, 1, 1), (0, 0, 1)))
    dec = solve_decode(M, {2}, 1)
    assert dec == Decoding(1, (1, 1), ((2, 1),))


BAD_RECEIVERS = [(set(), 0), (set(), 4), ({2}, 2), ({0}, 1), ({4}, 1)]


@pytest.mark.parametrize("known,target", BAD_RECEIVERS)
def test_solve_decode_rejects_packets_outside_the_matrix(known, target):
    # the same check, with the same message, in both packings
    messages = []
    for fld in (GF2, GF256):
        with pytest.raises(ValueError, match=r"^(target|known) packet -?\d+ (outside 1\.\.3|already known)$") as e:
            solve_decode(CodingMatrix(fld, 3, ((1, 1, 1),)), known, target)
        messages.append(str(e.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("known,target", BAD_RECEIVERS)
def test_decode_all_checks_every_receiver_before_decoding(monkeypatch, known, target):
    decoder = Decoder(CodingMatrix(GF2, 3, ((1, 1, 1),)))

    class Untouched(Echelon):
        def insert(self, row):
            raise AssertionError("a receiver was decoded before every receiver was checked")

    monkeypatch.setattr(gf, "Echelon", Untouched)
    with pytest.raises(ValueError):
        decoder.decode_all([({1}, 2), ({1}, 3), (known, target)])


def test_solve_decode_mds_any_erasure_pattern():
    rng = random.Random(3)
    n, r = 6, 3
    M = mds_generator(n, r, GF256)
    for known_cols in combinations(range(1, n + 1), n - r):
        target = rng.choice([c for c in range(1, n + 1) if c not in known_cols])
        assert solve_decode(M, set(known_cols), target) is not None


def test_solve_decode_coefficients_reconstruct_symbol():
    rng = random.Random(9)
    M = mds_generator(5, 2, GF256)
    payload = [rng.randrange(256) for _ in range(5)]
    received = [
        0 if not row else __import__("functools").reduce(
            lambda a, b: a ^ b, (GF256.mul(c, x) for c, x in zip(row, payload))
        )
        for row in M.rows
    ]
    known = {3, 4, 5}
    dec = solve_decode(M, known, 1)
    assert dec is not None
    acc = 0
    for coeff, sym in zip(dec.row_coeffs, received):
        acc ^= GF256.mul(coeff, sym)
    for col, coeff in dec.known_coeffs:
        acc ^= GF256.mul(coeff, payload[col - 1])
    assert acc == payload[0]


def fresh_decoding(rows, m, known, target):
    """e_target over the rows and the known unit vectors, by Gauss-Jordan
    elimination on lists from scratch: keep each of the rows, then each
    known unit on a column without a pivot in the rows' echelon, then each
    other known unit, in ascending order, that is independent of those kept
    before, and solve for e_target over the kept ones, where the
    combination is unique.  None when e_target is outside their span."""
    basis = []  # (pivot column, vector, its combination of rows then units), fully reduced

    def axpy(f, xs, ys):
        return [y ^ GF256.mul(f, x) for x, y in zip(xs, ys)]

    def reduce(v, comb):
        for col, bv, bc in basis:
            if v[col]:
                v, comb = axpy(v[col], bv, v), axpy(v[col], bc, comb)
        return v, comb

    def keep(vecs, first):
        for i, vec in enumerate(vecs, first):
            v, comb = reduce(vec, [int(j == i) for j in range(n + len(kcols))])
            if any(v):
                col = next(c for c, e in enumerate(v) if e)
                inv = GF256.inv(v[col])
                v, comb = [GF256.mul(inv, e) for e in v], [GF256.mul(inv, e) for e in comb]
                basis[:] = [(c, axpy(bv[col], v, bv), axpy(bv[col], comb, bc)) for c, bv, bc in basis]
                basis.append((col, v, comb))

    n, kcols = len(rows), sorted(known)
    keep([list(r) for r in rows], 0)
    pivot_cols = {col for col, _, _ in basis}
    kcols = [p for p in kcols if p - 1 not in pivot_cols] + [p for p in kcols if p - 1 in pivot_cols]
    keep([[int(c == p - 1) for c in range(m)] for p in kcols], n)
    v, comb = reduce([int(c == target - 1) for c in range(m)], [0] * (n + len(kcols)))
    if any(v):
        return None
    return Decoding(target, tuple(comb[:n]), tuple(sorted(zip(kcols, comb[n:]))))


def decoder_draws(fld):
    """150 matrices of up to 8 rows over 1..8 packets, each with one known
    set per target: (rows, m, [(known, target), ...]).  Rows may repeat or
    combine earlier rows, so some are dependent and a decoder must keep the
    same greedy rows and side units as `fresh_decoding`."""
    rng = random.Random(fld.order)
    for _ in range(150):
        m = rng.randint(1, 8)
        rows = []
        for _ in range(rng.randint(0, 8)):
            if rows and rng.random() < 0.4:
                a, b = rng.choice(rows), rng.choice(rows)
                f = rng.randrange(fld.order)
                rows.append(tuple(x ^ GF256.mul(f, y) for x, y in zip(a, b)))
            else:
                rows.append(tuple(rng.randrange(fld.order) if rng.random() < 0.6 else 0 for _ in range(m)))
        receivers = []
        for target in range(1, m + 1):
            known = {p for p in range(1, m + 1) if p != target and rng.random() < 0.5}
            receivers.append((known, target))
        yield rows, m, receivers


@pytest.mark.parametrize("fld", [GF2, GF256], ids=["GF2", "GF256"])
def test_decoder_certificates_match_a_fresh_elimination(fld):
    decodable = receivers = 0
    for rows, m, draws in decoder_draws(fld):
        decoder = Decoder(CodingMatrix(fld, m, tuple(rows)))
        for known, target in draws:
            expected = fresh_decoding(rows, m, known, target)
            assert decoder.decode(known, target) == expected, (rows, known, target)
            decodable += expected is not None
            receivers += 1
    assert 100 < decodable < receivers - 100  # both verdicts are checked


@pytest.mark.parametrize("fld", [GF2, GF256], ids=["GF2", "GF256"])
def test_solve_decode_matches_the_shared_decoder(fld):
    # solve_decode builds a decoder per call; the shared one must keep no
    # state from one receiver to the next
    for rows, m, draws in decoder_draws(fld):
        M = CodingMatrix(fld, m, tuple(rows))
        decoder = Decoder(M)
        for known, target in draws:
            assert solve_decode(M, known, target) == decoder.decode(known, target), (rows, known, target)


def reduction_matrices(source):
    """The matrices of `decoder_draws` over GF(2) or GF(2^8), or the
    heuristic's matrices, both inits, on the family k=2..12."""
    if source == "family":
        for k in range(2, 13):
            inst, _ = generate_k2(k)
            for init in ("user", "packet"):
                yield run_heuristic(inst, init).matrix
    else:
        fld = GF2 if source == "GF2" else GF256
        for rows, m, _ in decoder_draws(fld):
            yield CodingMatrix(fld, m, tuple(rows))


def packings(M):
    """(bits per column, packed rows) of each packing M's entries fit: the
    byte rows, and the bit rows of a matrix over GF(2)."""
    yield 8, M.packed
    if M.field == GF2:
        yield 1, M.packed_bits


@pytest.mark.parametrize("source", ["GF2", "GF256", "family"])
def test_residue_matches_the_reference_loop(source):
    # on every partial basis of tagged rows, the empty one first, the
    # residue of every row, every unit row and random rows, in each packing
    rng = random.Random(18)
    stepped = {8: 0, 1: 0}
    for M in reduction_matrices(source):
        m, width = M.ncols, M.ncols + M.nrows
        order = 2 if M.field == GF2 else 256
        randoms = [pack_row([rng.randrange(order) for _ in range(m)]) for _ in range(4)]
        for bits, packed in packings(M):
            rows = [row | 1 << bits * (m + r) for r, row in enumerate(packed)]
            probes = rows + [1 << bits * c for c in range(m)]
            probes += randoms if bits == 8 else [bit_row(x, m) for x in randoms]
            ech = Echelon(m, width, bits)
            for row in [None] + rows:
                if row is not None:
                    ech.insert(row)
                for x in probes:
                    expected = reference_residue(ech.pivots, x, m, width, bits)
                    assert ech.residue(x) == expected, (M.rows, bits, x)
                    stepped[bits] += ech._reduce(x, (1 << bits * m) - 1)[0] != expected
    # some residues go on past a column without a pivot; in the family's
    # echelons every pivot column comes before the first free one
    assert stepped[8] > 0 or source == "family"
    assert stepped[1] > 0 or source != "GF2"


@pytest.mark.parametrize("source", ["GF2", "GF256", "family"])
def test_decoder_reduction_matches_the_reference_back_substitution(source):
    reduced = 0
    for M in reduction_matrices(source):
        # the echelon of the tagged rows, as Decoder builds it before reducing:
        # one bit per column over GF(2), one byte over GF(2^8)
        m, width, bits = M.ncols, M.ncols + M.nrows, M.field.w
        packed = M.packed_bits if bits == 1 else M.packed
        ech = Echelon(m, width, bits)
        for r, row in enumerate(packed):
            ech.insert(row | 1 << bits * (m + r))
        expected = reference_back_substitution(ech.pivots, width, bits)
        assert Decoder(M)._pivots == expected, M.rows
        reduced += expected != ech.pivots
    assert reduced > 0  # the reduction changes some pivot rows


def with_offered(monkeypatch, decode):
    """decode() and the number of side units offered to receiver echelons
    while it ran."""
    offered = []

    class CountingEchelon(Echelon):
        def insert(self, row):
            offered.append(row)
            return super().insert(row)

    with monkeypatch.context() as patch:
        patch.setattr(gf, "Echelon", CountingEchelon)
        out = decode()
    return out, len(offered)


def receiver_inserts(monkeypatch, M, known, target):
    """Decoder(M).decode(known, target) and the number of side units the
    receiver's echelon was offered."""
    decoder = Decoder(M)
    return with_offered(monkeypatch, lambda: decoder.decode(known, target))


@pytest.mark.parametrize("fld", [GF2, GF256], ids=["GF2", "GF256"])
def test_decode_all_matches_a_fresh_elimination_per_receiver(monkeypatch, fld):
    # each draw's receivers, plus one whose side list is a prefix of each
    # one's and one with the same side list and any target, shuffled: the
    # one receiver echelon must carry nothing from a receiver to the next
    rng = random.Random(fld.order + 9)
    stopped = 0
    for rows, m, draws in decoder_draws(fld):
        M = CodingMatrix(fld, m, tuple(rows))
        receivers = list(draws)
        for known, target in draws:
            receivers.append((set(sorted(known)[:rng.randint(0, len(known))]), target))
            receivers.append((known, rng.choice([t for t in range(1, m + 1) if t not in known])))
        rng.shuffle(receivers)
        found = Decoder(M).decode_all(receivers)
        assert found == [fresh_decoding(rows, m, known, target) for known, target in receivers], rows
        alone = [receiver_inserts(monkeypatch, M, known, target)[1] for known, target in receivers]
        stopped += any(n < len(known) for n, (known, _) in zip(alone, receivers))
    assert stopped > 20


@pytest.mark.parametrize("fld", [GF2, GF256], ids=["GF2", "GF256"])
def test_decoder_stops_once_the_side_units_span_the_free_columns(monkeypatch, fld):
    # a receiver offers its echelon exactly the pivot rows at its side
    # columns, and none once its side set holds every column without a
    # pivot row: at full rank, and on rank-deficient matrices too
    rng = random.Random(fld.order + 5)
    full = covered = 0
    for _ in range(300):
        m = rng.randint(1, 7)
        rows = [tuple(rng.randrange(fld.order) for _ in range(m)) for _ in range(rng.randint(0, m))]
        M = CodingMatrix(fld, m, tuple(rows))
        ech = Echelon(m)
        for row in M.packed:
            ech.insert(row)
        pivot = {c + 1 for c in ech.pivots}
        free = set(range(1, m + 1)) - pivot
        target = rng.choice(sorted(pivot)) if pivot and rng.random() < 0.5 else rng.randint(1, m)
        known = {p for p in range(1, m + 1) if p != target and rng.random() < (0.9 if p in free else 0.5)}
        dec, offered = receiver_inserts(monkeypatch, M, known, target)
        assert dec == fresh_decoding(rows, m, known, target), (rows, known, target)
        if free <= known:
            assert offered == 0, (rows, known, target)
            full += not free
            covered += bool(free)
        else:
            assert offered == len(known & pivot), (rows, known, target)
    assert full > 20 and covered > 20, (full, covered)
