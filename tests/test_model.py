"""Instance model, family generator, and the text format."""

import pytest

from gicast import (
    GF2,
    CodingMatrix,
    GicInstance,
    InstanceFormatError,
    InvalidInstanceError,
    SchemeSolution,
    UserId,
    acyclic_bound,
    exhaustive_iupm,
    exhaustive_ppm,
    exhaustive_upm,
    generate_k2,
    gf,
    load_instance,
    minrank_gf2,
    parse_instance,
    position_index,
    run_heuristic,
    save_instance,
    simulate_decode,
    validate,
)

from conftest import FIXTURES


# ------------------------------------------------------------------ user ids

def test_userid_ordering():
    assert UserId(1, 1) < UserId(1, 2) < UserId(2, 1) < UserId(10, 1)
    assert sorted([UserId(2, 1), UserId(1, 2), UserId(1, 1)]) == [
        UserId(1, 1), UserId(1, 2), UserId(2, 1)
    ]


def test_userid_label():
    assert UserId(3, 2).label() == "(3,2)"


# ----------------------------------------------------------------- validation

def test_validate_example1_clean(ex1):
    assert validate(ex1) == []


def test_validate_self_inclusion():
    inst = GicInstance.make(2, [((1, 1), {1, 2}), ((2, 1), set())])
    msgs = validate(inst)
    assert len(msgs) == 1
    assert "self-inclusion" in msgs[0]


def test_validate_undemanded_packet():
    inst = GicInstance.make(3, [((1, 1), {2}), ((2, 1), set())])
    msgs = validate(inst)
    assert len(msgs) == 1
    assert "undemanded packet" in msgs[0]
    assert "3" in msgs[0]


def test_validate_reports_an_undemanded_run_once():
    # a huge header with one user: one short violation, not one per packet
    inst = GicInstance.make(10**6, [((1, 1), set())])
    assert validate(inst) == ["undemanded packets: 2..1000000"]
    inst = GicInstance.make(6, [((2, 1), set()), ((4, 1), set())])
    assert validate(inst) == [
        "undemanded packet: 1",
        "undemanded packet: 3",
        "undemanded packets: 5..6",
    ]


def test_validate_copy_gap():
    inst = GicInstance.make(1, [((1, 1), set()), ((1, 3), set())])
    assert any("copy" in v for v in validate(inst))


def test_validate_side_out_of_range():
    # one message per packet outside 1..m, in the side set's iteration
    # order (0, 3, -2 for small ints), and none for the packets inside
    inst = GicInstance.make(2, [((1, 1), {0, -2, 2, 3}), ((2, 1), {1})])
    assert validate(inst) == [
        "user (1,1): side-info packet 0 outside 1..2",
        "user (1,1): side-info packet 3 outside 1..2",
        "user (1,1): side-info packet -2 outside 1..2",
    ]


# ------------------------------------------------------------ family generator

K6_GROUPS = [
    {(1, 1), (2, 1), (3, 1), (4, 1), (5, 1)},
    {(1, 2), (6, 1), (7, 1), (8, 1), (9, 1)},
    {(2, 2), (6, 2), (10, 1), (11, 1), (12, 1)},
    {(3, 2), (7, 2), (10, 2), (13, 1), (14, 1)},
    {(4, 2), (8, 2), (11, 2), (13, 2), (15, 1)},
    {(5, 2), (9, 2), (12, 2), (14, 2), (15, 2)},
]


def test_generate_k2_k6_groups():
    inst, gs = generate_k2(6)
    assert inst.m == 15
    assert len(inst.users) == 30
    groups = [set(map(tuple, g)) for g in gs.user_groups()]
    assert groups == K6_GROUPS


def test_generate_k2_k2_degenerate():
    inst, gs = generate_k2(2)
    assert inst.m == 1
    assert [(u, set(s)) for u, s in inst.users] == [
        (UserId(1, 1), set()), (UserId(1, 2), set())
    ]
    assert gs.first_sets == (frozenset({1}), frozenset())
    assert gs.second_sets == (frozenset(), frozenset({1}))


def test_generate_k2_k4_index_sets():
    _, gs = generate_k2(4)
    assert gs.first_sets[0] == {1, 2, 3}
    assert gs.first_sets[1] == {4, 5}
    assert gs.first_sets[2] == {6}
    assert gs.first_sets[3] == frozenset()
    assert gs.second_sets[0] == frozenset()
    assert gs.second_sets[1] == {1}
    assert gs.second_sets[2] == {2, 4}
    assert gs.second_sets[3] == {3, 5, 6}


@pytest.mark.parametrize("k", range(2, 9))
def test_generate_k2_invariants(k):
    inst, gs = generate_k2(k)
    m = k * (k - 1) // 2
    assert inst.m == m
    packet_sets = gs.packet_sets
    # every pair of index sets intersects in exactly one packet
    for l1 in range(k):
        assert len(packet_sets[l1]) == k - 1
        for l2 in range(l1 + 1, k):
            assert len(packet_sets[l1] & packet_sets[l2]) == 1
    # the two variants each partition [1..m]
    assert sorted(i for s in gs.first_sets for i in s) == list(range(1, m + 1))
    assert sorted(i for s in gs.second_sets for i in s) == list(range(1, m + 1))
    # each receiver knows the other packets of its group: k-2 of them
    for _, side in inst.users:
        assert len(side) == k - 2
    assert validate(inst) == []


def test_generate_k2_rejects_small_k():
    with pytest.raises(ValueError):
        generate_k2(1)


def test_position_index_first_packet():
    assert position_index(6, 1, 1, variant=1) == 1


def test_position_index_shared_packet():
    # packet 1 sits in group 1 (variant 1) and group 2 (variant 2)
    assert position_index(6, 1, 1, variant=1) == position_index(6, 2, 1, variant=2) == 1


@pytest.mark.parametrize("k", range(2, 13))
def test_position_index_cross_variant_identity(k):
    for l1 in range(1, k + 1):
        for l2 in range(l1 + 1, k + 1):
            assert position_index(k, l1, l2 - l1, variant=1) == position_index(
                k, l2, l1, variant=2
            )


def test_position_index_range_checks():
    with pytest.raises(ValueError):
        position_index(4, 1, 4, variant=1)
    with pytest.raises(ValueError):
        position_index(4, 1, 1, variant=2)


# ------------------------------------------------------------------ text format

def test_load_example1_fixture(ex1):
    assert ex1.m == 4
    assert len(ex1.users) == 5
    assert ex1.side_of(UserId(1, 2)) == {2, 3}
    assert ex1.side_of(UserId(4, 1)) == {1}


def test_empty_side_line():
    inst = parse_instance("gic 1\nuser 1 1 :\nuser 1 2 :\n")
    assert inst.side_of(UserId(1, 1)) == set()


def test_round_trip_k4():
    inst, _ = generate_k2(4)
    assert load_instance(save_instance(inst)) == inst


def test_round_trip_example3(ex3):
    assert load_instance(save_instance(ex3)) == ex3


def test_parse_error_carries_line_number():
    with pytest.raises(InstanceFormatError) as ei:
        parse_instance("gic 2\nuser 1 1 : 2\nuser 2 1 : x\n")
    assert ei.value.line == 3


@pytest.mark.parametrize(
    "text,line",
    [
        ("gic 0_2\nuser 1 1 : 2\nuser 2 1 : 1\n", 1),
        ("gic 2\nuser +1 1 : 2\nuser 2 1 : 1\n", 2),
        ("gic 2\nuser 1 1 : 2\nuser 2 0_1 : 1\n", 3),
        ("gic 2\nuser 1 1 : \u0662\nuser 2 1 : 1\n", 2),
        ("gic \uff12\nuser 1 1 : 2\nuser 2 1 : 1\n", 1),
    ],
    ids=["underscore-header", "plus-packet", "underscore-copy", "arabic-indic-side", "fullwidth-header"],
)
def test_parse_rejects_what_int_accepts_beyond_the_grammar(text, line):
    with pytest.raises(InstanceFormatError) as ei:
        parse_instance(text)
    assert ei.value.line == line


def test_parse_keeps_negative_side_packets_for_validate():
    inst = parse_instance("gic 2\nuser 1 1 : -2\nuser 2 1 : 1\n# comment \u0662\n")
    assert inst.side_of(UserId(1, 1)) == {-2}


def test_parse_rejects_missing_header():
    with pytest.raises(InstanceFormatError) as ei:
        parse_instance("user 1 1 : 2\n")
    assert ei.value.line == 1


def test_parse_rejects_out_of_order_users():
    with pytest.raises(InstanceFormatError):
        parse_instance("gic 2\nuser 2 1 : 1\nuser 1 1 : 2\n")


def test_load_rejects_invalid_instance():
    with pytest.raises(InvalidInstanceError) as ei:
        load_instance("gic 2\nuser 1 1 : 1 2\nuser 2 1 :\n")
    assert any("self-inclusion" in v for v in ei.value.violations)


def test_comments_and_blank_lines_ignored():
    text = "# heading\n\ngic 2\n# side note\nuser 1 1 : 2\nuser 2 1 :\n\n"
    inst = parse_instance(text)
    assert inst.m == 2


def test_fixture_files_parse():
    for name in ("example1.gic", "example3.gic", "k6.gic"):
        inst = load_instance((FIXTURES / name).read_text())
        assert validate(inst) == []


# ------------------------------------------------------------ packet masks

def test_packet_masks_are_demand_and_side_bits_in_user_order(ex1):
    assert ex1.packet_masks == tuple(
        (1 << (uid.packet - 1), sum(1 << (p - 1) for p in side)) for uid, side in ex1.users
    )
    inst = GicInstance.make(3, [((2, 1), {1, 3}), ((1, 1), set())])
    assert inst.packet_masks == ((0b001, 0), (0b010, 0b101))


#: Every reader of the mask view, each handed an unvalidated instance.
VIEW_READERS = {
    "ppm-exhaustive": exhaustive_ppm,
    "upm-exhaustive": exhaustive_upm,
    "iupm-exhaustive": exhaustive_iupm,
    "minrank": minrank_gf2,
    "acyclic-bound": acyclic_bound,
    "heuristic-user": lambda inst: run_heuristic(inst, "user"),
    "heuristic-packet": lambda inst: run_heuristic(inst, "packet"),
    "simulate": lambda inst: simulate_decode(
        inst, SchemeSolution("upm-group", 2, None, CodingMatrix(GF2, 2, ((1, 0), (0, 1))))
    ),
}


@pytest.mark.parametrize("reader", VIEW_READERS)
@pytest.mark.parametrize("bad", [3, 0])
def test_view_readers_refuse_side_packets_outside_the_columns(reader, bad):
    # one check, in the view, with one message for every reader
    inst = GicInstance.make(2, [((1, 1), {2, bad}), ((2, 1), {1})])
    with pytest.raises(ValueError, match=f"^known packet {bad} outside 1\\.\\.2$"):
        VIEW_READERS[reader](inst)


def test_side_sets_become_masks_once_per_instance(monkeypatch):
    # the heuristic's step 3 and the simulator read one view: a second solve
    # and certification of the same instance convert nothing
    calls = []
    convert = gf._known_columns

    def counted(known, m):
        calls.append(m)
        return convert(known, m)

    monkeypatch.setattr(gf, "_known_columns", counted)
    inst, _ = generate_k2(5)
    for _ in range(2):
        for init in ("user", "packet"):
            assert simulate_decode(inst, run_heuristic(inst, init)).passed
        assert len(calls) == len(inst.users)
