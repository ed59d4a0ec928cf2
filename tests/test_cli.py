"""Command-line front end: subcommands, record output, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gicast
from gicast.cli import _parser, main

from conftest import FIXTURES, packing_out_of_memory

EX1 = str(FIXTURES / "example1.gic")
EX3 = str(FIXTURES / "example3.gic")


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def records(out):
    recs = []
    for line in out.strip().splitlines():
        if "=" in line.split()[0]:
            recs.append(dict(kv.split("=", 1) for kv in line.split()))
    return recs


# --------------------------------------------------------------------- gen

def test_gen_k6_matches_fixture(capsys):
    rc, out, _ = run(capsys, "gen", "--k", "6")
    assert rc == 0
    assert out == (FIXTURES / "k6.gic").read_text()


def test_gen_k2(capsys):
    rc, out, _ = run(capsys, "gen", "--k", "2")
    assert rc == 0
    assert out == "gic 1\nuser 1 1 :\nuser 1 2 :\n"


def test_gen_rejects_k1(capsys):
    rc, _, err = run(capsys, "gen", "--k", "1")
    assert rc == 2
    assert "k >= 2" in err


@pytest.mark.parametrize("k", ["abc", "2.5", ""])
def test_gen_rejects_a_non_integer_k(capsys, k):
    rc, out, err = run(capsys, "gen", "--k", k)
    assert (rc, out) == (2, "")
    assert err == f"error: --k expects an integer k, got {k!r}\n"


def test_gen_out_file(tmp_path, capsys):
    target = tmp_path / "fam.gic"
    rc, out, _ = run(capsys, "gen", "--k", "4", "--out", str(target))
    assert rc == 0
    assert out == ""
    assert target.read_text().startswith("gic 6\n")


def test_gen_unwritable_out_exit(tmp_path, capsys):
    rc, out, err = run(capsys, "gen", "--k", "3", "--out", str(tmp_path / "missing" / "x.gic"))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "missing" in err


# -------------------------------------------------------------------- solve

SCHEME_RATES = {
    "ppm-exhaustive": "3",
    "upm-exhaustive": "2",
    "iupm-exhaustive": "2",
    "upm-group": "2",
    "iupm-group": "2",
    "heuristic-user": "2",
    "heuristic-packet": "2",
}


@pytest.mark.parametrize("scheme,rate", sorted(SCHEME_RATES.items()))
def test_solve_example1_schemes(capsys, scheme, rate):
    rc, out, _ = run(capsys, "solve", EX1, "--scheme", scheme, "--format", "records")
    assert rc == 0
    (rec,) = records(out)
    assert rec["scheme"] == scheme
    assert rec["rate"] == rate
    assert rec["verified"] == "pass"
    assert "time_ms" in rec


def test_solve_minrank_record(capsys):
    rc, out, _ = run(capsys, "solve", EX1, "--scheme", "minrank", "--format", "records")
    assert rc == 0
    (rec,) = records(out)
    assert rec["value"] == "2"
    assert rec["label"] == "scalar-linear-gf2-optimum"
    assert rec["verified"] == "n/a"


def test_solve_example3_group_rank(capsys):
    rc, out, _ = run(capsys, "solve", EX3, "--scheme", "iupm-group", "--format", "records")
    assert rc == 0
    (rec,) = records(out)
    assert rec["rate"] == "10"
    assert rec["verified"] == "pass"


#: The smallest known instance on which heuristic-user emits a code that a
#: receiver cannot decode (Fault A, ROADMAP item 1).
FAULT_A = "gic 3\nuser 1 1 : 2\nuser 2 1 : 1 3\nuser 2 2 : 3\nuser 3 1 : 2\n"


@pytest.mark.xfail(strict=True, reason="Fault A: step 3 emits rows 1 1 0 / 0 0 1, which receiver (2,2) cannot decode")
def test_solve_heuristic_user_certifies_the_fault_a_instance(tmp_path, capsys):
    # strict: once the heuristic is repaired this passes, and the XPASS fails the suite
    path = tmp_path / "fault_a.gic"
    path.write_text(FAULT_A)
    rc, out, _ = run(capsys, "solve", str(path), "--scheme", "heuristic-user", "--format", "records")
    (rec,) = records(out)
    assert rec["verified"] == "pass"
    assert rc == 0


def test_solve_table_format_shows_rows(capsys):
    rc, out, _ = run(capsys, "solve", EX1, "--scheme", "upm-exhaustive")
    assert rc == 0
    assert "rate=2" in out
    assert "1 0 0 1" in out
    assert "1 1 1 0" in out


def test_solve_trace_lines(capsys):
    rc, out, _ = run(capsys, "solve", EX1, "--scheme", "heuristic-packet", "--trace")
    assert rc == 0
    assert "promote (1,1)(4,1) level 2 -> 3 merge into (1,2)(2,1)(3,1)" in out


def test_solve_heuristic_packet_variant_tag(capsys):
    rc, out, _ = run(capsys, "solve", EX1, "--scheme", "heuristic-packet", "--format", "records")
    assert rc == 0
    assert "variant=CAPM-variant" in out


def test_solve_prints_seed(capsys):
    rc, out, _ = run(capsys, "solve", EX1, "--scheme", "iupm-exhaustive", "--seed", "7", "--format", "records")
    assert rc == 0
    (rec,) = records(out)
    assert rec["seed"] == "7"
    assert rec["rate"] == "2"


def test_solve_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.gic"
    bad.write_text("gic 2\nuser 1 1 : x\n")
    rc, _, err = run(capsys, "solve", str(bad), "--scheme", "minrank")
    assert rc == 2
    assert "line 2" in err


def test_solve_cap_exceeded_exit(tmp_path, capsys):
    fam = tmp_path / "k5.gic"
    main(["gen", "--k", "5", "--out", str(fam)])
    capsys.readouterr()
    rc, _, err = run(capsys, "solve", str(fam), "--scheme", "upm-exhaustive")
    assert rc == 2
    assert "cap" in err


def test_solve_cap_override_zero(capsys):
    rc, _, err = run(capsys, "solve", EX1, "--scheme", "upm-exhaustive", "--cap-override", "0")
    assert rc == 2
    assert "exceed enumeration cap 0" in err


@pytest.mark.parametrize("command", [["solve", EX1, "--scheme", "upm-exhaustive"], ["table", "--k", "3"]])
@pytest.mark.parametrize(
    "value, message",
    [("-1", "must be 0 or more, got -1"), ("-5", "must be 0 or more, got -5"), ("abc", "invalid int value: 'abc'")],
)
def test_cap_override_refused_at_parse_time(capsys, command, value, message):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--cap-override", value])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert f"argument --cap-override: {message}\n" in err


def test_solve_cap_override_beyond_memory(capsys):
    # 60 users: the 2^60-entry block tables are refused before any allocation
    rc, out, err = run(capsys, "solve", EX3, "--scheme", "upm-exhaustive", "--cap-override", "64")
    assert (rc, out) == (2, "")
    assert err == "error: block tables of 2^60 entries do not fit in memory\n"


def test_solve_iupm_cap_override_beyond_memory(capsys):
    rc, out, err = run(capsys, "solve", EX3, "--scheme", "iupm-exhaustive", "--cap-override", "64")
    assert (rc, out) == (2, "")
    assert err == "error: block tables of 2^60 entries do not fit in memory\n"


@pytest.mark.parametrize("scheme, n", [("upm-exhaustive", 5), ("ppm-exhaustive", 4)])
def test_solve_packed_strings_beyond_memory(monkeypatch, capsys, scheme, n):
    # the witness pass's 2^n packed strings raise MemoryError: exit 2, no traceback
    packing_out_of_memory(monkeypatch)
    rc, out, err = run(capsys, "solve", EX1, "--scheme", scheme)
    assert (rc, out) == (2, "")
    assert err == f"error: packed strings of 2^{n} sets do not fit in memory\n"


def test_solve_iupm_past_the_default_cap(tmp_path, capsys):
    # 20 users: the search ends at its first partition on the acyclic bound
    fam = tmp_path / "k5.gic"
    main(["gen", "--k", "5", "--out", str(fam)])
    capsys.readouterr()
    argv = ["solve", str(fam), "--scheme", "iupm-exhaustive", "--cap-override", "20", "--format", "records"]
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    rec = records(out)[0]
    assert (rec["rate"], rec["verified"]) == ("4", "pass")


def test_main_keeps_no_state_between_calls(tmp_path, capsys):
    # main reuses one parser per process; each call must see only its own options
    argvs = [
        ["solve", EX1, "--scheme", "upm-exhaustive", "--cap-override", "0"],
        ["solve", EX1, "--scheme", "upm-exhaustive"],
        ["solve", EX1, "--scheme", "iupm-exhaustive", "--seed", "7", "--format", "records", "--trace"],
        ["solve", EX1, "--scheme", "iupm-exhaustive"],
        ["table", "--k", "2:3", "--out", str(tmp_path / "t.txt")],
        ["gen", "--k", "2"],
    ]
    for argv in argvs:
        assert _parser().parse_args(argv) == _parser.__wrapped__().parse_args(argv)

    rc, _, err = run(capsys, *argvs[0])
    assert rc == 2
    assert "exceed enumeration cap 0" in err
    rc, out, _ = run(capsys, *argvs[1])
    assert rc == 0
    assert out.splitlines()[0].startswith("scheme=upm-exhaustive rate=2 ")
    assert "seed=0" in out.split()

    rc, out, _ = run(capsys, *argvs[2])
    assert rc == 0
    (rec,) = records(out)
    assert rec["seed"] == "7"
    rc, out, _ = run(capsys, *argvs[3])
    assert rc == 0
    assert "seed=0" in out.split()
    assert "transmissions:" in out

    rc, out, _ = run(capsys, *argvs[4])
    assert rc == 0
    assert out == ""
    rc, out, _ = run(capsys, *argvs[5])
    assert (rc, out) == (0, "gic 1\nuser 1 1 :\nuser 1 2 :\n")


def test_solve_budget_exceeded_exit(tmp_path, capsys):
    fam = tmp_path / "k5.gic"
    main(["gen", "--k", "5", "--out", str(fam)])
    capsys.readouterr()
    rc, _, err = run(capsys, "solve", str(fam), "--scheme", "minrank")
    assert rc == 2
    assert "budget" in err


def test_solve_field_too_small_exit(tmp_path, capsys):
    # at k=24 one heuristic-packet subset needs an MDS code of length 276,
    # longer than any over GF(2^8)
    fam = tmp_path / "k24.gic"
    main(["gen", "--k", "24", "--out", str(fam)])
    capsys.readouterr()
    rc, out, err = run(capsys, "solve", str(fam), "--scheme", "heuristic-packet")
    assert rc == 2
    assert out == ""
    assert err == "error: GF(2^8) too small for an MDS code of length 276\n"


def test_solve_missing_file_exit(capsys):
    rc, _, err = run(capsys, "solve", "nope.gic", "--scheme", "minrank")
    assert rc == 2


def non_utf8_file(tmp_path):
    bad = tmp_path / "bom.gic"
    bad.write_bytes(b"\xff\xfegic 1\nuser 1 1 :\n")
    return str(bad)


def test_solve_non_utf8_file_exit(tmp_path, capsys):
    rc, out, err = run(capsys, "solve", non_utf8_file(tmp_path), "--scheme", "upm-group")
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "utf-8" in err
    assert "Traceback" not in err


def utf8_bom_file(tmp_path):
    path = tmp_path / "utf8-bom.gic"
    path.write_bytes(b"\xef\xbb\xbf" + Path(EX1).read_bytes())
    return str(path)


def test_solve_accepts_a_bom(tmp_path, capsys):
    argv = ("--scheme", "upm-group", "--format", "records")
    plain, bom = run(capsys, "solve", EX1, *argv), run(capsys, "solve", utf8_bom_file(tmp_path), *argv)
    untimed = lambda rc, out, err: (rc, [{k: v for k, v in r.items() if k != "time_ms"} for r in records(out)], err)
    assert untimed(*bom) == untimed(*plain)
    assert bom[0] == 0


def test_solve_unwritable_out_exit(tmp_path, capsys):
    rc, out, err = run(capsys, "solve", EX1, "--scheme", "upm-group", "--out", str(tmp_path / "missing" / "o.txt"))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "missing" in err


# ----------------------------------------------------------------- validate

def test_validate_ok(capsys):
    rc, out, _ = run(capsys, "validate", EX1)
    assert rc == 0
    assert out == "ok\n"


def test_validate_violations(tmp_path, capsys):
    bad = tmp_path / "inv.gic"
    bad.write_text("gic 2\nuser 1 1 : 1 2\nuser 2 1 :\n")
    rc, _, err = run(capsys, "validate", str(bad))
    assert rc == 1
    assert "violation: self-inclusion" in err


@pytest.mark.parametrize("lines, message", [
    ("user 2 1 : 1\nuser 2 1 : 1\n", "line 4: duplicate user (2,1)"),
    ("user 2 1 : 1\nuser 1 2 : 2\n", "line 4: user (1,2) out of order after (2,1)"),
], ids=["duplicate", "inversion"])
def test_validate_names_a_duplicate_user(tmp_path, capsys, lines, message):
    path = tmp_path / "dup.gic"
    path.write_text("gic 2\nuser 1 1 : 2\n" + lines)
    assert run(capsys, "validate", str(path)) == (1, "", f"parse error: {message}\n")


def test_validate_accepts_a_bom(tmp_path, capsys):
    assert run(capsys, "validate", utf8_bom_file(tmp_path)) == (0, "ok\n", "")


def test_validate_non_utf8_file_exit(tmp_path, capsys):
    rc, out, err = run(capsys, "validate", non_utf8_file(tmp_path))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "utf-8" in err


# -------------------------------------------------------------------- table

def test_table_records_round_trip(capsys):
    rc, out, _ = run(capsys, "table", "--k", "2:4", "--format", "records")
    assert rc == 0
    recs = records(out)
    assert [r["k"] for r in recs] == ["2", "3", "4"]
    k4 = recs[2]
    assert k4["m"] == "6"
    assert k4["ppm_exh"] == "4"
    assert k4["upm_group"] == "4"
    assert k4["iupm_group"] == "3"
    assert k4["heur_user"] == "4"
    assert k4["heur_packet"] == "4"
    assert k4["minrank"] == "3"


def test_table_k6_row(capsys):
    rc, out, _ = run(capsys, "table", "--k", "6", "--format", "records")
    assert rc == 0
    (rec,) = records(out)
    assert rec["upm_group"] == "6"
    assert rec["iupm_group"] == "5"
    assert rec["heur_user"] == "6"
    assert rec["heur_packet"] == "11"
    # both exhaustive columns out of reach at k=6
    assert rec["ppm_exh"] == "-"
    assert rec["minrank"] == "-"


def test_table_k17_field_too_small_cell(capsys):
    # k=17 takes Reed-Solomon rows; from k=24 no MDS code over GF(2^8) fits
    rc, out, _ = run(capsys, "table", "--k", "17", "--format", "records")
    assert rc == 0
    assert out == (
        "k=17 m=136 ppm_bound=46.3333 ppm_exh=- upm_group=17 iupm_group=16 "
        "heur_user=17 heur_packet=121 minrank=-\n"
    )
    rc, out, _ = run(capsys, "table", "--k", "24", "--format", "records")
    assert rc == 0
    assert out == (
        "k=24 m=276 ppm_bound=93 ppm_exh=- upm_group=24 iupm_group=23 "
        "heur_user=24 heur_packet=- minrank=-\n"
    )


def test_table_cap_override_beyond_memory_cell(capsys):
    # 66 packets: a 2^66-entry table does not even have an index-sized length
    rc, out, _ = run(capsys, "table", "--k", "12", "--cap-override", "100", "--format", "records")
    assert rc == 0
    assert out == (
        "k=12 m=66 ppm_bound=23 ppm_exh=- upm_group=12 iupm_group=11 "
        "heur_user=12 heur_packet=56 minrank=-\n"
    )


def test_table_cells_equal_solve_rates(tmp_path, capsys):
    rc, out, _ = run(capsys, "table", "--k", "3:5", "--format", "records")
    assert rc == 0
    columns = {
        "ppm_exh": "ppm-exhaustive",
        "upm_group": "upm-group",
        "iupm_group": "iupm-group",
        "heur_user": "heuristic-user",
        "heur_packet": "heuristic-packet",
        "minrank": "minrank",
    }
    for row in records(out):
        fam = tmp_path / f"k{row['k']}.gic"
        main(["gen", "--k", row["k"], "--out", str(fam)])
        for col, scheme in columns.items():
            rc, out, _ = run(capsys, "solve", str(fam), "--scheme", scheme, "--format", "records")
            if row[col] == "-":
                assert rc == 2, (row["k"], col)
                continue
            assert rc == 0, (row["k"], col)
            (rec,) = records(out)
            assert rec["value" if scheme == "minrank" else "rate"] == row[col], (row["k"], col)


def test_table_human_format_aligned(capsys):
    rc, out, _ = run(capsys, "table", "--k", "2:3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split() == [
        "k", "m", "ppm_bound", "ppm_exh", "upm_group",
        "iupm_group", "heur_user", "heur_packet", "minrank",
    ]
    assert len(lines) == 3


@pytest.mark.parametrize("krange", ["5:4", "1", "x"])
def test_table_rejects_bad_k(capsys, krange):
    rc, out, err = run(capsys, "table", "--k", krange)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


# ------------------------------------------------------------- entry point

def test_console_script_runs():
    src = str(Path(gicast.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "gicast.cli", "solve", EX1, "--scheme", "minrank", "--format", "records"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "value=2" in proc.stdout
