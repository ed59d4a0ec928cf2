"""Running one op: through `gicast solve` in-process, through the library, or
stage by stage through the public functions under spans.

`g` is the imported gicast package; `g.cli` its command-line module.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from dataclasses import dataclass

from spans import SpanLog
from workloads import Op


@dataclass
class Outcome:
    """What the program answered.  For minrank, `rate` holds the value and
    `rows` and `verdict` stay None."""

    rate: int | None = None
    rows: tuple[tuple[int, ...], ...] | None = None
    verdict: bool | None = None
    error: str | None = None


def solve_library(g, scheme: str, inst):
    """The scheme as `gicast solve` runs it, called through the library."""
    if scheme == "ppm-exhaustive":
        return g.exhaustive_ppm(inst)
    if scheme == "upm-exhaustive":
        return g.exhaustive_upm(inst)
    if scheme == "iupm-exhaustive":
        return g.exhaustive_iupm(inst)
    if scheme == "upm-group":
        part = g.group_partition(inst)
        rate, _ = g.upm_rate(inst, part)
        return g.SchemeSolution(scheme, rate, part, g.build_transmissions(inst, part))
    if scheme == "iupm-group":
        part = g.group_partition(inst)
        rate, basis, label = g.iupm_rate(inst, part)
        return g.SchemeSolution(scheme, rate, part, basis, policy=label)
    if scheme in ("heuristic-user", "heuristic-packet"):
        return g.run_heuristic(inst, scheme.split("-")[1])
    if scheme == "minrank":
        return g.minrank_gf2(inst)
    raise ValueError(f"unknown scheme {scheme}")


def run_library(g, op: Op) -> Outcome:
    try:
        inst = g.load_instance(op.case.text)
        sol = solve_library(g, op.scheme, inst)
        if op.scheme == "minrank":
            return Outcome(rate=sol)
        report = g.simulate_decode(inst, sol)
        return Outcome(sol.rate, sol.matrix.rows, report.passed)
    except Exception as e:  # an op that raises counts as failed
        return Outcome(error=f"{type(e).__name__}: {e}")


def parse_solve_output(text: str) -> Outcome:
    """Reads the record line and the `transmissions:` block of
    `gicast solve --format table`."""
    lines = text.splitlines()
    if not lines:
        return Outcome(error="no output")
    rec = dict(kv.split("=", 1) for kv in lines[0].split())
    if rec.get("scheme") == "minrank":
        return Outcome(rate=int(rec["value"]))
    rows = []
    if "transmissions:" in lines:
        for line in lines[lines.index("transmissions:") + 1:]:
            if line == "trace:":
                break
            if line.strip():
                rows.append(tuple(int(t) for t in line.split()))
    return Outcome(int(rec["rate"]), tuple(rows), rec.get("verified") == "pass")


def run_cli(g, op: Op) -> Outcome:
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = g.cli.main(["solve", op.case.path, "--scheme", op.scheme])
    except Exception as e:
        return Outcome(error=f"{type(e).__name__}: {e}")
    out = parse_solve_output(buf.getvalue())
    if code != 0 and out.verdict:
        out.error = f"exit code {code}"
    return out


def _cells(counts: dict[str, float], matrix) -> None:
    key = "gf.gf2_cells" if matrix.field.w == 1 else "gf.gf256_cells"
    counts[key] += matrix.nrows * matrix.ncols


def run_staged(g, op: Op, log: SpanLog, counts: dict[str, float]) -> Outcome:
    """The op's stages one public call at a time, each under a span, then
    `solve_decode` for every receiver on the op's matrix.  The stages are
    the ones the scheme runs inside `gicast solve`; calls made inside
    `exhaustive_*` are not split out."""
    span = log.span
    scheme = op.scheme
    try:
        with span("op"):
            with span("model.load_instance"):
                inst = g.load_instance(op.case.text)
            counts["model.instances"] += 1
            if scheme == "minrank":
                with span("oracle.minrank"):
                    value = g.minrank_gf2(inst)
                counts["oracle.minrank_calls"] += 1
                return Outcome(rate=value)
            if scheme == "ppm-exhaustive":
                with span("partition.exhaustive_ppm"):
                    sol = g.exhaustive_ppm(inst)
            elif scheme == "upm-exhaustive":
                with span("partition.exhaustive_upm"):
                    sol = g.exhaustive_upm(inst)
            elif scheme == "iupm-exhaustive":
                with span("partition.exhaustive_iupm"):
                    sol = g.exhaustive_iupm(inst)
            elif scheme in ("upm-group", "iupm-group"):
                with span("partition.group"):
                    part = g.group_partition(inst)
                if scheme == "upm-group":
                    with span("partition.upm_rate"):
                        rate, _ = g.upm_rate(inst, part)
                with span("partition.build_transmissions"):
                    stacked = g.build_transmissions(inst, part)
                counts["partition.stacked_rows"] += stacked.nrows
                if scheme == "upm-group":
                    sol = g.SchemeSolution(scheme, rate, part, stacked)
                else:
                    with span("gf.rank"):
                        rate = g.rank(stacked)
                    _cells(counts, stacked)
                    with span("gf.row_basis"):
                        basis = g.row_basis(stacked)
                    _cells(counts, stacked)
                    counts["partition.basis_rows"] += basis.nrows
                    sol = g.SchemeSolution(scheme, rate, part, basis)
            else:
                init = scheme.split("-")[1]
                first = g.initial_subsets_user if init == "user" else g.initial_subsets_packet
                with span("heuristic.step1"):
                    start = first(inst)
                with span("heuristic.step2"):
                    merged, trace = g.step2_merge(inst, start)
                with span("heuristic.step3"):
                    sol = g.step3_rate(inst, merged, scheme, trace)
                counts["heuristic.promotions"] += len(trace)
                counts["heuristic.subsets"] += len(merged)
                counts["heuristic.rows"] += sol.matrix.nrows
            with span("oracle.simulate_decode"):
                report = g.simulate_decode(inst, sol)
        for uid, side in inst.users:
            with span("gf.solve_decode"):
                g.solve_decode(sol.matrix, side, uid.packet)
            counts["gf.decode_calls"] += 1
            _cells(counts, sol.matrix)
        return Outcome(sol.rate, sol.matrix.rows, report.passed)
    except Exception as e:
        return Outcome(error=f"{type(e).__name__}: {e}")
