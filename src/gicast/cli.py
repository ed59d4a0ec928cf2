"""Command-line front end: generate family instances, solve an instance with
a chosen scheme, tabulate rates across the k-group family, or validate an
instance file."""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from functools import lru_cache

from .heuristic import run_heuristic
from .model import (
    GicInstance,
    InstanceFormatError,
    InvalidInstanceError,
    generate_k2,
    load_instance,
    save_instance,
)
from .oracle import MinrankBudgetError, minrank_gf2, simulate_decode
from .partition import (
    DEFAULT_CAP,
    CoeffPolicy,
    PartitionCapError,
    SchemeSolution,
    UserPartition,
    exhaustive_iupm,
    exhaustive_ppm,
    exhaustive_upm,
    group_partition,
    iupm_rate,
    upm_rate,
    build_transmissions,
)

SCHEMES = (
    "ppm-exhaustive",
    "upm-exhaustive",
    "iupm-exhaustive",
    "upm-group",
    "iupm-group",
    "heuristic-user",
    "heuristic-packet",
    "minrank",
)


@dataclass
class Record:
    """One computed result destined for output."""

    fields: list[tuple[str, str]]

    def line(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.fields)


def _solve_one(inst: GicInstance, scheme: str, args) -> tuple[Record, bool, SchemeSolution | None]:
    """Run one scheme; returns (record, ok, solution-if-any)."""
    policy = CoeffPolicy("randomized", seed=args.seed) if args.randomized else CoeffPolicy()
    cap = args.cap_override if args.cap_override is not None else DEFAULT_CAP
    t0 = time.perf_counter()
    sol: SchemeSolution | None = None
    if scheme == "minrank":
        value = minrank_gf2(inst)
        ms = round((time.perf_counter() - t0) * 1000)
        rec = Record(
            [
                ("scheme", "minrank"),
                ("value", str(value)),
                ("label", "scalar-linear-gf2-optimum"),
                ("time_ms", str(ms)),
                ("verified", "n/a"),
            ]
        )
        return rec, True, None
    if scheme == "ppm-exhaustive":
        sol = exhaustive_ppm(inst, cap=cap)
    elif scheme == "upm-exhaustive":
        sol = exhaustive_upm(inst, cap=cap)
    elif scheme == "iupm-exhaustive":
        sol = exhaustive_iupm(inst, cap=cap, policy=policy)
    elif scheme == "upm-group":
        part = group_partition(inst)
        rate, _ = upm_rate(inst, part)
        sol = SchemeSolution("upm-group", rate, part, build_transmissions(inst, part))
    elif scheme == "iupm-group":
        part = group_partition(inst)
        rate, basis, label = iupm_rate(inst, part, policy)
        sol = SchemeSolution("iupm-group", rate, part, basis, policy=label)
    elif scheme in ("heuristic-user", "heuristic-packet"):
        sol = run_heuristic(inst, scheme.split("-")[1])
    else:
        raise ValueError(f"unknown scheme {scheme}")
    report = simulate_decode(inst, sol, seed=args.seed)
    ms = round((time.perf_counter() - t0) * 1000)
    rec = Record(
        [
            ("scheme", scheme),
            ("rate", str(sol.rate)),
            ("time_ms", str(ms)),
            ("verified", "pass" if report.passed else "FAIL"),
            ("seed", str(args.seed)),
            ("policy", sol.policy),
        ]
    )
    if scheme == "heuristic-packet":
        rec.fields.append(("variant", "CAPM-variant"))
    return rec, report.passed, sol


def cmd_solve(args) -> int:
    try:
        with open(args.instance) as fh:
            inst = load_instance(fh.read())
    except (OSError, InstanceFormatError, InvalidInstanceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = []
    ok = True
    try:
        rec, passed, sol = _solve_one(inst, args.scheme, args)
    except (PartitionCapError, MinrankBudgetError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    ok = ok and passed
    out.append(rec.line())
    if args.format == "table" and sol is not None:
        out.append("transmissions:")
        out.append(sol.matrix.dump())
        if args.trace and sol.trace:
            out.append("trace:")
            out.extend(sol.trace)
    elif args.trace and sol is not None and sol.trace:
        out.extend(f"trace: {t}" for t in sol.trace)
    text = "\n".join(out) + "\n"
    _emit(text, args.out)
    return 0 if ok else 1


def cmd_gen(args) -> int:
    try:
        inst, _ = generate_k2(int(args.k))
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    _emit(save_instance(inst), args.out)
    return 0


def cmd_validate(args) -> int:
    try:
        with open(args.instance) as fh:
            load_instance(fh.read())
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InstanceFormatError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    except InvalidInstanceError as e:
        for v in e.violations:
            print(f"violation: {v}", file=sys.stderr)
        return 1
    _emit("ok\n", args.out)
    return 0


def _parse_krange(text: str) -> list[int]:
    """A single k or an inclusive range lo:hi; ValueError when malformed or
    empty."""
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            ks = list(range(int(lo), int(hi) + 1))
        else:
            ks = [int(text)]
    except ValueError:
        raise ValueError(f"--k expects k or lo:hi, got {text!r}") from None
    if not ks:
        raise ValueError(f"empty k range {text!r}")
    return ks


def cmd_table(args) -> int:
    try:
        family = [generate_k2(k) for k in _parse_krange(args.k)]
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    cap = args.cap_override if args.cap_override is not None else DEFAULT_CAP
    policy = CoeffPolicy("randomized", seed=args.seed) if args.randomized else CoeffPolicy()
    header = [
        "k",
        "m",
        "ppm_bound",
        "ppm_exh",
        "upm_group",
        "iupm_group",
        "heur_user",
        "heur_packet",
        "minrank",
    ]
    rows = []
    all_ok = True
    for inst, gs in family:
        k = gs.k
        part = UserPartition.of(gs.user_groups())
        bound = k * (k - 1) / 6 + 1
        row = {"k": str(k), "m": str(inst.m), "ppm_bound": f"{bound:g}"}
        if inst.m <= cap:
            sol = exhaustive_ppm(inst, cap=cap)
            all_ok &= simulate_decode(inst, sol, seed=args.seed).passed
            row["ppm_exh"] = str(sol.rate)
        else:
            row["ppm_exh"] = "-"
        urate, _ = upm_rate(inst, part)
        irate, basis, label = iupm_rate(inst, part, policy)
        gsol = SchemeSolution("upm-group", urate, part, build_transmissions(inst, part))
        isol = SchemeSolution("iupm-group", irate, part, basis, policy=label)
        all_ok &= simulate_decode(inst, gsol, seed=args.seed).passed
        all_ok &= simulate_decode(inst, isol, seed=args.seed).passed
        row["upm_group"] = str(urate)
        row["iupm_group"] = str(irate)
        for init in ("user", "packet"):
            hsol = run_heuristic(inst, init)
            all_ok &= simulate_decode(inst, hsol, seed=args.seed).passed
            row[f"heur_{init}"] = str(hsol.rate)
        try:
            row["minrank"] = str(minrank_gf2(inst))
        except MinrankBudgetError:
            row["minrank"] = "-"
        rows.append(row)
    if args.format == "records":
        lines = [
            " ".join(f"{h}={r[h]}" for h in header) for r in rows
        ]
        text = "\n".join(lines) + "\n"
    else:
        widths = {h: max(len(h), *(len(r[h]) for r in rows)) for h in header}
        lines = ["  ".join(h.ljust(widths[h]) for h in header)]
        for r in rows:
            lines.append("  ".join(r[h].ljust(widths[h]) for h in header))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if all_ok else 1


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and each call returns a new namespace."""
    ap = argparse.ArgumentParser(
        prog="gicast",
        description="Multicast coding schemes for groupcast index coding instances.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="seed for randomized pieces")
        p.add_argument("--format", choices=("table", "records"), default="table")
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")
        p.add_argument("--cap-override", type=int, default=None, help="set the enumeration cap of the exhaustive searches")
        p.add_argument("--trace", action="store_true", help="show heuristic promotion steps")
        p.add_argument("--randomized", action="store_true", help="resample rank-reduction coefficients")

    g = sub.add_parser("gen", help="emit a k-group family instance")
    g.add_argument("--k", required=True)
    common(g)
    g.set_defaults(fn=cmd_gen)

    s = sub.add_parser("solve", help="run one scheme on an instance file")
    s.add_argument("instance")
    s.add_argument("--scheme", required=True, choices=SCHEMES)
    common(s)
    s.set_defaults(fn=cmd_solve)

    t = sub.add_parser("table", help="rate table across the k-group family")
    t.add_argument("--k", required=True, help="single k or range lo:hi")
    common(t)
    t.set_defaults(fn=cmd_table)

    v = sub.add_parser("validate", help="parse and validate an instance file")
    v.add_argument("instance")
    common(v)
    v.set_defaults(fn=cmd_validate)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
