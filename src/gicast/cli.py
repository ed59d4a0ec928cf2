"""Command-line front end: generate family instances, solve an instance with
a chosen scheme, tabulate rates across the k-group family, or validate an
instance file."""

from __future__ import annotations

import argparse
import sys
import time
from functools import lru_cache

from .gf import FieldSizeError
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
    PartitionCapError,
    SchemeSolution,
    UserPartition,
    exhaustive_iupm,
    exhaustive_ppm,
    exhaustive_upm,
    group_partition,
    iupm_rate,
    build_transmissions,
)


def _upm_group(inst: GicInstance, groups: UserPartition) -> SchemeSolution:
    matrix = build_transmissions(inst, groups)
    return SchemeSolution("upm-group", matrix.nrows, groups, matrix)


def _iupm_group(inst: GicInstance, groups: UserPartition) -> SchemeSolution:
    rate, basis, label = iupm_rate(inst, groups)
    return SchemeSolution("iupm-group", rate, groups, basis, policy=label)


#: Scheme name -> solver(instance, user groups, enumeration cap).  The group
#: schemes code over the given user groups; minrank returns its value, every
#: other scheme a SchemeSolution.
SOLVERS = {
    "ppm-exhaustive": lambda inst, groups, cap: exhaustive_ppm(inst, cap),
    "upm-exhaustive": lambda inst, groups, cap: exhaustive_upm(inst, cap),
    "iupm-exhaustive": lambda inst, groups, cap: exhaustive_iupm(inst, cap),
    "upm-group": lambda inst, groups, cap: _upm_group(inst, groups),
    "iupm-group": lambda inst, groups, cap: _iupm_group(inst, groups),
    "heuristic-user": lambda inst, groups, cap: run_heuristic(inst, "user"),
    "heuristic-packet": lambda inst, groups, cap: run_heuristic(inst, "packet"),
    "minrank": lambda inst, groups, cap: minrank_gf2(inst),
}

#: The schemes that read the user groups; `solve` builds them for these only.
GROUP_SCHEMES = ("upm-group", "iupm-group")

#: What a solver raises when the instance is beyond its cap, budget or field:
#: `solve` exits 2, `table` prints `-`.
OUT_OF_REACH = (PartitionCapError, MinrankBudgetError, FieldSizeError)

#: `table` column -> the scheme that fills it.
COLUMNS = {
    "ppm_exh": "ppm-exhaustive",
    "upm_group": "upm-group",
    "iupm_group": "iupm-group",
    "heur_user": "heuristic-user",
    "heur_packet": "heuristic-packet",
    "minrank": "minrank",
}


def _run(
    inst: GicInstance, scheme: str, groups: UserPartition | None, cap: int, seed: int
) -> tuple[SchemeSolution | int, bool]:
    """One certified run, shared by `solve` and `table`: the scheme's result
    and whether `simulate_decode` passes it; minrank's value always passes,
    as there is no code to certify.  OUT_OF_REACH propagates."""
    result = SOLVERS[scheme](inst, groups, cap)
    return result, scheme == "minrank" or simulate_decode(inst, result, seed=seed).passed


def _solve_one(inst: GicInstance, scheme: str, args) -> tuple[str, bool, SchemeSolution | None]:
    """Run one scheme; returns (record line, verdict passed, solution-if-any)."""
    cap = args.cap_override if args.cap_override is not None else DEFAULT_CAP
    t0 = time.perf_counter()
    groups = group_partition(inst) if scheme in GROUP_SCHEMES else None
    result, passed = _run(inst, scheme, groups, cap, args.seed)
    ms = round((time.perf_counter() - t0) * 1000)
    if scheme == "minrank":
        return f"scheme=minrank value={result} label=scalar-linear-gf2-optimum time_ms={ms} verified=n/a", True, None
    verdict = "pass" if passed else "FAIL"
    line = f"scheme={scheme} rate={result.rate} time_ms={ms} verified={verdict} seed={args.seed} policy={result.policy}"
    if scheme == "heuristic-packet":
        line += " variant=CAPM-variant"
    return line, passed, result


def _read_instance(path: str) -> GicInstance:
    """Load and validate the UTF-8 instance file at path, less a leading
    byte-order mark if it has one.  An unreadable or undecodable file
    raises OSError or UnicodeDecodeError, which `main` reports with exit 2."""
    with open(path, encoding="utf-8-sig") as fh:
        return load_instance(fh.read())


def cmd_solve(args) -> int:
    try:
        inst = _read_instance(args.instance)
        line, passed, sol = _solve_one(inst, args.scheme, args)
    except (InstanceFormatError, InvalidInstanceError, *OUT_OF_REACH) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = [line]
    if args.format == "table" and sol is not None:
        out += ["transmissions:", sol.matrix.dump()]
    if args.trace and sol is not None and sol.trace:
        out += ["trace:", *sol.trace] if args.format == "table" else [f"trace: {t}" for t in sol.trace]
    _emit("\n".join(out) + "\n", args.out)
    return 0 if passed else 1


def cmd_gen(args) -> int:
    try:
        k = int(args.k)
    except ValueError:
        print(f"error: --k expects an integer k, got {args.k!r}", file=sys.stderr)
        return 2
    try:
        inst, _ = generate_k2(k)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    _emit(save_instance(inst), args.out)
    return 0


def cmd_validate(args) -> int:
    try:
        _read_instance(args.instance)
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


def _cap(text: str) -> int:
    """The value of --cap-override: a member count, never negative."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {cap}")
    return cap


def cmd_table(args) -> int:
    try:
        family = [generate_k2(k) for k in _parse_krange(args.k)]
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    cap = args.cap_override if args.cap_override is not None else DEFAULT_CAP
    header = ["k", "m", "ppm_bound", *COLUMNS]
    rows = []
    all_ok = True
    for inst, gs in family:
        k = gs.k
        # the generator's groups, not group_partition: at k=2 the two differ
        groups = UserPartition.of(gs.user_groups())
        bound = k * (k - 1) / 6 + 1
        row = {"k": str(k), "m": str(inst.m), "ppm_bound": f"{bound:g}"}
        for col, scheme in COLUMNS.items():
            try:
                result, passed = _run(inst, scheme, groups, cap, args.seed)
            except OUT_OF_REACH:
                row[col] = "-"
                continue
            all_ok &= passed
            row[col] = str(result if scheme == "minrank" else result.rate)
        rows.append(row)
    if args.format == "records":
        lines = [
            " ".join(f"{h}={r[h]}" for h in header) for r in rows
        ]
    else:
        widths = {h: max(len(h), *(len(r[h]) for r in rows)) for h in header}
        lines = ["  ".join(h.ljust(widths[h]) for h in header)]
        for r in rows:
            lines.append("  ".join(r[h].ljust(widths[h]) for h in header))
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_ok else 1


def _emit(text: str, out: str | None) -> None:
    """Write text to the file out, or to stdout; an unwritable file raises
    OSError, which `main` reports with exit 2."""
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

    def out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")

    def solving(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="seed of the decode simulator's payload trials")
        p.add_argument("--format", choices=("table", "records"), default="table")
        out(p)
        p.add_argument("--cap-override", type=_cap, default=None, help="set the enumeration cap of the exhaustive searches")

    g = sub.add_parser("gen", help="emit a k-group family instance")
    g.add_argument("--k", required=True)
    out(g)
    g.set_defaults(fn=cmd_gen)

    s = sub.add_parser("solve", help="run one scheme on an instance file")
    s.add_argument("instance")
    s.add_argument("--scheme", required=True, choices=tuple(SOLVERS))
    solving(s)
    s.add_argument("--trace", action="store_true", help="show heuristic promotion steps")
    s.set_defaults(fn=cmd_solve)

    t = sub.add_parser("table", help="rate table across the k-group family")
    t.add_argument("--k", required=True, help="single k or range lo:hi")
    solving(t)
    t.set_defaults(fn=cmd_table)

    v = sub.add_parser("validate", help="parse and validate an instance file")
    v.add_argument("instance")
    out(v)
    v.set_defaults(fn=cmd_validate)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
