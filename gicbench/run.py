"""Benchmark of certified gicast solves.

    python3 gicbench/run.py --workload family|exhaustive|random \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; gicast is imported from its `src/`.  An
untraced run first times SETUP_REPEATS cold set-ups, each in a new Python
process and relative to the fixed REF_CHILD process (see time_setups); then whole passes over the workload's op list run
until S seconds have passed and, untraced, at least MIN_PASSES passes and
MIN_OPS ops are done.  Every op is checked (see verify.py).
Op times are calibrated by a reference loop (see refclock.py).  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1.  The
full result, and with --trace 1 every span, are written under gicbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from execute import run_cli, run_library, run_staged  # noqa: E402
from refclock import RefClock  # noqa: E402
from spans import SpanLog  # noqa: E402
from verify import Verifier  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
#: Reference for set-up time: a new Python process importing standard
#: modules that neither gicast nor the benchmark uses.  Process start and
#: module loading drift on the tuning machine in ways the pure-Python
#: reference loop does not follow; this child drifts with them.  Never
#: change it: every set-up figure is relative to it.
REF_CHILD = (
    "import decimal, fractions, json, logging, tarfile, email.message, xml.dom.minidom; "
    "print('ready', flush=True)"
)
#: Median seconds of REF_CHILD on the machine the benchmark was tuned on;
#: converts set-up time back to seconds.
NOMINAL_REF_CHILD_S = 0.1
MIN_PASSES = 3
MIN_OPS = 100

#: Span name -> per-layer metric; spans not listed stay in the trace file only.
SPAN_METRICS = {
    "partition.exhaustive_ppm": "partition.exhaustive_ppm_ref",
    "partition.exhaustive_upm": "partition.exhaustive_upm_ref",
    "partition.exhaustive_iupm": "partition.exhaustive_iupm_ref",
    "partition.build_transmissions": "partition.build_transmissions_ref",
    "partition.group": "partition.group_ref",
    "gf.solve_decode": "gf.solve_decode_ref",
    "gf.rank": "gf.rank_ref",
    "gf.row_basis": "gf.row_basis_ref",
    "heuristic.step1": "heuristic.step1_ref",
    "heuristic.step2": "heuristic.step2_ref",
    "heuristic.step3": "heuristic.step3_ref",
    "oracle.simulate_decode": "oracle.simulate_decode_ref",
    "oracle.minrank": "oracle.minrank_ref",
    "model.load_instance": "model.load_instance_ref",
}
COUNT_METRICS = (
    "partition.stacked_rows",
    "partition.basis_rows",
    "gf.decode_calls",
    "gf.gf2_cells",
    "gf.gf256_cells",
    "heuristic.promotions",
    "heuristic.subsets",
    "heuristic.rows",
    "oracle.minrank_calls",
    "model.instances",
)
OTHER_METRICS = ("cli.solve_ref", "cli.overhead_ref", "trace.overhead_ref")


def set_up(workload: str, seed: int):
    import gicast
    import gicast.cli  # noqa: F401  (gicast solve's import, paid in set-up)

    return gicast, workloads.build(gicast, workload, seed)


def write_instances(ops, workdir: Path) -> None:
    """Instance files for the ops that run through `gicast solve`."""
    for case in {id(op.case): op.case for op in ops}.values():
        case.path = str(workdir / f"{case.name}.gic")
        with open(case.path, "w") as fh:
            fh.write(case.text)


def seconds_to_ready(cmd: list[str]) -> float:
    """Seconds from spawning cmd until it prints its `ready` line; waits
    for it to exit."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"{cmd[1]} exited with code {proc.returncode} before it was ready")
    return dt


def time_setups(workload: str, seed: int) -> list[float]:
    """SETUP_REPEATS cold set-ups, each in units of REF_CHILD.  A set-up runs
    this script with --setup-only in a new Python process and lasts from the
    spawn until that process reports that gicast is imported and the
    instances are built and parsed, so the interpreter start and every
    import gicast makes are included.  It is divided by the mean of the
    REF_CHILD runs just before and just after it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "0", "--setup-only"]
    ref_cmd = [sys.executable, "-c", REF_CHILD]
    ratios = []
    before = seconds_to_ready(ref_cmd)
    for _ in range(SETUP_REPEATS):
        dt = seconds_to_ready(cmd)
        after = seconds_to_ready(ref_cmd)
        ratios.append(dt / ((before + after) / 2))
        before = after
    return ratios


def until_done(seconds: float, min_passes: int, min_ops: int):
    end = time.perf_counter() + seconds

    def more(passes: int, attempted: int) -> bool:
        return passes < min_passes or attempted < min_ops or time.perf_counter() < end

    return more


def measure(g, ops, seconds, clock, verifier):
    """Calibrated time of each pass and of each op, raw seconds of each pass,
    and the op counts."""
    pass_refs: list[float] = []
    pass_raw: list[float] = []
    op_refs: list[float] = []
    by_label: dict[str, list[float]] = defaultdict(list)
    attempted = failed = 0
    more = until_done(seconds, MIN_PASSES, MIN_OPS)
    while more(len(pass_refs), attempted):
        gc.collect()
        total = raw = 0.0
        for op in ops:
            out, dt, spr = clock.time(run_cli if op.via_cli else run_library, g, op)
            total += dt / spr
            raw += dt
            op_refs.append(dt / spr)
            by_label[op.label].append(dt / spr)
            attempted += 1
            failed += verifier.check(op, out)
        pass_refs.append(total)
        pass_raw.append(raw)
    op_medians = {label: statistics.median(v) for label, v in by_label.items()}
    return pass_refs, pass_raw, op_refs, op_medians, attempted, failed


def measure_traced(g, ops, seconds, clock, verifier, log):
    passes: list[dict[str, float]] = []
    attempted = failed = 0
    more = until_done(seconds, 1, 0)
    while more(len(passes), attempted):
        gc.collect()
        acc: dict[str, float] = defaultdict(float)
        for op_id, op in enumerate(ops):
            log.op_id = op_id
            out_cli, dt_cli, spr_cli = clock.time(run_cli, g, op)
            out_lib, dt_lib, spr_lib = clock.time(run_library, g, op)
            mark = len(log.rows)
            r0 = clock.ref()
            out_staged = run_staged(g, op, log, acc)
            spr = (r0 + clock.ref()) / 2
            log.calibrate(mark, spr)
            lib_ref = dt_lib / spr_lib
            acc["cli.solve_ref"] += dt_cli / spr_cli
            acc["cli.overhead_ref"] += dt_cli / spr_cli - lib_ref
            for name, start, end, _parent, _op, _spr in log.rows[mark:]:
                if name == "op":
                    acc["trace.overhead_ref"] += (end - start) / spr - lib_ref
                elif name in SPAN_METRICS:
                    acc[SPAN_METRICS[name]] += (end - start) / spr
            attempted += 1
            bad = [verifier.check(op, out) for out in (out_cli, out_lib, out_staged)]
            failed += any(bad)
        passes.append(acc)
    names = list(SPAN_METRICS.values()) + list(COUNT_METRICS) + list(OTHER_METRICS)
    per_layer = {name: statistics.median(p[name] for p in passes) for name in names}
    return per_layer, len(passes), attempted, failed


def unit_of(name: str) -> str:
    return "ref" if name.endswith("_ref") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of certified gicast solves.")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "gicast" / "__init__.py").is_file():
        print(f"error: no gicast sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.setup_only:
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace == 0:
            setup_ratios = time_setups(args.workload, args.seed)
        clock = RefClock()
        clock.warm_up()
        g, ops = set_up(args.workload, args.seed)
        if args.trace == 1 or args.workload != "random":
            write_instances(ops, workdir)
        gicast_file = Path(g.__file__).resolve()
        if src.resolve() not in gicast_file.parents:
            print(f"error: gicast imported from {gicast_file}, not {src}", file=sys.stderr)
            return 2
        workloads.annotate(ops)
        verifier = Verifier()
        result: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "ops_per_pass": len(ops)}
        if args.trace == 0:
            pass_refs, pass_raw, op_refs, op_medians, attempted, failed = measure(g, ops, args.seconds, clock, verifier)
            deciles = statistics.quantiles(op_refs, n=10)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": (statistics.median(setup_ratios) * NOMINAL_REF_CHILD_S, "s"),
                "sweep_ref": (statistics.median(pass_refs), "ref"),
                "op_ref.p50": (statistics.median(op_refs), "ref"),
                "op_ref.p90": (deciles[8], "ref"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
            result.update(
                passes=len(pass_refs),
                samples=len(op_refs),
                pass_refs=pass_refs,
                pass_raw_s=pass_raw,
                setup_ratios=setup_ratios,
                op_ref_medians=op_medians,
            )
        else:
            log = SpanLog()
            per_layer, npasses, attempted, failed = measure_traced(g, ops, args.seconds, clock, verifier, log)
            metrics = {name: (value, unit_of(name)) for name, value in per_layer.items()}
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            log.write(str(trace_path))
            result.update(passes=npasses, spans=len(log.rows), trace_file=str(trace_path.relative_to(ROOT)))
        verifier.cross_check()
        refs = clock.samples
        result.update(
            seconds_per_ref={"median": statistics.median(refs), "min": min(refs), "max": max(refs), "samples": len(refs)},
            failures=sorted(verifier.failures),
            problems=sorted(verifier.problems),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for text in sorted(verifier.failures)[:5]:
        print(f"failed op: {text}", file=sys.stderr)
    for text in sorted(verifier.problems)[:20]:
        print(f"WRONG: {text}", file=sys.stderr)
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} passes={result['passes']} "
        f"ops_per_pass={len(ops)} samples={result.get('samples', attempted)} attempted={attempted} "
        f"failed={failed} s_per_ref={result['seconds_per_ref']['median']:.6f}"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    line = {
        "correct": verifier.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    result.update(line)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
