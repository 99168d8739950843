"""Benchmark of the cgankd command line: three workloads, timed end to end
and, in a separate traced run, per module.

Run from the repository root:

    python3 bench/run.py --workload cls-run --seed 0 --seconds 30 --trace 0

The workloads (see workloads.py and README.md) call `cgankd.cli.main` in
this process.  A run repeats whole rounds of a workload's commands until the
next round would end after --seconds, checks the first round's outputs and
compares every later round's files with them byte for byte; times are
medians over the rounds.  The last line of standard output is one JSON
object: `correct`, `attempted` and `failed` (one operation is one CLI
command), and `metrics`.  With --trace 0 these are
the end-to-end metrics; with --trace 1 rounds alternate between untraced
and traced by the span recorder of spans.py, the traced rounds' files must
equal the untraced ones byte for byte, and the metrics are the per-layer
figures.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import checks
import spans
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
WORK = os.path.join(BENCH, ".work")

SETUP_REPEATS = 5
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy; "
              "from cgankd import cli; "
              "cli.build_pipeline_config(cli.load_config(sys.argv[2])[0])")


def measure_setup(config_path):
    """Median wall time of a fresh interpreter that imports numpy and
    cgankd and parses and validates the config.  One uncounted start comes
    first, so compiling bytecode in a fresh checkout is not timed."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, config_path],
                       check=True)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_round(commands, main):
    """Runs the commands in order; returns (wall s, cpu s, exit codes)."""
    for _, out_dir in commands:
        os.makedirs(out_dir, exist_ok=True)
    codes = []
    wall, cpu = time.perf_counter(), cpu_seconds()
    for argv, _ in commands:
        try:
            codes.append(main(argv))
        except Exception:  # a crash is one failed operation
            traceback.print_exc()
            codes.append(-1)
    return time.perf_counter() - wall, cpu_seconds() - cpu, codes


def outputs(commands):
    return [checks.file_digests(d) for _, d in commands]


# The distilled student's quality on the workload's seeds; the other
# task's entry reads 0.
QUALITY = {"student_top1": "fraction", "student_mae": "label"}


def layer_unit(name):
    if name in QUALITY:
        return QUALITY[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")) or ".stage_s." in name:
        return "s"
    if ".step_us." in name:
        return "us"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "cgankd", "cli.py")):
        print(f"cgankd sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from cgankd import cli

    args = parse_args(argv)
    workload = WORKLOADS[args.workload]()
    seeds = workload.seeds(args.seed)
    work = os.path.join(WORK, f"{workload.name}-{os.getpid()}")
    plain = workload.commands(seeds, os.path.join(work, "plain"))
    traced = workload.commands(seeds, os.path.join(work, "traced"))

    correct, attempted, failed = True, 0, 0
    walls, cpus, traced_walls, layers, records = [], [], [], [], []
    reference = quality = peak_rss_mb = None

    def passes(check):
        """Runs a check; a missing or malformed output fails it too."""
        nonlocal correct
        try:
            check()
            return True
        except (checks.CheckFailed, OSError, LookupError, ValueError) as exc:
            print(f"check failed: {exc!r}", file=sys.stderr)
            correct = False
            return False

    def account(codes, check):
        nonlocal attempted, failed
        attempted += len(codes)
        bad = sum(code != 0 for code in codes)
        if not bad and not passes(check):
            bad = len(codes)
        failed += bad

    def check_plain():
        nonlocal reference, quality
        if reference is None:
            quality = workload.check(seeds, [d for _, d in plain])
            reference = outputs(plain)
        else:
            checks.expect(outputs(plain) == reference,
                          "a repeated round wrote different files")

    def check_traced():
        checks.expect(outputs(traced) == outputs(plain),
                      "the traced round wrote different files")

    def run_cli(argv):
        # Looked up per call, so a traced round calls the wrapped entry
        # point; the paths the CLI prints stay off our stdout.
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def plain_round():
        wall, cpu, codes = run_round(plain, run_cli)
        walls.append(wall)
        cpus.append(cpu)
        account(codes, check_plain)
        print(f"round {len(walls)}: {wall:.3f} s wall, {cpu:.3f} s cpu",
              file=sys.stderr)

    def traced_round():
        nonlocal correct
        tracer = spans.Tracer()
        with tracer:
            wall, _, codes = run_round(traced, run_cli)
        traced_walls.append(wall)
        account(codes, check_traced)
        if tracer.stage_mismatches:
            print("stage inputs matched but outputs differed: "
                  f"{tracer.stage_mismatches}", file=sys.stderr)
            correct = False
        layers.append(spans.layer_metrics(tracer))
        records.extend(dict(r, round=len(layers) - 1)
                       for r in tracer.records())

    # With --trace 1, rounds alternate untraced and traced, at least three.
    min_rounds = 3 if args.trace else 1
    begin = time.perf_counter()
    try:
        for n in itertools.count(1):
            if args.trace and n % 2 == 0:
                traced_round()
            else:
                plain_round()
            if n == 1:
                # A fresh process that ran the commands once, as one CLI
                # invocation would.  Read after the last round instead, it
                # came out at 68 or 76 MB on reg-rho-sweep from run to run.
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            # Stop when one more round, at the mean pace so far, would end
            # after --seconds.
            elapsed = time.perf_counter() - begin
            if n >= min_rounds and elapsed * (n + 1) / n > args.seconds:
                break
        passes(lambda: workload.final_check(seeds, plain[0][1], run_cli))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        spans.write_jsonl(os.path.join(
            WORK, f"trace-{workload.name}-seed{args.seed}.jsonl"), records)
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name in layers[0]}
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        for name in QUALITY:
            metrics[name] = (quality or {}).get(name, 0.0)
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in metrics.items()}
    else:
        metrics = {
            "setup_s": {"value": measure_setup(workload.config_path),
                        "unit": "s"},
            "job_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
