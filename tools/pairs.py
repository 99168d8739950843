"""Parent/change pairs of the benchmark, for a before/after claim.

Run from the repository root:

    python3 tools/pairs.py --base HEAD --workload reg-cgan-ablation \\
        --pairs 10 --seconds 30 --seed 100 --label spans

The base revision's committed files are exported with `git archive` into
`tools/.pairs/<commit>/`; the change is this working tree.  Pair i runs each
tree's own, unchanged `bench/run.py --workload W --seed SEED+i --seconds S
--trace 0`, one after the other: base first in even pairs, change first in
odd ones, so a drift in the machine's pace loads both sides alike.  With
several --workload flags their pairs run in turn.  With --tier1 N, N more
pairs, alternating the same way, run the Tier-1 suite in each tree:
`python -m pytest -q --continue-on-collection-errors` with the tree's `src`
first on PYTHONPATH, as ROADMAP.md gives it.

It writes `BENCH_<label>.json` at the repository root: the machine facts
(nproc, Python, numpy, the BLAS name, version and thread count, and the
bytecode setting: PYTHONDONTWRITEBYTECODE and the `sys.dont_write_bytecode`
a run sees, since without cached bytecode every run compiles `src/` as it
starts), every raw run, and per workload and metric each side's median and
quartiles and the change's wins out of the pairs (pairs where the change's
figure is better, in the direction `BENCHMARK.json` gives).  The Tier-1 pairs go under
"tier1", summarised the same way: the suite's wall seconds (lower is
better) and its passed and failed test counts, a collection error counting
as failed.  Standard library only.
"""

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREES = os.path.join(ROOT, "tools", ".pairs")

# ROADMAP.md's Tier-1 command, run in a tree with its `src` on PYTHONPATH.
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
TIER1_BETTER = {"wall_s": "lower", "passed": "higher", "failed": "lower"}

# Run in the change tree: numpy's version and BLAS, the OpenBLAS thread
# count the way `cgankd.cli` finds it, and whether Python writes bytecode.
FACTS = """
import json, sys
sys.path.insert(0, "src")
import numpy
from cgankd import cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
funcs = cli._openblas()
print(json.dumps({"numpy": numpy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"),
                  "blas_threads": funcs[1]() if funcs else None,
                  "dont_write_bytecode": sys.dont_write_bytecode}))
"""


def quartiles(values) -> dict:
    """Median and quartiles of `values` (the inclusive method, so they lie
    within the data)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list, better: dict) -> dict:
    """Per metric of the runs: each side's median and quartiles, and the
    change's wins out of the pairs.  `runs` holds one base and one change
    run per pair; `better` maps a metric to "lower" or "higher" (default
    "lower")."""
    sides = {"base": {}, "change": {}}
    for run in runs:
        sides[run["side"]][run["pair"]] = run["metrics"]
    pairs = sorted(sides["base"])
    out = {}
    for name in sides["base"][pairs[0]]:
        base = [sides["base"][p][name] for p in pairs]
        change = [sides["change"][p][name] for p in pairs]
        sign = -1 if better.get(name, "lower") == "higher" else 1
        out[name] = {
            "better": better.get(name, "lower"),
            "base": quartiles(base),
            "change": quartiles(change),
            "wins": sum(sign * (c - b) < 0 for b, c in zip(base, change)),
            "pairs": len(pairs),
        }
    return out


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str) -> tuple:
    """(commit, directory) of `rev`'s committed files, exported once."""
    commit = git("rev-parse", "--verify", rev + "^{commit}")
    tree = os.path.join(TREES, commit)
    if not os.path.isdir(tree):
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree + ".part", **safe)
        os.rename(tree + ".part", tree)
    return commit, tree


def bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run in `tree`: its JSON line, metric values
    flattened."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{' '.join(argv)} in {tree} exited {done.returncode}:\n"
                 f"{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["metrics"] = {k: m["value"] for k, m in result["metrics"].items()}
    return result


def tier1_counts(output: str) -> tuple:
    """(passed, failed) from pytest's summary line, the last line of its
    output that names a count; an error counts as failed."""
    for line in reversed(output.splitlines()):
        found = {word: int(n) for n, word in re.findall(
            r"(\d+) (passed|failed|error)s?\b", line)}
        if found:
            return (found.get("passed", 0),
                    found.get("failed", 0) + found.get("error", 0))
    return 0, 0


def tier1(tree: str) -> dict:
    """One Tier-1 run in `tree`: its wall seconds and its passed and failed
    test counts."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    passed, failed = tier1_counts(done.stdout)
    return {"returncode": done.returncode,
            "metrics": {"wall_s": wall, "passed": passed, "failed": failed}}


def run_pairs(trees: dict, pairs: int, seed: int, label: str, measure) -> list:
    """`pairs` pairs of `measure(tree, seed)` runs, base first in even pairs
    and change first in odd ones; pair i runs seed + i."""
    runs = []
    for pair in range(pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            run = measure(trees[side], seed + pair)
            runs.append({"pair": pair, "seed": seed + pair, "side": side,
                         **run})
            print(f"{label} pair {pair} seed {seed + pair} {side}: "
                  f"{json.dumps(run['metrics'])}", file=sys.stderr)
    return runs


def machine() -> dict:
    facts = json.loads(subprocess.run(
        [sys.executable, "-c", FACTS], cwd=ROOT, check=True,
        capture_output=True, text=True).stdout)
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"nproc": nproc, "python": platform.python_version(),
            "machine": platform.machine(), "PYTHONDONTWRITEBYTECODE":
            os.environ.get("PYTHONDONTWRITEBYTECODE"), **facts}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="the parent revision")
    p.add_argument("--workload", action="append", default=[])
    p.add_argument("--pairs", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--tier1", type=int, default=0, metavar="N",
                   help="also run N pairs of the Tier-1 suite")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the first pair; pair i runs seed + i")
    p.add_argument("--label", required=True,
                   help="the output is BENCH_<label>.json")
    args = p.parse_args(argv)
    if args.workload and (args.pairs < 1 or args.seconds <= 0):
        p.error("--workload needs --pairs of at least 1 and --seconds")
    if args.tier1 < 0 or not (args.workload or args.tier1):
        p.error("give a --workload, or --tier1 of at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    commit, base_tree = export(args.base)
    trees = {"base": base_tree, "change": ROOT}
    report = {
        "command": ["tools/pairs.py", *(sys.argv[1:] if argv is None
                                        else argv)],
        "base": {"rev": args.base, "commit": commit},
        "change": {"head": git("rev-parse", "HEAD"),
                   "modified": bool(git("status", "--porcelain"))},
        "machine": machine(),
        "workloads": {},
    }
    for workload in args.workload:
        runs = run_pairs(trees, args.pairs, args.seed, workload,
                         lambda tree, seed: bench(tree, workload, seed,
                                                  args.seconds))
        report["workloads"][workload] = {
            "seconds": args.seconds, "runs": runs,
            "failed": {side: sum(r["failed"] for r in runs if r["side"] == side)
                       for side in trees},
            "attempted": {side: sum(r["attempted"] for r in runs
                                    if r["side"] == side) for side in trees},
            "summary": summarize(runs, better)}
    if args.tier1:
        runs = run_pairs(trees, args.tier1, args.seed, "tier1",
                         lambda tree, _: tier1(tree))
        report["tier1"] = {"command": TIER1, "runs": runs,
                           "summary": summarize(runs, TIER1_BETTER)}
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
