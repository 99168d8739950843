"""Command-line harness: config loading, pipeline runs, sweeps, ablations
and bound verification.

Configs are flat ``section.key=value`` text files (see README for the full
schema).  `main` is the one driver: it loads and decodes the config a
command names in `COMMANDS`, runs the command, and writes the command's
CSV plus a manifest under --out-dir; the manifest embeds a byte-identical
snapshot of the executed config, and every command accepts its own
manifest in place of a config.  A `run` or `verify-bound` manifest
reproduces its command exactly; `sweep` and `ablation` manifests record no
seed, and those commands take their flags again.  Exit codes: 0 ok; 2 for
any value rejected before the first stage (a config that cannot be read,
decoded or validated, or a bad flag); 3 for a pipeline stage failure or an
output that cannot be written.  `main` alone maps failures to these codes:
a `ValueError` that reaches it, `ConfigError` included, is a rejected
value, since a stage wraps its own failures in `StageError`; an `OSError`
is a failed write, since `load_config` maps a failed read to `ConfigError`.
Every command runs its pipelines through `m3_distill.run_pipelines`, one
call per `run`, sweep seed or ablation seed: the configs of a call share
one data split and each distinct training, and their students train in one
stacked SGD loop.
"""

import argparse
import contextlib
import csv
import ctypes
import functools
import math
import os
import statistics
import sys
import time
from dataclasses import replace

from .cgen import GanTrainConfig
from .m3_distill import (ABLATION_VARIANTS, RUN_VARIANTS, PipelineConfig,
                         StageError, run_pipelines)
from .nncore import Loss, TrainConfig, plain_loss
from .synthdata import BlobsConfig, RingConfig, kv_lines, parse_kv
from .theory import standard_setup, verify_bound

MANIFEST_HEADER = "cgankd-manifest v1"

RUN_COLUMNS = ("task", "n_real", "n_fake", "m_fake", "rho", "theta",
               "teacher_metric", "student_nokd_metric",
               "student_cgankd_metric", "consistency_before",
               "consistency_after", "seed")
SWEEP_COLUMNS = ("param", "value", "seed", "teacher_metric",
                 "student_nokd_metric", "student_cgankd_metric", "m_fake",
                 "theta")
ABLATION_COLUMNS = ("variant", "seed", "metric")
BOUND_COLUMNS = ("trial", "lhs", "rhs", "holds", "holds_fraction")

SWEEP_PARAMS = ("mg", "rho", "teacher-epochs")


def _int_tuple(raw):
    return tuple(int(v) for v in raw.split(",") if v.strip())


# Keys passed on only when the file sets them (`_Reader.given`), so that the
# class or function they go to owns their defaults.  Each name is both the
# key's last part and the field or argument it sets.
SETUP_KEYS = {"n_real": int, "n_fake": int, "rho": float, "m1_mode": str,
              "real_label_noise": float, "gen_label_noise": float,
              "gen_skew": float}
GAN_KEYS = {"batch_size": int, "lr_g": float, "lr_d": float, "noise_dim": int}
TRAIN_KEYS = {"lr_decay_epochs": _int_tuple}


# (set, get) thread-count functions of OpenBLAS: as a numpy 2.x wheel
# exports them from numpy.libs/, then as a system OpenBLAS does.
OPENBLAS_THREAD_FUNCS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"))


class ConfigError(ValueError):
    pass


def load_config(path, command=None):
    """Returns (key-value dict, raw snapshot text, embedded seed or None).

    A manifest file is accepted in place of a config; its snapshot section
    is the config, and only `run` uses its recorded seed (`sweep` and
    `ablation` manifests record none).  Given a `command`, a manifest
    that names another command is rejected: it does not record that
    command's flags, so no stage may run on it.
    """
    try:
        with open(path) as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if text.startswith(MANIFEST_HEADER):
        head, sep, snapshot = text.partition("\n---\n")
        if not sep:
            raise ConfigError("manifest has no config snapshot section")
        header = _Reader(parse_kv(head.splitlines()[1:]))
        seed = header.get("seed", int)
        written_by = header.get("command", str, command)
        if command not in (None, written_by):
            raise ConfigError(f"{path} is the manifest of a {written_by!r} "
                              f"command, not of {command!r}")
        return parse_kv(snapshot.splitlines()), snapshot, seed
    return parse_kv(text.splitlines()), text, None


class _Reader:
    """Typed accessor over the flat key-value dict, tracking unused keys."""

    def __init__(self, kv):
        self.kv = dict(kv)
        self.used = set()

    def get(self, key, cast, default=None, required=False):
        if key not in self.kv:
            if required:
                raise ConfigError(f"missing required key {key!r}")
            return default
        self.used.add(key)
        raw = self.kv[key]
        try:
            value = cast(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"non-finite value for {key!r}: {raw!r}")
        return value

    def given(self, prefix, casts):
        """{name: value} for each `name: cast` of `casts` whose key
        `prefix + name` the file sets."""
        values = {name: self.get(prefix + name, cast)
                  for name, cast in casts.items()}
        return {name: v for name, v in values.items() if v is not None}

    def finish(self):
        unknown = sorted(set(self.kv) - self.used)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


def _train_config(r: _Reader, role: str, epochs: int) -> TrainConfig:
    return TrainConfig(epochs=r.get(f"{role}.epochs", int, epochs),
                       lr=r.get(f"{role}.lr", float, 0.05),
                       **r.given(f"{role}.", TRAIN_KEYS))


def _loss(r: _Reader, task) -> Loss:
    """The student loss `student.loss` names; its blkd mix and temperature
    are read and checked in either mode."""
    mode = r.get("student.loss", str, "plain")
    blkd = Loss("blkd", lam=r.get("student.lam_kd", float, 0.5),
                temperature=r.get("student.temperature", float, 5.0))
    if mode == "plain":
        return plain_loss(task)
    if mode == "blkd":
        return blkd
    raise ConfigError(f"unknown student loss {mode!r}")


def build_pipeline_config(kv: dict) -> PipelineConfig:
    r = _Reader(kv)
    task = r.get("task", str, required=True)
    if task == "classification":
        data = BlobsConfig(
            n_classes=r.get("data.classes", int, required=True),
            separation=r.get("data.separation", float, required=True),
            noise_std=r.get("data.noise_std", float, required=True),
            n=r.get("data.n", int, required=True))
    elif task == "regression":
        data = RingConfig(
            noise_std=r.get("data.noise_std", float, required=True),
            n=r.get("data.n", int, required=True))
    else:
        raise ConfigError(f"unknown task {task!r}")

    generator = r.get("generator", str, "oracle")
    gan = None
    if generator == "cgan":
        gan = GanTrainConfig(
            iterations=r.get("gan.iterations", int, required=True),
            **r.given("gan.", GAN_KEYS))

    config = PipelineConfig(
        data=data,
        train_fraction=r.get("train_fraction", float, 0.5),
        generator_kind=generator,
        oracle_flip=r.get("oracle.flip", float, 0.0),
        oracle_label_std=r.get("oracle.label_std", float, 0.0),
        oracle_junk=r.get("oracle.junk", float, 0.0),
        oracle_junk_spread=r.get("oracle.junk_spread", float, 0.0),
        gan=gan,
        teacher_hidden=r.get("teacher.hidden", _int_tuple, (64, 64)),
        teacher_train=_train_config(r, "teacher", 100),
        student_hidden=r.get("student.hidden", _int_tuple, (8,)),
        student_train=_train_config(r, "student", 100),
        student_loss=_loss(r, data.task),
        dr_hidden=r.get("dr.hidden", _int_tuple, (32,)),
        dr_train=_train_config(r, "dr", 60),
        dr_gamma=r.get("dr.gamma", float, 1.2),
        n_fake=r.get("n_fake", int, required=True),
        rho=r.get("rho", float, 0.9 if task == "classification" else 0.7),
        fake_cap=r.get("fake_cap", int, 0),
        master_seed=r.get("seed", int, 0))
    r.finish()
    return config


def build_bound_setup(kv: dict):
    r = _Reader(kv)
    if r.get("kind", str, required=True) != "bound":
        raise ConfigError("bound setups need kind=bound")
    setup = standard_setup(**r.given("", SETUP_KEYS))
    extras = {"trials": r.get("trials", int, 200),
              "delta": r.get("delta", float, 0.1),
              "seed": r.get("seed", int, 0), **r.given("", {"n_mc": int})}
    r.finish()
    return setup, extras


def write_csv(path, columns, rows):
    """Writes a header and rows; csv writes None as an empty field and a
    float by its repr."""
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows([columns, *rows])


def write_manifest(out_dir, command, config_path, snapshot, seed, artifacts):
    """Writes the manifest; a `seed` of None leaves its line out."""
    pairs = [("command", command), ("config_path", config_path),
             ("seed", seed), ("timestamp", time.strftime("%Y-%m-%dT%H:%M:%S")),
             ("artifact", tuple(artifacts))]
    lines = [MANIFEST_HEADER] + kv_lines(p for p in pairs if p[1] is not None)
    with open(f"{out_dir}/manifest.txt", "w") as f:
        f.write("\n".join(lines) + "\n---\n" + snapshot)


# Each command takes the parsed arguments, the decoded config and a
# manifest's recorded seed, and returns the seed its own manifest records
# (None where each cell takes its seed from --seeds), its CSV rows and a
# note that `main` prints after the CSV path.
def cmd_run(args, config, manifest_seed):
    seed = args.seed if args.seed is not None else manifest_seed
    if seed is not None:
        config = replace(config, master_seed=seed)
    report, = run_pipelines([config], checkpoint_dir=args.out_dir)
    fr = report.filter_report
    return config.master_seed, [(
        config.data.task.kind, report.n_real, report.n_fake, report.m_fake,
        config.rho, report.theta,
        *(report.metrics[v].primary for v in RUN_VARIANTS),
        fr.consistency_before, fr.consistency_after, config.master_seed)], ""


def _sweep_variant(config: PipelineConfig, param: str, value):
    if param == "rho":
        return replace(config, rho=float(value))
    if param == "mg":
        cap = int(value)
        if cap == 0:
            return replace(config, rho=0.0)
        return replace(config, fake_cap=cap)
    if param == "teacher-epochs":
        return replace(config,
                       teacher_train=replace(config.teacher_train,
                                             epochs=int(value)))
    raise ConfigError(f"unknown sweep parameter {param!r}")


def _seed_rows(key, per_seed):
    """`key + (seed, *values)` per (seed, values) pair, then `key` plus
    "mean" and "stddev" with each column's statistic."""
    rows = [key + (seed,) + tuple(values) for seed, values in per_seed]
    cols = list(zip(*(v for _, v in per_seed)))
    rows.append(key + ("mean",) + tuple(map(statistics.fmean, cols)))
    rows.append(key + ("stddev",) + tuple(
        statistics.stdev(col) if len(col) > 1 else 0.0 for col in cols))
    return rows


def _distinct(text, cast, what):
    """Sorted entries of a comma-separated list; a repeated one (after
    `cast`) would run a pipeline twice and count it as two runs."""
    try:
        entries = sorted(cast(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad {what}s: {exc}") from exc
    for a, b in zip(entries, entries[1:]):
        if a == b:
            raise ConfigError(f"repeated {what} {a!r}")
    return entries


def cmd_sweep(args, base, _):
    values = _distinct(args.values, float if args.param == "rho" else int,
                       "value")
    seeds = _distinct(args.seeds, int, "seed")
    cells = [[_sweep_variant(replace(base, master_seed=seed), args.param,
                             value) for value in values] for seed in seeds]
    # One seed's cells share their trainings, and their students train
    # together; so the cells run seed by seed.
    reports = [run_pipelines(configs) for configs in cells]
    rows = []
    for value, per_seed in zip(values, zip(*reports)):
        rows += _seed_rows((args.param, value), [
            (seed, (*(rep.metrics[v].primary for v in RUN_VARIANTS),
                    rep.m_fake, rep.theta))
            for seed, rep in zip(seeds, per_seed)])
    return None, rows, ""


def cmd_ablation(args, base, _):
    seeds = _distinct(args.seeds, int, "seed")
    tables = [run_pipelines([replace(base, master_seed=s)],
                            ABLATION_VARIANTS)[0].metrics for s in seeds]
    rows = []
    for variant in ABLATION_VARIANTS:
        rows += _seed_rows((variant,), [(seed, (table[variant].primary,))
                                        for seed, table in zip(seeds, tables)])
    return None, rows, ""


def cmd_verify_bound(args, setup_extras, _):
    setup, extras = setup_extras
    report = verify_bound(setup, **extras)
    frac = report.holds_fraction
    rows = [(t, lhs, report.bound.rhs, int(held), frac)
            for t, (lhs, held) in enumerate(zip(report.lhs_values,
                                                report.holds_flags))]
    return extras["seed"], rows, f" holds_fraction={frac!r}"


# Subcommand: (help, config decoder, command, CSV name, CSV columns).
COMMANDS = {
    "run": ("execute one pipeline run", build_pipeline_config, cmd_run,
            "report.csv", RUN_COLUMNS),
    "sweep": ("sensitivity sweep over a parameter", build_pipeline_config,
              cmd_sweep, "sweep.csv", SWEEP_COLUMNS),
    "ablation": ("four-variant module ablation", build_pipeline_config,
                 cmd_ablation, "ablation.csv", ABLATION_COLUMNS),
    "verify-bound": ("numerical bound verification", build_bound_setup,
                     cmd_verify_bound, "bound.csv", BOUND_COLUMNS),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cgankd",
        description="Generated-sample knowledge distillation experiments")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (text, *_) in COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("config", metavar="setup" if name == "verify-bound"
                        else "config")
        sp.add_argument("--out-dir", default=".")
        # Cells run one after another: a thread pool doubled wall and CPU
        # time, so the option stays only for existing command lines.
        sp.add_argument("--jobs", type=int, default=1,
                        help="accepted and ignored")
    run, sweep, ablation = (sub.choices[n] for n in ("run", "sweep",
                                                     "ablation"))
    run.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    sweep.add_argument("--values", required=True)
    for sp in (sweep, ablation):
        sp.add_argument("--seeds", required=True)
    return p


@functools.cache
def _openblas():
    """(set, get) thread-count functions of the OpenBLAS library that this
    process has loaded, or None where none is mapped (another BLAS, or a
    system without /proc/self/maps)."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split(None, 5)[5].strip() for line in f
                     if "openblas" in line}
        libs = [ctypes.CDLL(path) for path in sorted(paths)]
    except OSError:
        return None
    for lib in libs:
        for set_name, get_name in OPENBLAS_THREAD_FUNCS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_threads, get_threads = lib[set_name], lib[get_name]
                set_threads.argtypes = [ctypes.c_int]
                set_threads.restype = None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Runs the body with OpenBLAS on one thread and then restores the
    caller's count.  A 64-wide layer over a few hundred rows crosses
    OpenBLAS's threading threshold; after each such product its second
    thread busy-waits through the training steps that follow, burning CPU
    that buys no wall time.  Outputs are the same under any thread count;
    without OpenBLAS this does nothing."""
    blas = _openblas()
    if blas is None:
        yield
        return
    set_threads, get_threads = blas
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def main(argv=None) -> int:
    """Runs one command: loads and decodes its config, runs it, and writes
    its CSV and a manifest listing that CSV under --out-dir."""
    args = build_parser().parse_args(argv)
    _, decode, command, name, columns = COMMANDS[args.command]
    try:
        if not os.path.isdir(args.out_dir):
            raise ConfigError(f"no output directory {args.out_dir!r}")
        # Loading, writing and printing all stay inside the context: moved
        # out, they shift the heap layout that bench's `peak_rss_mb` reads.
        with _one_blas_thread():
            kv, snapshot, manifest_seed = load_config(args.config,
                                                      args.command)
            seed, rows, note = command(args, decode(kv), manifest_seed)
            path = f"{args.out_dir}/{name}"
            write_csv(path, columns, rows)
            write_manifest(args.out_dir, args.command, args.config, snapshot,
                           seed, (name,))
            print(path + note)
            return 0
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"write error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
