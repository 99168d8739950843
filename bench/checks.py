"""Correctness checks on the files the cgankd CLI writes.

Every expected value is computed here from the config, from the saved
artifacts through this file's own parsers and forward pass, or from a
property of the method; none is a stored copy of an earlier output.  Each
check raises `CheckFailed` with the reason.
"""

import csv
import hashlib
import math
import os
import statistics
from fractions import Fraction

import numpy as np


class CheckFailed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def read_config(path):
    """Flat key=value file; '#' comments and blank lines skipped."""
    kv = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                key, _, value = line.partition("=")
                kv[key.strip()] = value.strip()
    return kv


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def nearest_rank(rho, n):
    """Fakes a nearest-rank rho-quantile filter keeps out of n: ceil(rho*n),
    with rho read as the decimal written in the config or CSV."""
    return math.ceil(Fraction(rho) * n)


def class_budgets(n_fake, n_classes):
    """Per-class fake budgets: an even split, remainder to the first classes."""
    return [n_fake // n_classes + (c < n_fake % n_classes)
            for c in range(n_classes)]


def read_dataset(path):
    """(task line, labels as strings, features) of a `cgankd-dataset v1` file."""
    with open(path) as f:
        lines = f.read().splitlines()
    expect(lines[:1] == ["cgankd-dataset v1"], f"{path}: bad header")
    dim = int(lines[2].partition("=")[2])
    rows = [ln.split(",") for ln in lines[3:] if ln]
    expect(all(len(r) == dim + 2 for r in rows), f"{path}: row arity")
    feats = np.array([[float(v) for v in r[2:]] for r in rows]).reshape(-1, dim)
    return lines[1], [r[0] for r in rows], feats


def read_model(path):
    """(output kind, [(W, b), ...]) of a `cgankd-model v1` file."""
    with open(path) as f:
        lines = f.read().splitlines()
    expect(lines[:1] == ["cgankd-model v1"], f"{path}: bad header")
    kv = dict(ln.split("=", 1) for ln in lines[1:] if ln)
    dims = ([int(kv["input_dim"])] + [int(w) for w in kv["hidden"].split(",")]
            + [int(kv["n_outputs"])])
    layers = []
    for l in range(len(dims) - 1):
        w = np.array([float(v) for v in kv[f"W{l}"].split(",")])
        b = np.array([float(v) for v in kv[f"b{l}"].split(",")])
        layers.append((w.reshape(dims[l + 1], dims[l]), b))
    return kv["output_kind"], layers


def forward(layers, X, output_kind):
    """ReLU MLP; the scalar head is clamped at zero like the hidden layers."""
    a = X
    for i, (w, b) in enumerate(layers):
        a = a @ w.T + b
        if i < len(layers) - 1 or output_kind == "nonneg_scalar":
            a = np.maximum(a, 0.0)
    return a


def top1(model_path, eval_path):
    kind, layers = read_model(model_path)
    _, labels, X = read_dataset(eval_path)
    expect(kind == "logits", f"{model_path}: not a classifier")
    pred = forward(layers, X, kind).argmax(axis=1)
    return float(np.mean(pred == np.array([int(v) for v in labels]))), len(labels)


def filtered_count(teacher_path, fakes_path, rho):
    """Fakes a per-class nearest-rank filter at rho keeps.  A fake's error is
    -log p_teacher(label), floored at 1e-12 like the program's; per class the
    ceil(rho * b_c) smallest are kept, plus any tied with the last of them."""
    kind, layers = read_model(teacher_path)
    _, labels, X = read_dataset(fakes_path)
    logits = forward(layers, X, kind)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    y = np.array([int(v) for v in labels])
    p = e[np.arange(len(y)), y] / e.sum(axis=1)
    err = -np.log(np.maximum(p, 1e-12))
    kept = 0
    for c in np.unique(y):
        errors = np.sort(err[y == c])
        k = nearest_rank(rho, len(errors))
        kept += int(np.sum(errors <= errors[k - 1])) if k else 0
    return kept


def check_run(out_dir, cfg, seed):
    """One `cgankd run` of the classification config; returns its report row."""
    rows = read_rows(os.path.join(out_dir, "report.csv"))
    expect(len(rows) == 1, "report.csv must hold one row")
    row = rows[0]
    expect(row["seed"] == str(seed), f"seed {row['seed']} != {seed}")
    n_fake = int(cfg["n_fake"])
    budgets = class_budgets(n_fake, int(cfg["data.classes"]))
    fakes_m1 = os.path.join(out_dir, "fakes_m1.txt")
    _, m1_labels, _ = read_dataset(fakes_m1)
    counts = [m1_labels.count(str(c)) for c in range(len(budgets))]
    expect(len(m1_labels) == n_fake and counts == budgets,
           f"fakes_m1.txt per-class rows {counts} != budgets {budgets}")

    m_fake = int(row["m_fake"])
    floor = sum(nearest_rank(cfg["rho"], b) for b in budgets)
    want = filtered_count(os.path.join(out_dir, "teacher.txt"), fakes_m1,
                          cfg["rho"])
    expect(m_fake == want and m_fake >= floor,
           f"m_fake {m_fake}: the filter keeps {want}, at least "
           f"sum ceil(rho*b_c) = {floor}")
    if m_fake:
        _, m2_labels, _ = read_dataset(os.path.join(out_dir, "fakes_m2.txt"))
        expect(len(m2_labels) == m_fake, "fakes_m2.txt rows != m_fake")

    _, train_labels, _ = read_dataset(os.path.join(out_dir, "train.txt"))
    n_real = len(train_labels)
    expect(int(row["n_real"]) == n_real, "n_real differs from train.txt")
    expect(float(row["theta"]) == n_real / (n_real + m_fake),
           f"theta {row['theta']} != n_real/(n_real+m_fake)")

    eval_path = os.path.join(out_dir, "eval.txt")
    for model, column in (("teacher.txt", "teacher_metric"),
                          ("student_nokd.txt", "student_nokd_metric"),
                          ("student.txt", "student_cgankd_metric")):
        mine, n_eval = top1(os.path.join(out_dir, model), eval_path)
        expect(abs(mine - float(row[column])) <= 1.0 / n_eval,
               f"{model} re-evaluates to {mine}, report says {row[column]}")
    return row


def check_direction(rows):
    """The distilled student is, on average over seeds, at least as accurate
    as the same-budget baseline (the paper's direction)."""
    kd = statistics.fmean(float(r["student_cgankd_metric"]) for r in rows)
    nokd = statistics.fmean(float(r["student_nokd_metric"]) for r in rows)
    expect(kd >= nokd, f"distilled top-1 {kd} below baseline {nokd}")


def check_summary_rows(rows, group_key, seeds, columns):
    """Each group's `mean`/`stddev` rows recomputed from its seed rows."""
    groups = {}
    for r in rows:
        groups.setdefault(r[group_key], {})[r["seed"]] = r
    for name, g in groups.items():
        expect(sorted(g) == sorted([str(s) for s in seeds] + ["mean", "stddev"]),
               f"{group_key}={name}: rows for seeds {sorted(g)}")
        for col in columns:
            vals = [float(g[str(s)][col]) for s in seeds]
            mean = sum(vals) / len(vals)
            std = (math.sqrt(sum((v - mean) ** 2 for v in vals)
                             / (len(vals) - 1)) if len(vals) > 1 else 0.0)
            for label, want in (("mean", mean), ("stddev", std)):
                got = float(g[label][col])
                expect(math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-15),
                       f"{group_key}={name} {label} {col}: {got} != {want}")
    return groups


SWEEP_NUMERIC = ("teacher_metric", "student_nokd_metric",
                 "student_cgankd_metric", "m_fake", "theta")


def check_sweep(out_dir, cfg, values, seeds):
    """A rho sweep; returns the mean student MAE at the config's own rho."""
    rows = read_rows(os.path.join(out_dir, "sweep.csv"))
    groups = {float(v): g for v, g in check_summary_rows(
        rows, "value", seeds, SWEEP_NUMERIC).items()}
    expect(sorted(groups) == sorted(float(v) for v in values),
           f"swept values {sorted(groups)} != {values}")
    n_fake = int(cfg["n_fake"])
    n_real = round(Fraction(cfg["train_fraction"]) * int(cfg["data.n"]))
    lowest = groups[min(groups)]
    for value, g in groups.items():
        for s in seeds:
            r = g[str(s)]
            # Ties at the threshold are kept, so the count is a floor, met
            # exactly at rho = 0 and 1.  The sweep saves no teacher to count
            # ties with.
            m_fake, floor = int(r["m_fake"]), nearest_rank(r["value"], n_fake)
            expect(floor <= m_fake <= n_fake
                   and (m_fake == floor or 0.0 < value < 1.0),
                   f"rho={value} seed {s}: m_fake {m_fake}, ceil(rho*n) {floor}")
            expect(float(r["theta"]) == n_real / (n_real + m_fake),
                   f"rho={value} seed {s}: theta != n_real/(n_real+m_fake)")
            for col in ("teacher_metric", "student_nokd_metric"):
                expect(r[col] == lowest[str(s)][col],
                       f"seed {s}: {col} changes with rho ({value})")
            if value == 0.0:
                expect(r["student_cgankd_metric"] == r["student_nokd_metric"],
                       f"seed {s}: rho=0 student differs from baseline")
    own = groups.get(float(cfg["rho"]))
    expect(own is not None, "the config's rho is not among the swept values")
    return statistics.fmean(float(own[str(s)]["student_cgankd_metric"])
                            for s in seeds)


def check_ablation(out_dir, seeds, variants=("raw", "m1", "m1m2", "full")):
    """A module ablation; returns the mean MAE of the `full` variant."""
    rows = read_rows(os.path.join(out_dir, "ablation.csv"))
    groups = check_summary_rows(rows, "variant", seeds, ("metric",))
    expect(list(groups) == list(variants), f"variants {list(groups)}")
    for variant, g in groups.items():
        for s in seeds:
            mae = float(g[str(s)]["metric"])
            expect(math.isfinite(mae) and mae > 0.0,
                   f"{variant} seed {s}: MAE {mae} not finite and positive")
    return statistics.fmean(float(groups["full"][str(s)]["metric"])
                            for s in seeds)


def check_ablation_matches_run(ablation_dir, run_dir, seed):
    """`ablation`'s full variant and `run`'s distilled student are the same
    student reached by two code paths: their MAEs agree to the byte."""
    full = [r for r in read_rows(os.path.join(ablation_dir, "ablation.csv"))
            if r["variant"] == "full" and r["seed"] == str(seed)]
    run = read_rows(os.path.join(run_dir, "report.csv"))
    expect(len(full) == 1 and len(run) == 1, "missing ablation or run row")
    expect(full[0]["metric"] == run[0]["student_cgankd_metric"],
           f"ablation full {full[0]['metric']} != run "
           f"{run[0]['student_cgankd_metric']}")


def file_digests(out_dir):
    """Name -> SHA-256 of every output file but the timestamped manifest."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name != "manifest.txt":
            with open(os.path.join(out_dir, name), "rb") as f:
                out[name] = hashlib.sha256(f.read()).hexdigest()
    return out
