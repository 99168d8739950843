"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line.  Criteria 6-9 exercise the two shipped benchmark
configs end to end; the rest are exact or statistical properties of the
core algorithms.
"""

import csv
import math
import pathlib
import time
from dataclasses import replace

import numpy as np
import pytest

from cgankd import m2_labeladjust, rng, theory
from cgankd.cli import build_pipeline_config, load_config, main
from cgankd.m1_subsample import rejection_sample
from cgankd.m3_distill import ABLATION_VARIANTS, run_pipelines
from cgankd.nncore import Loss, NetSpec, TrainConfig, init_params, one_hot
from cgankd.synthdata import ClassificationTask
from nn_oracles import (batch_loss, blended_targets, constant_labels,
                        gradients, loss_value, philox, pre_activations,
                        soft_labels)

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
SEEDS = (0, 1, 2, 3, 4)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {name}: {status}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} {name} failed: {detail}"


def bench_config(name):
    kv, _, _ = load_config(CONFIG_DIR / name)
    return build_pipeline_config(kv)


@pytest.fixture(scope="module")
def cls_reports():
    base = bench_config("bench_cls.cfg")
    return [run_pipelines([replace(base, master_seed=s)])[0] for s in SEEDS]


@pytest.fixture(scope="module")
def reg_reports():
    base = bench_config("bench_reg.cfg")
    return [run_pipelines([replace(base, master_seed=s)])[0] for s in SEEDS]


# --- criterion 1: analytic gradients against central finite differences ---

def _kink_margin(params, X):
    pre = pre_activations(params, X)
    layers = pre[:-1]
    if params.spec.output_kind == "nonneg_scalar":
        layers = pre
    return min(np.abs(z).min() for z in layers)


def _fd_worst_error(spec, loss, teacher, seed, n=5, h=1e-5):
    for attempt in range(80):
        g = philox(rng.derive_key("accept-fd", seed, attempt))
        params = init_params(spec, rng.derive_key("accept-fd-p", seed, attempt))
        X = g.normal(size=(n, spec.input_dim))
        if _kink_margin(params, X) > 1e-3:
            break
    else:
        raise RuntimeError("no kink-free draw found")
    if loss.kind == "plain_se":
        targets = g.uniform(0, 1, size=n)
    else:
        targets = one_hot(g.integers(0, spec.n_outputs, size=n),
                          spec.n_outputs)

    blended = blended_targets(targets, loss, teacher, X)

    grads = gradients(params, (X, targets), loss, teacher)
    worst = 0.0
    for l in range(len(params.weights)):
        for arr, garr in ((params.weights[l], grads.weights[l]),
                          (params.biases[l], grads.biases[l])):
            flat, gflat = arr.ravel(), garr.ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up = batch_loss(params, X, blended, loss)
                flat[k] = orig - h
                down = batch_loss(params, X, blended, loss)
                flat[k] = orig
                numeric = (up - down) / (2 * h)
                denom = max(abs(gflat[k]), abs(numeric), 1e-8)
                worst = max(worst, abs(gflat[k] - numeric) / denom)
    return worst


def test_criterion_01_gradient_oracle():
    start = time.perf_counter()
    g = philox(rng.derive_key("accept-fd-menu"))
    worst = 0.0
    for trial in range(100):
        kind = ("plain_ce", "plain_se", "blkd")[trial % 3]
        hidden = (int(g.integers(2, 6)),)
        d = int(g.integers(2, 5))
        if kind == "plain_se":
            spec = NetSpec(d, hidden, "nonneg_scalar")
            loss, teacher = Loss("plain_se"), None
        else:
            c = int(g.integers(2, 5))
            spec = NetSpec(d, hidden, "logits", c)
            if kind == "blkd":
                lam = float(g.uniform(0.1, 0.9))
                T = float(g.uniform(1.0, 8.0))
                loss = Loss("blkd", lam=lam, temperature=T)
                teacher = init_params(NetSpec(d, (4,), "logits", c),
                                      rng.derive_key("accept-fd-t", trial))
            else:
                loss, teacher = Loss("plain_ce"), None
        worst = max(worst, _fd_worst_error(spec, loss, teacher, trial))
    elapsed = time.perf_counter() - start
    report(1, "gradient oracle", worst <= 1e-4 and elapsed < 30.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_loss_identities():
    g = philox(rng.derive_key("accept-loss"))
    ok = True
    for _ in range(50):
        l = g.normal(size=4) * 3
        y = one_hot(np.array([int(g.integers(0, 4))]), 4)[0]
        T = float(g.uniform(0.5, 8.0))
        ts = soft_labels(g.normal(size=4), T)
        hard = loss_value(Loss("plain_ce", temperature=T), l, y)
        kd_pure = -float(np.sum(ts.probs
                                * np.log(soft_labels(l, T).probs)))
        ok &= loss_value(Loss("blkd", lam=0.0, temperature=T), l, y, ts) == hard
        ok &= abs(loss_value(Loss("blkd", lam=1.0, temperature=T), l, y, ts)
                  - kd_pure) < 1e-12
        shifted = soft_labels(l + 11.7, T).probs
        ok &= np.max(np.abs(soft_labels(l, T).probs - shifted)) < 1e-12
    ok &= np.max(np.abs(soft_labels([3.0, -1.0, 0.5], 1e7).probs
                        - 1.0 / 3.0)) < 1e-5
    report(2, "loss identities", bool(ok))


def test_criterion_03_quantile_filter_exactness():
    g = philox(rng.derive_key("accept-quantile"))
    ok = True
    for n in (10, 123, 500, 2000):
        errors = g.permutation(n).astype(float)
        prev_kept = set()
        for rho in [0.0] + [round(0.1 * k, 1) for k in range(1, 10)] + [1.0]:
            alpha = m2_labeladjust.quantile_threshold(errors, rho)
            kept = set(np.flatnonzero(errors <= alpha).tolist())
            want = 0 if rho == 0.0 else math.ceil(rho * n - 1e-9)
            ok &= len(kept) == want
            ok &= prev_kept <= kept
            prev_kept = kept
        ok &= len(prev_kept) == n  # rho=1 keeps everything
    errors = g.normal(size=500)
    alpha = m2_labeladjust.quantile_threshold(errors, 0.9)
    ok &= int(np.sum(errors <= alpha)) == 450
    report(3, "quantile filter exactness", bool(ok))


def test_criterion_04_rejection_sampling_oracle():
    start = time.perf_counter()
    task = ClassificationTask(2)
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])

    def gen_fn(labels, seed, indices):
        u = rng.uniforms(rng.derive_key("accept-reject-gen"),
                         np.asarray(indices, dtype=np.uint64))
        return pts[(u > 0.5).astype(int)]

    def exact_ratio(feats, labels):
        return np.where(feats[:, 0] == 0.0, 1.8, 0.2)

    out = rejection_sample(gen_fn, task, exact_ratio,
                           m_max=1.8, label_source=constant_labels(0),
                           n_target=50_000, seed=0)
    tv = abs(float(np.mean(out.features[:, 0] == 0.0)) - 0.9)
    elapsed = time.perf_counter() - start
    report(4, "rejection sampling oracle", tv < 0.02 and elapsed < 10.0,
           f"tv {tv:.4f}, {elapsed:.1f}s")


def test_criterion_05_label_consistency_direction():
    start = time.perf_counter()
    base = bench_config("bench_cls.cfg")
    cfg = replace(base,
                  data=replace(base.data, separation=4.0, noise_std=0.9),
                  oracle_junk=0.0,
                  dr_hidden=(16,), dr_train=TrainConfig(20, 0.02))
    afters, strict, teacher_ok = [], True, True
    for seed in SEEDS:
        rep = run_pipelines([replace(cfg, master_seed=seed)])[0]
        fr = rep.filter_report
        teacher_ok &= rep.metrics["teacher"].top1 >= 0.95
        strict &= fr.consistency_after > fr.consistency_before
        afters.append(fr.consistency_after)
    elapsed = time.perf_counter() - start
    mean_after = float(np.mean(afters))
    report(5, "label consistency direction",
           teacher_ok and strict and mean_after >= 0.95 and elapsed < 120.0,
           f"mean after {mean_after:.4f}, {elapsed:.1f}s")


def test_criterion_06_classification_direction(cls_reports):
    start = time.perf_counter()
    nokd = float(np.mean([r.metrics["nokd"].top1 for r in cls_reports]))
    kd = float(np.mean([r.metrics["full"].top1 for r in cls_reports]))
    corrupted_ok = kd >= nokd + 0.01
    base = bench_config("bench_cls.cfg")
    clean = replace(base, oracle_flip=0.0, oracle_junk=0.0)
    clean_reports = [run_pipelines([replace(clean, master_seed=s)])[0]
                     for s in SEEDS]
    nokd_c = float(np.mean([r.metrics["nokd"].top1 for r in clean_reports]))
    kd_c = float(np.mean([r.metrics["full"].top1 for r in clean_reports]))
    elapsed = time.perf_counter() - start
    report(6, "classification direction",
           corrupted_ok and kd_c >= nokd_c and elapsed < 600.0,
           f"corrupted {kd:.4f} vs {nokd:.4f}, clean {kd_c:.4f} vs "
           f"{nokd_c:.4f}, {elapsed:.1f}s")


def test_criterion_07_regression_direction(reg_reports):
    nokd = float(np.mean([r.metrics["nokd"].mae for r in reg_reports]))
    kd = float(np.mean([r.metrics["full"].mae for r in reg_reports]))
    teacher = float(np.mean([r.metrics["teacher"].mae for r in reg_reports]))
    strong_teacher = teacher <= 0.5 * nokd
    reduction = 1.0 - kd / nokd
    report(7, "regression direction",
           kd <= nokd and strong_teacher and reduction >= 0.10,
           f"mae {kd:.4f} vs {nokd:.4f} (teacher {teacher:.4f}, "
           f"reduction {reduction:.1%})")


def _ablation_table(name):
    base = bench_config(name)
    tables = [run_pipelines([replace(base, master_seed=s)],
                            ABLATION_VARIANTS)[0].metrics for s in SEEDS]
    sign = 1.0 if base.data.task.kind == "classification" else -1.0
    return {v: sign * np.array([t[v].primary for t in tables])
            for v in ("raw", "m1", "m1m2")}


def test_criterion_08_ablation_monotone():
    start = time.perf_counter()
    ok, details = True, []
    for name in ("bench_cls.cfg", "bench_reg.cfg"):
        q = _ablation_table(name)
        for lo, hi in (("raw", "m1"), ("m1", "m1m2")):
            diff = q[hi] - q[lo]
            se = float(diff.std(ddof=1) / math.sqrt(len(diff)))
            ok &= float(diff.mean()) >= -se
            details.append(f"{name} {hi}-{lo} {diff.mean():+.4f} (se {se:.4f})")
    elapsed = time.perf_counter() - start
    report(8, "ablation monotone direction", bool(ok) and elapsed < 600.0,
           "; ".join(details))


def _sweep_csv(config_name, out_dir):
    code = main(["sweep", str(CONFIG_DIR / config_name), "--param", "rho",
                 "--values", "0,0.3,0.5,0.7,0.9,1.0",
                 "--seeds", ",".join(str(s) for s in SEEDS),
                 "--jobs", "4", "--out-dir", str(out_dir)])
    assert code == 0
    with open(out_dir / "sweep.csv", newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def test_criterion_09_rho_sweep_endpoints(tmp_path):
    ok, details = True, []
    for name in ("bench_cls.cfg", "bench_reg.cfg"):
        out = tmp_path / name.replace(".cfg", "")
        out.mkdir()
        header, body = _sweep_csv(name, out)
        i_nokd = header.index("student_nokd_metric")
        i_kd = header.index("student_cgankd_metric")
        seed_rows = [r for r in body if r[2] not in ("mean", "stddev")]
        mean_rows = {float(r[1]): float(r[i_kd])
                     for r in body if r[2] == "mean"}
        # rho=0 rows reproduce the baseline bit-exactly
        ok &= all(r[i_nokd] == r[i_kd]
                  for r in seed_rows if float(r[1]) == 0.0)
        # rho=1 rows equal a directly executed unfiltered pipeline
        base = bench_config(name)
        direct = run_pipelines([replace(base, rho=1.0,
                                        master_seed=SEEDS[0])])[0]
        row_one = next(r for r in seed_rows
                       if float(r[1]) == 1.0 and r[2] == str(SEEDS[0]))
        ok &= float(row_one[i_kd]) == direct.metrics["full"].primary
        sign = 1.0 if base.data.task.kind == "classification" else -1.0
        for rho in (0.3, 0.5, 0.7, 0.9):
            ok &= sign * mean_rows[rho] > sign * mean_rows[0.0]
        details.append(f"{name} rho0 {mean_rows[0.0]:.4f} vs "
                       f"rho.9 {mean_rows[0.9]:.4f}")
    report(9, "rho sweep endpoints", bool(ok), "; ".join(details))


def test_criterion_10_bound_verification():
    start = time.perf_counter()
    hand = theory.bound_rhs(r_hat=0.05, c_l=1.0, n=1000, delta=0.1,
                            theta=0.4, tv=0.1, approx_gap=0.0)
    hand_ok = abs(hand.rhs - 0.65893) < 1e-4
    rep = theory.verify_bound(theory.standard_setup(), trials=200, delta=0.1,
                              seed=0)
    elapsed = time.perf_counter() - start
    report(10, "bound verification",
           hand_ok and rep.holds_fraction >= 0.9 and elapsed < 60.0,
           f"holds {rep.holds_fraction:.3f}, rhs hand {hand.rhs:.5f}, "
           f"{elapsed:.1f}s")


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "task=classification\ndata.n=240\ndata.classes=3\n"
        "data.separation=3.0\ndata.noise_std=0.6\ntrain_fraction=0.5\n"
        "generator=oracle\noracle.flip=0.2\nteacher.hidden=16\n"
        "teacher.epochs=30\nstudent.hidden=8\nstudent.epochs=20\n"
        "dr.hidden=16\ndr.epochs=20\nn_fake=300\nrho=0.9\nseed=5\n")
    first = tmp_path / "first"
    first.mkdir()
    assert main(["run", str(cfg), "--out-dir", str(first)]) == 0
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        assert main(["run", str(first / "manifest.txt"),
                     "--out-dir", str(out)]) == 0
        outputs.append((out / "report.csv").read_bytes())
    same = outputs[0] == outputs[1] == (first / "report.csv").read_bytes()
    report(11, "manifest determinism", same)
