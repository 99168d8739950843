import math

import numpy as np
import pytest

from cgankd import cgen, cli, nncore
from cgankd.m2_labeladjust import (_errors, filter_classification,
                                   filter_regression, quantile_threshold,
                                   replace_labels, run_m2)
from cgankd.nncore import NetSpec, TrainConfig, init_params, train
from cgankd.synthdata import (BlobsConfig, ClassificationTask, Dataset,
                              RegressionTask, RingConfig, make_classification)
from nn_oracles import layers


def const_logits_teacher(logits):
    """2-input teacher emitting fixed logits regardless of features."""
    C = len(logits)
    spec = NetSpec(2, (1,), "logits", C)
    return layers(spec, [np.zeros((1, 2)), np.zeros((C, 1))],
                  [np.zeros(1), np.asarray(logits, dtype=float)])


def const_scalar_teacher(value):
    spec = NetSpec(2, (1,), "nonneg_scalar")
    return layers(spec, [np.zeros((1, 2)), np.zeros((1, 1))],
                  [np.zeros(1), np.array([float(value)])])


def cls_dataset(labels, feats=None):
    labels = np.asarray(labels, dtype=np.int64)
    feats = np.zeros((len(labels), 2)) if feats is None else feats
    C = int(labels.max()) + 1 if len(labels) else 2
    return Dataset(ClassificationTask(max(C, 2)), feats, labels)


def reg_dataset(labels, feats=None):
    labels = np.asarray(labels, dtype=np.float64)
    feats = np.zeros((len(labels), 2)) if feats is None else feats
    return Dataset(RegressionTask(), feats, labels)


def teacher_errors(teacher, samples):
    """Per-sample error of the teacher's own pass over the samples."""
    return _errors(nncore.forward_batch(teacher, samples.features), samples)


def test_sample_errors_exact_match_is_zero():
    teacher = const_logits_teacher([80.0, 0.0, 0.0])
    ds = cls_dataset([0, 0, 0])
    assert np.max(teacher_errors(teacher, ds)) < 1e-9


def test_sample_errors_regression_arithmetic():
    teacher = const_scalar_teacher(0.7)
    ds = reg_dataset([0.4])
    assert teacher_errors(teacher, ds)[0] == pytest.approx(0.3)


def test_sample_errors_uniform_teacher_log_c():
    teacher = const_logits_teacher([0.0, 0.0, 0.0, 0.0])
    ds = cls_dataset([2])
    assert teacher_errors(teacher, ds)[0] == pytest.approx(math.log(4.0))


@pytest.mark.parametrize("teacher, fakes, task", [
    (const_scalar_teacher(0.5), cls_dataset([0, 1, 1]), "classification"),
    (const_logits_teacher([0.0, 1.0]), reg_dataset([0.2, 0.4]), "regression"),
], ids=["classification", "regression"])
def test_m2_rejects_teacher_head_of_other_task(teacher, fakes, task):
    with pytest.raises(ValueError,
                       match=f"teacher head does not match a {task} task"):
        run_m2(teacher, fakes, 0.5)


def test_quantile_nearest_rank():
    errors = np.arange(1.0, 11.0)
    alpha = quantile_threshold(errors, 0.7)
    assert alpha == 7.0
    assert np.sum(errors <= alpha) == 7


def test_quantile_endpoints():
    errors = np.array([3.0, 1.0, 2.0])
    assert quantile_threshold(errors, 1.0) == 3.0
    assert quantile_threshold(errors, 0.0) == -math.inf


def test_quantile_exactness_sweep():
    g = np.random.default_rng(0)
    for n in (10, 37, 500, 1000):
        errors = g.permutation(n).astype(float)  # all distinct
        for rho in np.arange(0.1, 1.0, 0.1):
            alpha = quantile_threshold(errors, rho)
            assert np.sum(errors <= alpha) == math.ceil(rho * n - 1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
def test_quantile_rejects_nonfinite_errors(bad, rho):
    # NaN fails every `errors <= alpha` test, so accepting it would keep
    # nothing without a word
    with pytest.raises(ValueError, match="non-finite"):
        quantile_threshold(np.array([0.1, bad, 0.3]), rho)


def test_quantile_500_at_09_keeps_450():
    errors = np.random.default_rng(1).permutation(500).astype(float)
    alpha = quantile_threshold(errors, 0.9)
    assert np.sum(errors <= alpha) == 450


def test_filter_classification_per_class_counts():
    g = np.random.default_rng(2)
    labels = np.repeat([0, 1], 500)
    feats = g.normal(size=(1000, 2))
    ds = cls_dataset(labels, feats)
    spec = NetSpec(2, (4,), "logits", 2)
    teacher = init_params(spec, 0)
    kept, report = filter_classification(teacher, ds, 0.9)
    assert report.counts_out[0] == 450
    assert report.counts_out[1] == 450
    assert kept.n == 900


def test_filter_rho_one_keeps_everything_unchanged():
    ds = cls_dataset([0, 1, 0, 1], np.random.default_rng(3).normal(size=(4, 2)))
    teacher = init_params(NetSpec(2, (4,), "logits", 2), 1)
    kept, _ = filter_classification(teacher, ds, 1.0)
    assert np.array_equal(kept.features, ds.features)
    assert np.array_equal(kept.labels, ds.labels)


def test_filter_rho_zero_keeps_nothing():
    ds = cls_dataset([0, 1, 0, 1])
    teacher = init_params(NetSpec(2, (4,), "logits", 2), 1)
    kept, report = filter_classification(teacher, ds, 0.0)
    assert kept.n == 0
    assert report.counts_out["total"] == 0


def test_filter_classification_requires_all_classes():
    ds = cls_dataset([0, 0, 0])
    teacher = init_params(NetSpec(2, (4,), "logits", 2), 1)
    with pytest.raises(ValueError, match=r"absent from the fake set: \[1\]$"):
        filter_classification(teacher, ds, 0.9)
    ds = Dataset(ClassificationTask(6), np.zeros((4, 2)), [4, 2, 0, 2])
    teacher = init_params(NetSpec(2, (4,), "logits", 6), 1)
    with pytest.raises(ValueError,
                       match=r"absent from the fake set: \[1, 3, 5\]$"):
        filter_classification(teacher, ds, 0.9)


def test_filter_regression_global_count():
    g = np.random.default_rng(4)
    ds = reg_dataset(g.uniform(0, 1, size=1000), g.normal(size=(1000, 2)))
    teacher = init_params(NetSpec(2, (4,), "nonneg_scalar"), 2)
    kept, _, report = filter_regression(teacher, ds, 0.7)
    assert kept.n == 700
    assert report.thresholds["global"] >= 0.0


def test_filter_regression_ties_keep_all():
    teacher = const_scalar_teacher(0.5)
    ds = reg_dataset([0.4] * 10)
    for rho in (0.1, 0.5, 0.9):
        kept, _, _ = filter_regression(teacher, ds, rho)
        assert kept.n == 10


def test_filter_monotone_nesting_in_rho():
    g = np.random.default_rng(5)
    ds = reg_dataset(g.uniform(0, 1, size=200), g.normal(size=(200, 2)))
    teacher = init_params(NetSpec(2, (4,), "nonneg_scalar"), 3)
    prev = set()
    for rho in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        kept, _, _ = filter_regression(teacher, ds, rho)
        cur = set(map(tuple, kept.features))
        assert prev <= cur
        prev = cur


def test_filter_never_alters_features_or_labels():
    g = np.random.default_rng(6)
    labels = np.tile([0, 1, 2], 100)
    ds = cls_dataset(labels, g.normal(size=(300, 2)))
    teacher = init_params(NetSpec(2, (4,), "logits", 3), 4)
    kept, _ = filter_classification(teacher, ds, 0.5)
    originals = set(map(tuple, np.column_stack([ds.features, ds.labels])))
    for row in np.column_stack([kept.features, kept.labels]):
        assert tuple(row) in originals


def test_replace_labels_definition_and_fixed_point():
    teacher = const_scalar_teacher(0.55)
    ds = reg_dataset([0.40, 0.90])
    _, out, _ = filter_regression(teacher, ds, 1.0)
    assert np.allclose(out.labels, 0.55)
    assert np.array_equal(out.features, ds.features)
    # idempotence
    _, again, _ = run_m2(teacher, out, 1.0)
    assert np.array_equal(again.labels, out.labels)
    # post-replacement teacher error is identically zero
    assert np.max(teacher_errors(teacher, out)) == 0.0


def test_replace_labels_clamps_to_unit_interval():
    _, out, _ = run_m2(const_scalar_teacher(1.7), reg_dataset([0.2]), 1.0)
    assert out.labels[0] == 1.0
    out = replace_labels(reg_dataset([0.2, 0.3]), np.array([-0.4, 1.7]))
    assert np.array_equal(out.labels, [0.0, 1.0])


def test_replace_labels_rejects_classification():
    with pytest.raises(ValueError, match="regression only"):
        replace_labels(cls_dataset([0, 1]), np.zeros(2))


def test_run_m2_dispatch():
    g = np.random.default_rng(7)
    cls = cls_dataset(np.tile([0, 1], 50), g.normal(size=(100, 2)))
    teacher_c = init_params(NetSpec(2, (4,), "logits", 2), 5)
    filtered_c, adjusted_c, rep_c = run_m2(teacher_c, cls, 0.9)
    assert rep_c.consistency_before is not None
    assert filtered_c.n == 90
    assert adjusted_c is filtered_c  # classification labels never change

    reg = reg_dataset(g.uniform(0, 1, size=100), g.normal(size=(100, 2)))
    teacher_r = init_params(NetSpec(2, (4,), "nonneg_scalar"), 6)
    filtered_r, adjusted_r, rep_r = run_m2(teacher_r, reg, 0.7)
    want, _, _ = filter_regression(teacher_r, reg, 0.7)
    assert filtered_r.n == adjusted_r.n == 70
    assert np.array_equal(filtered_r.features, want.features)
    assert np.array_equal(filtered_r.labels, want.labels)
    assert np.array_equal(adjusted_r.features, want.features)
    # adjusted labels are the teacher's predictions, clipped to [0, 1]
    preds = nncore.forward_batch(teacher_r, reg.features)[:, 0]
    keep = np.abs(preds - reg.labels) <= rep_r.thresholds["global"]
    assert np.array_equal(adjusted_r.labels, np.clip(preds[keep], 0.0, 1.0))
    assert np.max(teacher_errors(teacher_r, adjusted_r)) < 1e-12


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_run_m2_runs_the_teacher_once(task, monkeypatch):
    g = np.random.default_rng(8)
    if task == "classification":
        fakes = cls_dataset(np.tile([0, 1], 50), g.normal(size=(100, 2)))
        teacher = init_params(NetSpec(2, (4,), "logits", 2), 5)
    else:
        fakes = reg_dataset(g.uniform(0, 1, size=100), g.normal(size=(100, 2)))
        teacher = init_params(NetSpec(2, (4,), "nonneg_scalar"), 6)
    calls = []
    forward = nncore.forward_batch

    def counted(params, X):
        calls.append(len(X))
        return forward(params, X)

    monkeypatch.setattr(nncore, "forward_batch", counted)
    run_m2(teacher, fakes, 0.7)
    assert calls == [fakes.n]


def test_run_m2_relabels_from_its_scoring_pass():
    # The kept rows' labels are the clamped predictions of one pass over
    # all 8000 fakes, which a pass over the kept rows alone would repeat bit
    # for bit; 2400 and 5600 are the kept counts of the bench configs' rho
    # 0.3 and 0.7.
    teacher = init_params(NetSpec(2, (64, 64), "nonneg_scalar"), 0)
    g = np.random.default_rng(3)
    features = g.normal(size=(8000, 2))
    fakes = reg_dataset(g.uniform(size=8000), features)
    with cli._one_blas_thread():
        preds = nncore.forward_batch(teacher, fakes.features)[:, 0]
        errors = np.abs(preds - fakes.labels)
        for n_kept in (1023, 2047, 2400, 5600):
            filtered, adjusted, report = run_m2(teacher, fakes,
                                                n_kept / fakes.n)
            keep = errors <= report.thresholds["global"]
            assert filtered.n == keep.sum() == n_kept
            assert np.array_equal(adjusted.features, fakes.features[keep])
            assert np.array_equal(adjusted.labels,
                                  np.clip(preds[keep], 0.0, 1.0))


def test_run_m2_keeps_an_empty_regression_set_unadjusted():
    teacher = const_scalar_teacher(0.5)
    filtered, adjusted, report = run_m2(teacher, reg_dataset([0.1, 0.9]), 0.0)
    assert filtered.n == adjusted.n == 0
    assert report.counts_out == {"global": 0, "total": 0}


def test_filter_regression_reports_one_global_group():
    g = np.random.default_rng(3)
    fakes = reg_dataset(g.uniform(0, 1, size=40), g.normal(size=(40, 2)))
    teacher = init_params(NetSpec(2, (4,), "nonneg_scalar"), 2)
    kept, _, report = filter_regression(teacher, fakes, 0.5)
    errors = teacher_errors(teacher, fakes)
    assert report.thresholds == {"global": quantile_threshold(errors, 0.5)}
    assert report.counts_in == {"global": 40, "total": 40}
    assert report.counts_out == {"global": kept.n, "total": kept.n}
    assert kept.n == 20
    assert report.consistency_before is None


def test_consistency_improves_on_flip_corrupted_oracle():
    # Table-5-style direction: accurate teacher + flip corruption ->
    # filtering strictly raises label consistency, every seed
    base = BlobsConfig(3, 4.0, 0.5)
    for seed in range(5):
        train_set = make_classification(
            BlobsConfig(3, 4.0, 0.5, n=600, seed=seed))
        spec = NetSpec(2, (16,), "logits", 3)
        teacher, _ = train(init_params(spec, seed), train_set,
                           TrainConfig(150, 0.05, seed=seed))
        assert nncore.evaluate(teacher, train_set).top1 > 0.95
        oracle = cgen.CorruptedOracle(base, flip_prob=0.2)
        labels = np.arange(3000) % 3
        fakes = cgen.sample(oracle, labels, seed=seed + 50)
        _, report = filter_classification(teacher, fakes, 0.9)
        assert report.consistency_after > report.consistency_before


def test_filter_classification_matches_separate_passes():
    # Overlapping blobs: the trained teacher disagrees with some fakes.
    train_set = make_classification(BlobsConfig(3, 1.5, 1.0, n=600, seed=3))
    teacher, _ = train(init_params(NetSpec(2, (16,), "logits", 3), 3),
                       train_set, TrainConfig(30, 0.05, seed=3))
    fakes = make_classification(BlobsConfig(3, 1.5, 1.0, n=2000, seed=4))
    # Every fourth fake takes a class the teacher does not predict.  In each
    # class more fakes disagree with the teacher than the filter at rho 0.8
    # drops, so some kept fakes must disagree with it too.
    predicted = nncore.forward_batch(teacher, fakes.features).argmax(axis=1)
    fakes = Dataset(fakes.task, fakes.features,
                    np.where(np.arange(fakes.n) % 4 == 0, (predicted + 1) % 3,
                             fakes.labels))
    for c in range(3):
        n_c = int(np.sum(fakes.labels == c))
        disagree = np.sum((fakes.labels == c) & (predicted != fakes.labels))
        assert disagree > n_c - math.ceil(0.8 * n_c)
    rows = []
    forward = nncore.forward_batch

    def counted(params, X):
        rows.append(len(X))
        return forward(params, X)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nncore, "forward_batch", counted)
        kept, report = filter_classification(teacher, fakes, 0.8)
    assert sum(rows) == fakes.n  # one pass: errors and both consistencies

    errors = teacher_errors(teacher, fakes)
    keep = np.zeros(fakes.n, dtype=bool)
    thresholds = {}
    for c in range(3):
        mask = fakes.labels == c
        thresholds[c] = quantile_threshold(errors[mask], 0.8)
        keep[mask] = errors[mask] <= thresholds[c]
    want = fakes.subset(keep)

    def consistency(ds):
        logits = nncore.forward_batch(teacher, ds.features)
        return float(np.mean(logits.argmax(axis=1) == ds.labels))

    assert report.thresholds == thresholds
    assert report.counts_in == {**{c: int(np.sum(fakes.labels == c))
                                   for c in range(3)}, "total": fakes.n}
    assert report.counts_out == {**{c: int(np.sum(want.labels == c))
                                    for c in range(3)}, "total": want.n}
    assert report.consistency_before == consistency(fakes)
    assert report.consistency_after == consistency(want)
    assert 0.5 < report.consistency_before < report.consistency_after < 1.0
    assert np.array_equal(kept.features, want.features)
    assert np.array_equal(kept.labels, want.labels)
