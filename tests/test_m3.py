import os

import numpy as np
import pytest

from cgankd import m2_labeladjust, m3_distill, nncore
from cgankd.m3_distill import (ABLATION_VARIANTS, PipelineConfig, StageError,
                               augment, run_pipelines, train_student)
from cgankd.nncore import Loss, TrainConfig
from cgankd.synthdata import (BlobsConfig, ClassificationTask, Dataset,
                              RingConfig, make_classification, make_regression)


# Settings both tasks share; `PipelineConfig` declares no defaults.
COMMON = dict(
    train_fraction=0.5, generator_kind="oracle", oracle_junk=0.15,
    oracle_junk_spread=30.0, gan=None,
    teacher_hidden=(32,), teacher_train=TrainConfig(60, 0.05),
    student_hidden=(8,), student_train=TrainConfig(40, 0.05),
    dr_hidden=(32,), dr_train=TrainConfig(40, 0.05), dr_gamma=1.2,
    n_fake=900, fake_cap=0)


def cls_config(seed=0, **kw):
    return PipelineConfig(**{
        **COMMON, "data": BlobsConfig(3, 4.0, 0.8, n=600), "rho": 0.9,
        "oracle_flip": 0.2, "oracle_label_std": 0.0,
        "student_loss": Loss("plain_ce"), "master_seed": seed, **kw})


def reg_config(seed=0, **kw):
    return PipelineConfig(**{
        **COMMON, "data": RingConfig(noise_std=0.1, n=600), "rho": 0.7,
        "oracle_flip": 0.0, "oracle_label_std": 0.08,
        "student_loss": Loss("plain_se"), "master_seed": seed, **kw})


def fake_m2_like(real, n):
    g = np.random.default_rng(0)
    idx = g.integers(0, real.n, size=n)
    return Dataset(real.task, real.features[idx], real.labels[idx])


def test_augment_counts_and_provenance():
    real = make_classification(BlobsConfig(2, 4.0, 0.5, n=800, seed=0))
    fakes = fake_m2_like(real, 1200)
    d_aug = augment(real, fakes)
    assert d_aug.n == 2000
    assert np.array_equal(d_aug.features[:800], real.features)
    assert np.array_equal(d_aug.labels[800:], fakes.labels)


def test_augment_empty_fakes_is_identity():
    real = make_classification(BlobsConfig(2, 4.0, 0.5, n=100, seed=1))
    empty = fake_m2_like(real, 10).subset(np.zeros(10, dtype=bool))
    d_aug = augment(real, empty)
    assert np.array_equal(d_aug.features, real.features)
    assert d_aug.n == real.n


def test_augment_task_mismatch_rejected():
    real = make_classification(BlobsConfig(2, 4.0, 0.5, n=100, seed=2))
    other = make_regression(RingConfig(n=50, seed=0))
    with pytest.raises(ValueError, match="disagree"):
        augment(real, other)


def test_train_student_blkd_lambda_zero_matches_plain():
    real = make_classification(BlobsConfig(2, 4.0, 0.5, n=200, seed=3))
    cfg = TrainConfig(20, 0.05)
    teacher = nncore.init_params(
        nncore.NetSpec(2, (8,), "logits", 2), 9)
    plain = train_student(real, (8,), cfg, Loss("plain_ce"), seed=5,
                          teacher=teacher)
    # lambda 0 at unit temperature reduces the combined loss to the hard term
    blkd = train_student(real, (8,), cfg, Loss("blkd", lam=0.0,
                                               temperature=1.0),
                         seed=5, teacher=teacher)
    for wa, wb in zip(plain.weights, blkd.weights):
        assert np.array_equal(wa, wb)


def test_train_student_blkd_requires_teacher_and_classification():
    real = make_classification(BlobsConfig(2, 4.0, 0.5, n=100, seed=4))
    with pytest.raises(ValueError, match="teacher"):
        train_student(real, (8,), TrainConfig(5, 0.05),
                      Loss("blkd", lam=0.5), seed=0)
    reg = make_regression(RingConfig(n=100, seed=1))
    teacher = nncore.init_params(nncore.NetSpec(2, (8,), "nonneg_scalar"), 0)
    with pytest.raises(ValueError,
                       match="blkd loss does not fit a regression task"):
        train_student(reg, (8,), TrainConfig(5, 0.05),
                      Loss("blkd", lam=0.5), seed=0, teacher=teacher)


def test_pipeline_deterministic():
    a = run_pipelines([cls_config(seed=11)])[0]
    b = run_pipelines([cls_config(seed=11)])[0]
    assert a.metrics["full"] == b.metrics["full"]
    assert a.metrics["nokd"] == b.metrics["nokd"]
    assert a.metrics["teacher"] == b.metrics["teacher"]
    assert a.m_fake == b.m_fake and a.theta == b.theta


def test_pipeline_rho_zero_is_nokd():
    report = run_pipelines([cls_config(seed=12, rho=0.0)])[0]
    assert report.m_fake == 0
    assert report.theta == 1.0
    assert report.metrics["full"] == report.metrics["nokd"]


def test_pipeline_theta_bookkeeping():
    report = run_pipelines([cls_config(seed=13)])[0]
    assert report.theta == report.n_real / (report.n_real + report.m_fake)
    assert report.n_fake == 900
    assert 0 < report.m_fake <= report.n_fake


def test_pipeline_fake_cap():
    report = run_pipelines([cls_config(seed=14, fake_cap=100)])[0]
    assert report.m_fake == 100
    assert report.theta == report.n_real / (report.n_real + 100)


def test_pipeline_regression_runs():
    report = run_pipelines([reg_config(seed=15)])[0]
    assert report.metrics["full"].mae is not None
    assert report.metrics["nokd"].mae is not None
    assert report.m_fake == 630  # 0.7 of 900


def test_pipeline_stage_error_names_stage(monkeypatch):
    def broken(dataset, train_fraction, seed):
        raise ValueError("split exploded")
    monkeypatch.setattr(m3_distill, "split", broken)
    config = cls_config(seed=16)
    with pytest.raises(StageError, match="'data'"):
        run_pipelines([config])
    assert "timings" not in config.__dict__  # config untouched


def test_config_rejects_data_too_small_to_split():
    with pytest.raises(ValueError, match="class 2 has too few rows"):
        cls_config(data=BlobsConfig(3, 4.0, 0.8, n=5))
    with pytest.raises(ValueError, match="the dataset has too few rows"):
        reg_config(data=RingConfig(n=1))


def test_pipeline_checkpoints(tmp_path):
    run_pipelines([cls_config(seed=17)], checkpoint_dir=str(tmp_path))
    for name in ("train.txt", "eval.txt", "teacher.txt", "student_nokd.txt",
                 "generator.txt", "fakes_m1.txt", "fakes_m2.txt",
                 "student.txt"):
        assert os.path.exists(tmp_path / name), name


def test_pipeline_nan_teacher_errors_fail_stage_m2(monkeypatch):
    monkeypatch.setattr(m2_labeladjust, "_errors",
                        lambda outputs, fakes: np.full(fakes.n, np.nan))
    with pytest.raises(StageError, match="'m2'.*non-finite"):
        run_pipelines([reg_config(seed=20)])


# overlapping blobs, so that top-1 tells different students apart
_ABLATION_CLS = dict(seed=21, data=BlobsConfig(3, 2.0, 1.0, n=600))


@pytest.mark.parametrize("config", [
    cls_config(**_ABLATION_CLS, fake_cap=0, student_loss=Loss("plain_ce")),
    reg_config(seed=21, fake_cap=0, student_loss=Loss("plain_se")),
    cls_config(**_ABLATION_CLS, fake_cap=0,
               student_loss=Loss("blkd", lam=0.5, temperature=5.0)),
    cls_config(**_ABLATION_CLS, fake_cap=200, student_loss=Loss("plain_ce")),
    reg_config(seed=21, fake_cap=200, student_loss=Loss("plain_se")),
], ids=["classification", "regression", "classification-blkd",
        "classification-capped", "regression-capped"])
def test_ablation_full_equals_pipeline_student(config, monkeypatch):
    # Every ablation variant trains the run's student, under its loss and
    # cap, so the last variant is the pipeline's student.
    train_rows = []

    def recording(d_aug, *args, **kwargs):
        train_rows.append(d_aug.n)
        return train_student(d_aug, *args, **kwargs)

    monkeypatch.setattr(m3_distill, "train_student", recording)
    ablation = run_pipelines([config], ABLATION_VARIANTS)[0].metrics
    monkeypatch.undo()
    report = run_pipelines([config])[0]
    assert ablation["full"] == report.metrics["full"]
    if config.data.task.kind == "classification":
        assert ablation["m1m2"] == ablation["full"]
    assert len(train_rows) == len(ABLATION_VARIANTS)
    if config.fake_cap:
        assert max(train_rows) <= report.n_real + config.fake_cap


def test_ablation_variants_and_determinism():
    a = run_pipelines([cls_config(seed=18)], ABLATION_VARIANTS)[0].metrics
    b = run_pipelines([cls_config(seed=18)], ABLATION_VARIANTS)[0].metrics
    assert tuple(a) == ABLATION_VARIANTS
    assert a == b
    # classification has no replacement step: last two variants coincide
    assert a["m1m2"] == a["full"]


def test_ablation_regression_full_differs_by_replacement_only():
    out = run_pipelines([reg_config(seed=19)], ABLATION_VARIANTS)[0].metrics
    assert set(out) == set(ABLATION_VARIANTS)
    for metrics in out.values():
        assert metrics.mae is not None
