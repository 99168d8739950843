import numpy as np
import pytest

from cgankd import cgen, m1_subsample, rng
from cgankd.cgen import empirical_labels
from cgankd.m1_subsample import (DensityRatioModel, ratio_batch,
                                 rejection_sample, train_dr)
from cgankd.nncore import NetSpec, TrainConfig
from cgankd.synthdata import (BlobsConfig, ClassificationTask, Dataset,
                              label_groups, make_classification)
from nn_oracles import constant_labels, layers


def ratio(model, sample):
    """Ratio estimate for a single (features, label) pair."""
    features, label = sample
    arr = np.asarray(features, dtype=np.float64)[None, :]
    return float(ratio_batch(model, arr, np.asarray([label]))[0])


def fixed_odds_model(logit_diff, prior_correction=1.0, task=None, in_dim=3):
    """DR model whose classifier emits a constant logit difference."""
    task = task or ClassificationTask(2)
    spec = NetSpec(in_dim + 2, (1,), "logits", 2)
    net = layers(spec,
                 [np.zeros((1, in_dim + 2)), np.zeros((2, 1))],
                 [np.zeros(1), np.array([0.0, logit_diff])])
    return DensityRatioModel(net, prior_correction, m_max=1.0, task=task)


def test_ratio_odds_identity_half():
    # discriminator output 0.5 with balanced priors -> ratio 1
    model = fixed_odds_model(0.0)
    assert ratio(model, (np.zeros(3), 0)) == pytest.approx(1.0)


def test_ratio_odds_identity_point8():
    # p_hat = 0.8 -> odds 4
    model = fixed_odds_model(np.log(4.0))
    assert ratio(model, (np.zeros(3), 1)) == pytest.approx(4.0)


def test_ratio_prior_correction():
    model = fixed_odds_model(0.0, prior_correction=2.5)
    assert ratio(model, (np.zeros(3), 0)) == pytest.approx(2.5)


def dr_config(seed=0, epochs=60):
    """The (hidden, train_cfg, gamma, seed) arguments of `train_dr`."""
    return (16,), TrainConfig(epochs, 0.05, seed=seed), 1.2, seed


def make_blob_sets(seed, n=600, flip=0.0, junk=0.0):
    base = BlobsConfig(2, 4.0, 0.6, n=n, seed=seed)
    real = make_classification(base)
    oracle = cgen.CorruptedOracle(BlobsConfig(2, 4.0, 0.6), flip_prob=flip,
                                  junk_prob=junk, junk_spread=40.0)
    labels = np.arange(n) % 2
    fake = cgen.sample(oracle, labels, seed=seed + 1000)
    return real, fake, oracle


def test_train_dr_identical_distributions_median_near_one():
    real, fake, oracle = make_blob_sets(seed=0)
    model = train_dr(real, fake, *dr_config(seed=0))
    held = cgen.sample(oracle, np.arange(500) % 2, seed=77)
    ratios = ratio_batch(model, held.features, held.labels)
    assert 0.5 <= np.median(ratios) <= 2.0


def test_train_dr_junk_gets_low_ratios():
    real, fake, oracle = make_blob_sets(seed=1, junk=0.3)
    model = train_dr(real, fake, *dr_config(seed=1))
    held = cgen.sample(oracle, np.arange(1000) % 2, seed=88)
    ratios = ratio_batch(model, held.features, held.labels)
    from cgankd.synthdata import blob_centers
    mu = blob_centers(BlobsConfig(2, 4.0, 0.6))
    dist = np.linalg.norm(held.features[:, None] - mu[None], axis=2).min(axis=1)
    junk_mask = dist > 5 * 4.0
    assert junk_mask.any() and (~junk_mask).any()
    cutoff = np.percentile(ratios[~junk_mask], 10)
    assert np.mean(ratios[junk_mask] < cutoff) > 0.9


def test_train_dr_deterministic():
    real, fake, _ = make_blob_sets(seed=2)
    a = train_dr(real, fake, *dr_config(seed=3))
    b = train_dr(real, fake, *dr_config(seed=3))
    for wa, wb in zip(a.net.weights, b.net.weights):
        assert np.array_equal(wa, wb)
    assert a.m_max == b.m_max


def test_trained_ratio_matches_closed_form_on_two_point_space():
    # exact discrete ratio oracle: p_fake = {0.5, 0.5}, p_real = {0.9, 0.1}
    # on two feature points; true ratios are {1.8, 0.2}
    task = ClassificationTask(2)
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])

    def draws(key_seed, probs, n):
        from cgankd import rng
        u = rng.uniforms(rng.derive_key("twopoint", key_seed),
                         np.arange(n, dtype=np.uint64))
        which = (u > probs[0]).astype(int)
        return pts[which], which

    n = 8000
    real_x, _ = draws(0, [0.9, 0.1], n)
    fake_x, _ = draws(1, [0.5, 0.5], n)
    labels = np.zeros(n, dtype=np.int64)
    real = Dataset(task, real_x, labels)
    fake = Dataset(task, fake_x, labels)
    cfg = TrainConfig(300, 0.02, lr_decay_epochs=(200,), seed=4)
    model = train_dr(real, fake, (16,), cfg, 1.2, 4)
    r0 = ratio(model, (pts[0], 0))
    r1 = ratio(model, (pts[1], 0))
    assert abs(r0 - 1.8) / 1.8 < 0.10
    assert abs(r1 - 0.2) / 0.2 < 0.10


def two_point_generator(labels, seed, indices):
    from cgankd import rng
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    u = rng.uniforms(rng.derive_key("twopoint-gen"),
                     np.asarray(indices, dtype=np.uint64))
    return pts[(u > 0.5).astype(int)]


def test_rejection_constant_ratio_passes_through():
    task = ClassificationTask(2)
    out = rejection_sample(two_point_generator, task,
                           lambda f, l: np.full(len(l), 2.0), m_max=2.0,
                           label_source=constant_labels(0), n_target=5000,
                           seed=0)
    # constant ratio: acceptance uniform, output matches generator (50/50)
    frac = np.mean(out.features[:, 0] == 1.0)
    assert abs(frac - 0.5) < 0.02
    assert out.n == 5000


def test_rejection_two_point_exact_ratios_recover_target():
    # brute-force arithmetic: ratios {1.8, 0.2}, M=1.8 -> acceptance {1, 1/9};
    # accepted distribution should be {0.9, 0.1} within TV 0.02
    task = ClassificationTask(2)

    def exact_ratio(feats, labels):
        return np.where(feats[:, 0] == 0.0, 1.8, 0.2)

    out = rejection_sample(two_point_generator, task, exact_ratio, m_max=1.8,
                           label_source=constant_labels(0), n_target=50_000,
                           seed=1)
    p0 = np.mean(out.features[:, 0] == 0.0)
    tv = abs(p0 - 0.9)  # two-point TV = half L1 = one-sided gap
    assert tv < 0.02


def test_rejection_acceptance_collapse_aborts():
    task = ClassificationTask(2)
    with pytest.raises(RuntimeError, match="acceptance rate collapsed"):
        rejection_sample(two_point_generator, task,
                         lambda f, l: np.full(len(l), 1e-7), m_max=1.0,
                         label_source=constant_labels(0), n_target=10, seed=2)


def test_rejection_above_collapse_rate_runs_past_one_window():
    # 3e-4 accepts ~60 of one window's candidates: above the collapse rate,
    # so the window resets and the draw goes on to n_target
    task = ClassificationTask(2)
    drawn = []

    def counted(labels, seed, indices):
        drawn.append(len(indices))
        return two_point_generator(labels, seed, indices)

    out = rejection_sample(counted, task, lambda f, l: np.full(len(l), 3e-4),
                           m_max=1.0, label_source=constant_labels(0),
                           n_target=70, seed=2)
    assert out.n == 70
    assert sum(drawn) > m1_subsample._COLLAPSE_WINDOW


def test_rejection_label_sources():
    task = ClassificationTask(4)
    out = rejection_sample(two_point_generator, task,
                           lambda f, l: np.ones(len(l)), m_max=1.0,
                           label_source=constant_labels(3), n_target=100,
                           seed=3)
    assert np.all(out.labels == 3)

    train = make_classification(BlobsConfig(4, 4.0, 0.5, n=400, seed=0))
    src = empirical_labels(train.labels, rng.derive_key("reject-labels", 4))
    labels = src(np.arange(4000))
    counts = np.bincount(labels, minlength=4)
    assert np.max(np.abs(counts - 1000)) < 150


def test_empirical_labels_of_one_class_are_that_class():
    # M1 draws each class's labels from that class's training rows, which
    # reproduces a constant label source draw for draw.
    train = make_classification(BlobsConfig(3, 4.0, 0.5, n=90, seed=1))
    for (c,), idx in label_groups(train.task, train.labels):
        labels = empirical_labels(train.labels[idx], rng.derive_key(
            "reject-labels", 5))(np.arange(500))
        assert labels.dtype == np.int64
        assert np.array_equal(labels, np.full(500, c))
        assert np.array_equal(labels, constant_labels(c)(np.arange(500)))
