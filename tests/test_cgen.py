from dataclasses import fields, replace

import numpy as np
import pytest

from cgankd import cgen, modelio, rng
from cgankd.cgen import (CorruptedOracle, GanTrainConfig, sample,
                         sample_features, sample_labels, train_cgan)
from cgankd.synthdata import (BlobsConfig, RingConfig, blob_centers,
                              make_classification, make_regression, parse_kv)
from nn_oracles import (reference_bce_logit_loss_and_grad,
                        reference_train_cgan, ring_true_label)


BASE = BlobsConfig(3, 4.0, 0.5)


def test_oracle_clean_matches_base_family_moments():
    handle = CorruptedOracle(BASE)
    labels = np.repeat(np.arange(3), 2000)
    ds = sample(handle, labels, seed=0)
    mu = blob_centers(BASE)
    for c in range(3):
        got = ds.features[ds.labels == c].mean(axis=0)
        assert np.linalg.norm(got - mu[c]) < 3 * BASE.noise_std / np.sqrt(2000) * 4
    # class-conditional spread matches noise_std
    spread = ds.features[ds.labels == 0].std(axis=0)
    assert np.max(np.abs(spread - BASE.noise_std)) < 0.05


def test_oracle_assigned_label_fidelity():
    handle = CorruptedOracle(BASE, flip_prob=0.5, junk_prob=0.5,
                             junk_spread=50.0)
    labels = np.array([0, 2, 1, 1])
    ds = sample(handle, labels, seed=1)
    assert np.array_equal(ds.labels, labels)


def test_oracle_flip_rate_recoverable():
    # measured flip rate within a 99% binomial interval over 10,000 draws
    flip = 0.2
    handle = CorruptedOracle(BASE, flip_prob=flip)
    n = 10_000
    labels = np.repeat(np.arange(3), n // 3 + 1)[:n]
    ds = sample(handle, labels, seed=2)
    mu = blob_centers(BASE)
    d = np.linalg.norm(ds.features[:, None] - mu[None], axis=2)
    true_class = d.argmin(axis=1)
    measured = np.mean(true_class != ds.labels)
    half_width = 2.576 * np.sqrt(flip * (1 - flip) / n)
    assert abs(measured - flip) <= half_width


def test_oracle_junk_everything_off_manifold():
    # Gaussian tail: with spread 25*separation, P(radius > 5*separation)
    # = exp(-(5*sep)^2 / (2*spread^2)) = exp(-0.02) = 0.98
    handle = CorruptedOracle(BASE, junk_prob=1.0,
                             junk_spread=25 * BASE.separation)
    labels = np.zeros(500, dtype=np.int64)
    ds = sample(handle, labels, seed=3)
    mu = blob_centers(BASE)
    d = np.linalg.norm(ds.features[:, None] - mu[None], axis=2).min(axis=1)
    assert np.mean(d > 5 * BASE.separation) > 0.95


def test_oracle_regression_label_noise():
    base = RingConfig(noise_std=0.0)
    handle = CorruptedOracle(base, label_gauss_std=0.1)
    labels = np.full(5000, 0.5)
    ds = sample(handle, labels, seed=4)
    y_true = ring_true_label(ds.features)
    err = y_true - 0.5
    assert abs(err.std() - 0.1) < 0.01
    assert abs(err.mean()) < 0.01


def where_junk_features(handle, labels, seed, idx):
    """The oracle's features from whole-batch draws: junk noise for every
    row, kept where the row is junk."""
    clean = sample_features(replace(handle, junk_prob=0.0), labels, seed, idx)
    u_junk = rng.uniforms(rng.derive_key("oracle-junk", seed), idx)
    junk = handle.junk_spread * rng.row_normals(
        rng.derive_key("oracle-junk-x", seed), idx, handle.dim)
    return np.where((u_junk < handle.junk_prob)[:, None], junk, clean)


@pytest.mark.parametrize("junk_prob", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("handle, labels", [
    (CorruptedOracle(BASE, flip_prob=0.3, junk_spread=30.0),
     np.arange(3000) % 3),
    (CorruptedOracle(RingConfig(), label_gauss_std=0.1, junk_spread=30.0),
     np.linspace(0.0, 1.0, 3000)),
], ids=["blobs", "ring"])
def test_oracle_draws_junk_rows_alone_bit_for_bit(handle, labels, junk_prob):
    handle = replace(handle, junk_prob=junk_prob)
    idx = np.arange(1000, 4000)
    got = sample_features(handle, labels, 8, idx)
    want = where_junk_features(handle, labels, 8, idx)
    assert got.tobytes() == want.tobytes()


def test_sample_prefix_property():
    handle = CorruptedOracle(BASE, flip_prob=0.3, junk_prob=0.2,
                             junk_spread=30.0)
    labels = np.arange(100) % 3
    full = sample(handle, labels, seed=5)
    short = sample(handle, labels[:10], seed=5)
    assert np.array_equal(full.features[:10], short.features)


def test_sample_deterministic():
    handle = CorruptedOracle(BASE, flip_prob=0.3)
    labels = np.arange(50) % 3
    a = sample(handle, labels, seed=6)
    b = sample(handle, labels, seed=6)
    assert np.array_equal(a.features, b.features)
    c = sample(handle, labels, seed=7)
    assert not np.array_equal(a.features, c.features)


def test_sample_labels_single_class():
    ds = make_classification(BlobsConfig(2, 4.0, 0.5, n=20, seed=0))
    ds = ds.subset(ds.labels == 1)
    out = sample_labels(ds, 50, seed=0)
    assert np.all(out == 1)


def test_sample_labels_balanced_counts():
    ds = make_classification(BlobsConfig(4, 4.0, 0.5, n=4000, seed=1))
    out = sample_labels(ds, 4000, seed=1)
    counts = np.bincount(out, minlength=4)
    sigma = np.sqrt(4000 * 0.25 * 0.75)
    assert np.max(np.abs(counts - 1000)) < 3 * sigma


def test_sample_labels_deterministic():
    ds = make_classification(BlobsConfig(3, 4.0, 0.5, n=300, seed=2))
    a = sample_labels(ds, 100, seed=3)
    b = sample_labels(ds, 100, seed=3)
    assert np.array_equal(a, b)


def test_cgan_zero_iterations_is_initialization():
    ds = make_classification(BlobsConfig(2, 4.0, 0.25, n=200, seed=0))
    cfg = GanTrainConfig(iterations=0, seed=1)
    handle = train_cgan(ds, cfg)
    from cgankd.nncore import init_params
    fresh = init_params(handle.generator.spec, rng.derive_key("cgan-g", 1))
    for a, b in zip(handle.generator.weights, fresh.weights):
        assert np.array_equal(a, b)


def test_cgan_deterministic():
    ds = make_classification(BlobsConfig(2, 4.0, 0.25, n=200, seed=0))
    cfg = GanTrainConfig(iterations=50, seed=2)
    a = train_cgan(ds, cfg)
    b = train_cgan(ds, cfg)
    for wa, wb in zip(a.generator.weights, b.generator.weights):
        assert np.array_equal(wa, wb)


def test_cgan_output_dim_matches_data():
    ds = make_regression(RingConfig(n=200, seed=0))
    handle = train_cgan(ds, GanTrainConfig(iterations=20, seed=0))
    out = sample(handle, np.full(7, 0.5), seed=0)
    assert out.features.shape == (7, 2)


def test_gan_noise_fits_in_one_rng_row():
    GanTrainConfig(iterations=1, noise_dim=rng.ROW_LANES)
    with pytest.raises(ValueError, match="noise_dim must be at most 64"):
        GanTrainConfig(iterations=1, noise_dim=rng.ROW_LANES + 1)


def test_cgan_learns_blob_means():
    # moment-matching oracle: per-class generated mean close to the true one
    base = BlobsConfig(2, 4.0, 0.25, n=400, seed=3)
    ds = make_classification(base)
    handle = train_cgan(ds, GanTrainConfig(iterations=3000, seed=4))
    labels = np.repeat(np.arange(2), 1000)
    out = sample(handle, labels, seed=5)
    mu = blob_centers(base)
    for c in range(2):
        got = out.features[out.labels == c].mean(axis=0)
        assert np.linalg.norm(got - mu[c]) < 3 * base.noise_std


def test_generator_roundtrip_oracle(tmp_path):
    ring = RingConfig(noise_std=0.2)
    for base, family in ((BASE, "blobs"), (ring, "ring")):
        handle = CorruptedOracle(base, flip_prob=0.1, label_gauss_std=0.05,
                                 junk_prob=0.2, junk_spread=30.0)
        path = tmp_path / "gen.txt"
        cgen.save_generator(handle, path)
        lines = path.read_text().splitlines()
        assert lines[0] == cgen.GENERATOR_HEADER
        kv = parse_kv(lines[1:])
        # every field but the base family's dataset size and seed
        want = {"kind": "oracle", "family": family}
        for config in (base, handle):
            want.update((f.name, getattr(config, f.name))
                        for f in fields(config)
                        if f.name not in ("n", "seed", "base"))
        assert list(kv) == list(want)
        for key, value in want.items():
            assert type(value)(kv[key]) == value, key


def _floats(text):
    return np.array([float(v) for v in text.split(",")])


def test_generator_roundtrip_cgan(tmp_path):
    ds = make_classification(BlobsConfig(2, 4.0, 0.25, n=100, seed=0))
    handle = train_cgan(ds, GanTrainConfig(iterations=10, seed=0))
    path = tmp_path / "gen.txt"
    cgen.save_generator(handle, path)
    lines = path.read_text().splitlines()
    assert lines[0] == cgen.GENERATOR_HEADER
    start = lines.index(modelio.MODEL_HEADER)
    assert parse_kv(lines[1:start]) == {
        "kind": "cgan", "noise_dim": "4", "dim": "2",
        "task": "classification C=2"}
    model, net = parse_kv(lines[start + 1:]), handle.generator
    spec = net.spec
    assert list(model)[:4] == ["input_dim", "hidden", "output_kind",
                               "n_outputs"]
    assert int(model["input_dim"]) == spec.input_dim == 6
    assert tuple(map(int, model["hidden"].split(","))) == spec.hidden_widths
    assert model["output_kind"] == spec.output_kind
    assert int(model["n_outputs"]) == spec.n_outputs
    assert len(model) == 4 + 2 * len(net.weights)
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        assert _floats(model[f"W{l}"]).tobytes() == w.tobytes()
        assert _floats(model[f"b{l}"]).tobytes() == b.tobytes()


@pytest.mark.parametrize("ds", [
    make_classification(BlobsConfig(3, 4.0, 0.5, n=150, seed=1)),
    make_regression(RingConfig(n=150, seed=1))], ids=["blobs", "ring"])
def test_train_cgan_matches_reference_loop_bit_for_bit(ds):
    # batch 37 does not divide the 150 rows
    cfg = GanTrainConfig(iterations=300, batch_size=37, seed=2)
    got, want = train_cgan(ds, cfg), reference_train_cgan(ds, cfg)
    for a, b in zip(got.generator.weights + got.generator.biases,
                    want.generator.weights + want.generator.biases):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("target", [0.0, 1.0])
def test_bce_loss_is_nonfinite_exactly_when_the_reference_is(target):
    g = np.random.default_rng(0)
    grad = np.empty((6, 1))
    specials = (np.inf, -np.inf, np.nan, 800.0, -800.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for special in (None,) + specials:
            logits = g.normal(size=(6, 1)) * 5.0
            if special is not None:
                logits[3, 0] = special
            got = cgen._bce_logit_loss_and_grad(logits, target, grad)
            want, want_grad = reference_bce_logit_loss_and_grad(logits, target)
            assert np.isfinite(got) == np.isfinite(want), special
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(grad, want_grad, equal_nan=True)


def test_train_cgan_diverges_at_the_reference_iteration():
    ds = make_regression(RingConfig(n=150, seed=0))
    # lr_d 1e20 blows the discriminator's logits past the float range by
    # iteration 2, with D fake and G NaN.
    cfg = GanTrainConfig(iterations=200, lr_d=1e20, seed=0)
    with np.errstate(all="ignore"):
        with pytest.raises(RuntimeError) as want:
            reference_train_cgan(ds, cfg)
        with pytest.raises(RuntimeError, match="at iteration 2:") as got:
            train_cgan(ds, cfg)
    assert str(got.value) == str(want.value)
