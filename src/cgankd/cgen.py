"""Conditional generators producing fake sample sets.

Two kinds of handle:

* ``TrainedCgan`` -- a toy conditional GAN (MLP generator and discriminator,
  non-saturating logistic loss, label conditioning by concatenation).
* ``CorruptedOracle`` -- samples the true synthetic family but injects
  defects at known, configurable rates: label-inconsistent features
  (flip_prob / label_gauss_std) and off-manifold junk features (junk_prob,
  junk_spread).  It exists so downstream cleaning stages can be tested
  against ground-truth defect rates.

Sampling is pure in (handle, labels, seed, index): requesting a prefix of a
stream yields a prefix of the longer stream.  `save_generator` writes a
handle for inspection; `cgankd run <manifest>` rebuilds it bit for bit, so
nothing reads the file back.
"""

import math
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from . import modelio, rng, synthdata
from .nncore import NetParams, NetSpec, SgdState, Workspace, backward, \
    forward_batch, _forward, _layer_views, frozen_params, init_params, \
    input_gradient, memoized, one_hot
from .synthdata import BlobsConfig, Dataset, SynthConfig, kv_lines

GENERATOR_HEADER = "cgankd-generator v1"
# Generator and discriminator hidden widths, and the SGD momentum of both.
GAN_HIDDEN_G = (32, 32)
GAN_HIDDEN_D = (32, 32)
GAN_MOMENTUM = 0.5


@dataclass(frozen=True)
class GanTrainConfig:
    iterations: int
    batch_size: int = 64
    lr_g: float = 0.02
    lr_d: float = 0.05
    noise_dim: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 0 or self.noise_dim < 1 or self.batch_size < 1:
            raise ValueError("GAN config values must be positive")
        if self.noise_dim > rng.ROW_LANES:
            raise ValueError(f"noise_dim must be at most {rng.ROW_LANES}")
        if self.lr_g <= 0 or self.lr_d <= 0:
            raise ValueError("GAN learning rates must be positive")


@dataclass
class TrainedCgan:
    generator: NetParams  # input: noise ++ label encoding, linear output = features
    noise_dim: int
    task: object
    dim: int


@dataclass(frozen=True)
class CorruptedOracle:
    base: SynthConfig
    flip_prob: float = 0.0       # classification: features from a wrong class
    label_gauss_std: float = 0.0  # regression: features from a perturbed label
    junk_prob: float = 0.0
    junk_spread: float = 0.0

    def __post_init__(self):
        for p in (self.flip_prob, self.junk_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")
        for name in ("label_gauss_std", "junk_spread"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def task(self):
        return self.base.task

    @property
    def dim(self):
        return self.base.dim


GeneratorHandle = Union[TrainedCgan, CorruptedOracle]


def label_encoding(task, labels: np.ndarray) -> np.ndarray:
    """(n, enc_dim) conditioning block: one-hot classes or raw scalar."""
    if task.kind == "classification":
        return one_hot(labels, task.n_classes)
    return np.asarray(labels, dtype=np.float64)[:, None]


def conditioned(task, x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The rows of `x`, each followed by its label's encoding: the input
    layout of the generator, the discriminator and the density-ratio net."""
    return np.hstack([x, label_encoding(task, labels)])


def encoding_dim(task) -> int:
    return task.n_classes if task.kind == "classification" else 1


def empirical_draw(pool: np.ndarray, key: int, counters) -> np.ndarray:
    """One entry of the sorted label `pool` per counter, each equally
    likely; pure in (key, counter)."""
    u = rng.uniforms(key, np.asarray(counters, dtype=np.uint64))
    return pool[np.minimum((u * len(pool)).astype(np.int64), len(pool) - 1)]


def sample_labels(train_set: Dataset, n: int, seed: int) -> np.ndarray:
    """Draw n labels from the empirical label distribution (with replacement)."""
    if train_set.n == 0:
        raise ValueError("empty training set")
    if n <= 0:
        raise ValueError("n must be positive")
    return empirical_draw(np.sort(train_set.labels),
                          rng.derive_key("labels", seed), np.arange(n))


def _oracle_features(handle: CorruptedOracle, labels: np.ndarray, seed: int,
                     indices: np.ndarray) -> np.ndarray:
    base = handle.base
    idx = np.asarray(indices, dtype=np.uint64)
    if base.task.kind == "classification":
        C = base.n_classes
        u_flip = rng.uniforms(rng.derive_key("oracle-flip", seed), idx)
        u_pick = rng.uniforms(rng.derive_key("oracle-pick", seed), idx)
        shift = 1 + np.minimum((u_pick * (C - 1)).astype(np.int64), C - 2)
        wrong = (labels + shift) % C
        true_class = np.where(u_flip < handle.flip_prob, wrong, labels)
        feats = synthdata.blob_features(base, true_class,
                                        rng.derive_key("oracle-x", seed), idx)
    else:
        eps = rng.normals(rng.derive_key("oracle-y", seed), idx)
        y_true = np.clip(labels + handle.label_gauss_std * eps, 0.0, 1.0)
        feats = synthdata.ring_features(base, y_true,
                                        rng.derive_key("oracle-x", seed), idx)
    if handle.junk_prob > 0.0:
        u_junk = rng.uniforms(rng.derive_key("oracle-junk", seed), idx)
        junk = u_junk < handle.junk_prob
        feats[junk] = handle.junk_spread * rng.row_normals(
            rng.derive_key("oracle-junk-x", seed), idx[junk], handle.dim)
    return feats


def _cgan_features(handle: TrainedCgan, labels: np.ndarray, seed: int,
                   indices: np.ndarray) -> np.ndarray:
    z = rng.row_normals(rng.derive_key("cgan-noise", seed), indices,
                        handle.noise_dim)
    return forward_batch(handle.generator, conditioned(handle.task, z, labels))


def sample_features(handle: GeneratorHandle, labels: np.ndarray, seed: int,
                    indices: np.ndarray) -> np.ndarray:
    """Features for the given stream positions; pure per (seed, index)."""
    labels = np.asarray(labels)
    if isinstance(handle, CorruptedOracle):
        return _oracle_features(handle, labels, seed, indices)
    return _cgan_features(handle, labels, seed, indices)


def sample(handle: GeneratorHandle, labels, seed: int) -> Dataset:
    """One fake sample per requested label."""
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise ValueError("labels must be non-empty")
    feats = sample_features(handle, labels, seed, np.arange(len(labels)))
    return Dataset(handle.task, feats, labels)


def _bce_logit_loss_and_grad(logits: np.ndarray, target: float,
                             grad: np.ndarray) -> float:
    """Mean logistic loss toward a constant 0/1 target; d/dlogit is
    written into `grad`, shape (n, 1)."""
    l = logits[:, 0]
    n = len(l)
    # softplus written stably; 1.0 * l is exact, but 0.0 * l keeps the NaN
    # that an infinite logit gives
    terms = np.logaddexp(0.0, l)
    terms -= l if target else 0.0 * l
    p = np.negative(l, out=grad[:, 0])
    np.exp(p, out=p)
    p += 1.0
    np.divide(1.0, p, out=p)
    p -= target
    p /= n
    return float(np.add.reduce(terms)) / n


def train_cgan(train_set: Dataset, config: GanTrainConfig) -> TrainedCgan:
    """Alternating non-saturating GAN updates; deterministic per seed.

    Each network pass runs through a workspace kept for the whole loop,
    and the generator and discriminator inputs are built in buffers whose
    label columns are written once per iteration.  The generator's
    parameters are read-only (see `nncore.frozen_params`).  Inside
    `nncore.reuse_training` a repeat of the same training set and config
    returns the first result.
    """
    return memoized("train_cgan", [train_set, config],
                    lambda: _train_cgan(train_set, config))


def _train_cgan(train_set: Dataset, config: GanTrainConfig) -> TrainedCgan:
    """`train_cgan` without the memo."""
    if train_set.n == 0:
        raise ValueError("empty training set")
    task, d = train_set.task, train_set.dim
    enc_dim = encoding_dim(task)
    g_spec = NetSpec(config.noise_dim + enc_dim, GAN_HIDDEN_G, "linear", d)
    d_spec = NetSpec(d + enc_dim, GAN_HIDDEN_D, "linear", 1)
    gen = init_params(g_spec, rng.derive_key("cgan-g", config.seed))
    dis = init_params(d_spec, rng.derive_key("cgan-d", config.seed))
    opt_g = SgdState(g_spec, gen.theta, GAN_MOMENTUM)
    opt_d = SgdState(d_spec, dis.theta, GAN_MOMENTUM)
    # The discriminator's fake-batch gradient, added to its real-batch one.
    d_fake = np.empty_like(opt_d.grad)
    d_fake_grads = _layer_views(d_spec, d_fake)
    size, nz = config.batch_size, config.noise_dim
    ws_real, ws_fake = (Workspace(d_spec, size) for _ in range(2))
    ws_gen = Workspace(g_spec, size)
    # Inputs: real (features, label) rows, generator (noise, label) rows and
    # fake (generated features, label) rows; the logit gradient.
    real_all = conditioned(task, train_set.features, train_set.labels)
    xr, gin, xf = (np.empty((size, w)) for w in (d + enc_dim, nz + enc_dim,
                                                  d + enc_dim))
    grad = np.empty((size, 1))
    g = rng.generator(rng.derive_key("cgan-train", config.seed))
    for it in range(config.iterations):
        idx = g.integers(0, train_set.n, size=size)
        np.take(real_all, idx, axis=0, out=xr)
        gin[:, nz:] = xf[:, d:] = xr[:, d:]
        # discriminator step: real up, fake down
        gin[:, :nz] = g.normal(size=(size, nz))
        fake = _forward(opt_g.params, gin, ws_gen)
        xf[:, :d] = fake
        out_r = _forward(opt_d.params, xr, ws_real)
        out_f = _forward(opt_d.params, xf, ws_fake)
        loss_r = _bce_logit_loss_and_grad(out_r, 1.0, grad)
        backward(opt_d.params, ws_real, grad, opt_d.grads)
        loss_f = _bce_logit_loss_and_grad(out_f, 0.0, grad)
        backward(opt_d.params, ws_fake, grad, d_fake_grads)
        opt_d.grad += d_fake
        opt_d.step(config.lr_d)
        # generator step: non-saturating, push D(G(z)) toward "real"
        gin[:, :nz] = g.normal(size=(size, nz))
        fake = _forward(opt_g.params, gin, ws_gen)
        xf[:, :d] = fake
        out_f = _forward(opt_d.params, xf, ws_fake)
        loss_g = _bce_logit_loss_and_grad(out_f, 1.0, grad)
        d_input = input_gradient(opt_d.params, ws_fake, grad)
        backward(opt_g.params, ws_gen, d_input[:, :d], opt_g.grads)
        opt_g.step(config.lr_g)
        if not (math.isfinite(loss_r) and math.isfinite(loss_f)
                and math.isfinite(loss_g)):
            raise RuntimeError(
                f"cgan training diverged at iteration {it}: non-finite loss "
                f"(D real {loss_r}, D fake {loss_f}, G {loss_g})")
    return TrainedCgan(frozen_params(g_spec, opt_g.theta), nz, task, d)


# Fields an oracle file leaves out: the dataset size and seed of the base
# family are not part of the generator, and `base` is written field by field.
_UNSAVED = ("n", "seed", "base")


def save_generator(handle: GeneratorHandle, path) -> None:
    if isinstance(handle, CorruptedOracle):
        family = "blobs" if isinstance(handle.base, BlobsConfig) else "ring"
        lines = kv_lines([("kind", "oracle"), ("family", family)] + [
            (f.name, getattr(config, f.name))
            for config in (handle.base, handle) for f in fields(config)
            if f.name not in _UNSAVED])
    else:
        lines = kv_lines([("kind", "cgan"), ("noise_dim", handle.noise_dim),
                          ("dim", handle.dim)])
        lines.append(synthdata.task_line(handle.task))
        lines.extend(modelio.netparams_lines(handle.generator))
    with open(path, "w") as f:
        f.write("\n".join([GENERATOR_HEADER] + lines) + "\n")

