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
stream yields a prefix of the longer stream.
"""

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import modelio, rng, synthdata
from .nncore import NetParams, NetSpec, SgdState, Workspace, backward, \
    forward_batch, _forward_cache, _layer_views, init_params, one_hot
from .synthdata import BlobsConfig, Dataset, RingConfig, SynthConfig

GENERATOR_HEADER = "cgankd-generator v1"


@dataclass(frozen=True)
class GanTrainConfig:
    iterations: int
    batch_size: int = 64
    lr_g: float = 0.02
    lr_d: float = 0.05
    noise_dim: int = 4
    hidden_g: tuple = (32, 32)
    hidden_d: tuple = (32, 32)
    momentum: float = 0.5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_g", tuple(self.hidden_g))
        object.__setattr__(self, "hidden_d", tuple(self.hidden_d))
        if min(self.iterations, self.batch_size, self.noise_dim) < 0 or \
                self.noise_dim < 1 or self.batch_size < 1:
            raise ValueError("GAN config values must be positive")
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

    @property
    def task(self):
        return self.base.task

    @property
    def dim(self):
        return self.base.dim


GeneratorHandle = Union[TrainedCgan, CorruptedOracle]


def make_oracle(base: SynthConfig, flip_prob=0.0, label_gauss_std=0.0,
                junk_prob=0.0, junk_spread=0.0) -> CorruptedOracle:
    return CorruptedOracle(base, flip_prob, label_gauss_std, junk_prob,
                           junk_spread)


def label_encoding(task, labels: np.ndarray) -> np.ndarray:
    """(n, enc_dim) conditioning block: one-hot classes or raw scalar."""
    if task.kind == "classification":
        return one_hot(labels, task.n_classes)
    return np.asarray(labels, dtype=np.float64)[:, None]


def encoding_dim(task) -> int:
    return task.n_classes if task.kind == "classification" else 1


def sample_labels(train_set: Dataset, n: int, seed: int) -> np.ndarray:
    """Draw n labels from the empirical label distribution (with replacement)."""
    if train_set.n == 0:
        raise ValueError("empty training set")
    if n <= 0:
        raise ValueError("n must be positive")
    key = rng.derive_key("labels", seed)
    u = rng.uniforms(key, np.arange(n, dtype=np.uint64))
    pool = np.sort(train_set.labels)
    return pool[np.minimum((u * len(pool)).astype(np.int64), len(pool) - 1)]


def _oracle_features(handle: CorruptedOracle, labels: np.ndarray, seed: int,
                     indices: np.ndarray) -> np.ndarray:
    base = handle.base
    idx = np.asarray(indices, dtype=np.uint64)
    d = handle.dim
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
        lanes = idx[:, None] * np.uint64(64) + np.arange(d, dtype=np.uint64)
        junk = handle.junk_spread * rng.normals(
            rng.derive_key("oracle-junk-x", seed), lanes)
        feats = np.where((u_junk < handle.junk_prob)[:, None], junk, feats)
    return feats


def _cgan_features(handle: TrainedCgan, labels: np.ndarray, seed: int,
                   indices: np.ndarray) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.uint64)
    lanes = idx[:, None] * np.uint64(64) + np.arange(handle.noise_dim,
                                                     dtype=np.uint64)
    z = rng.normals(rng.derive_key("cgan-noise", seed), lanes)
    enc = label_encoding(handle.task, labels)
    return forward_batch(handle.generator, np.hstack([z, enc]))


def sample_features(handle: GeneratorHandle, labels: np.ndarray, seed: int,
                    indices: np.ndarray) -> np.ndarray:
    """Features for the given stream positions; pure per (seed, index)."""
    labels = np.asarray(labels)
    if isinstance(handle, CorruptedOracle):
        return _oracle_features(handle, labels, seed, indices)
    return _cgan_features(handle, labels, seed, indices)


def sample(handle: GeneratorHandle, labels, seed: int) -> Dataset:
    """One fake sample per requested label, provenance fake_raw."""
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise ValueError("labels must be non-empty")
    feats = sample_features(handle, labels, seed, np.arange(len(labels)))
    prov = np.full(len(labels), "fake_raw", dtype="U8")
    return Dataset(handle.task, feats, labels, prov)


def _bce_logit_loss_and_grad(logits: np.ndarray, target: float):
    """Mean logistic loss toward a constant 0/1 target and d/dlogit."""
    l = logits[:, 0]
    p = 1.0 / (1.0 + np.exp(-l))
    # softplus written stably
    loss = np.mean(np.logaddexp(0.0, l) - target * l)
    grad = ((p - target) / len(l))[:, None]
    return float(loss), grad


def train_cgan(train_set: Dataset, config: GanTrainConfig) -> TrainedCgan:
    """Alternating non-saturating GAN updates; deterministic per seed."""
    if train_set.n == 0:
        raise ValueError("empty training set")
    task, d = train_set.task, train_set.dim
    enc_dim = encoding_dim(task)
    g_spec = NetSpec(config.noise_dim + enc_dim, config.hidden_g, "linear", d)
    d_spec = NetSpec(d + enc_dim, config.hidden_d, "linear", 1)
    gen = init_params(g_spec, rng.derive_key("cgan-g", config.seed))
    dis = init_params(d_spec, rng.derive_key("cgan-d", config.seed))
    if config.iterations == 0:
        return TrainedCgan(gen, config.noise_dim, task, d)

    opt_g = SgdState(gen, config.momentum)
    opt_d = SgdState(dis, config.momentum)
    # The discriminator's fake-batch gradient, added to its real-batch one.
    d_fake = np.empty_like(opt_d.grad)
    d_fake_grads = _layer_views(d_spec, d_fake)
    ws_real, ws_fake = (Workspace(d_spec, config.batch_size) for _ in range(2))
    ws_gen = Workspace(g_spec, config.batch_size)
    g = rng.generator(rng.derive_key("cgan-train", config.seed))
    enc_all = label_encoding(task, train_set.labels)
    for it in range(config.iterations):
        idx = g.integers(0, train_set.n, size=config.batch_size)
        enc = enc_all[idx]
        # discriminator step: real up, fake down
        z = g.normal(size=(config.batch_size, config.noise_dim))
        fake = forward_batch(opt_g.params, np.hstack([z, enc]))
        xr = np.hstack([train_set.features[idx], enc])
        xf = np.hstack([fake, enc])
        out_r, _ = _forward_cache(opt_d.params, xr, ws_real)
        out_f, _ = _forward_cache(opt_d.params, xf, ws_fake)
        loss_r, grad_r = _bce_logit_loss_and_grad(out_r, 1.0)
        loss_f, grad_f = _bce_logit_loss_and_grad(out_f, 0.0)
        backward(opt_d.params, ws_real, grad_r, opt_d.grads, input_grad=False)
        backward(opt_d.params, ws_fake, grad_f, d_fake_grads, input_grad=False)
        opt_d.grad += d_fake
        opt_d.step(config.lr_d)
        # generator step: non-saturating, push D(G(z)) toward "real"
        z = g.normal(size=(config.batch_size, config.noise_dim))
        gin = np.hstack([z, enc])
        fake, _ = _forward_cache(opt_g.params, gin, ws_gen)
        xf = np.hstack([fake, enc])
        out_f, _ = _forward_cache(opt_d.params, xf, ws_fake)
        loss_g, grad_f = _bce_logit_loss_and_grad(out_f, 1.0)
        _, _, d_input = backward(opt_d.params, ws_fake, grad_f, d_fake_grads)
        backward(opt_g.params, ws_gen, d_input[:, :d], opt_g.grads,
                 input_grad=False)
        opt_g.step(config.lr_g)
        if not (np.isfinite(loss_r) and np.isfinite(loss_f) and np.isfinite(loss_g)):
            raise RuntimeError(
                f"cgan training diverged at iteration {it}: non-finite loss "
                f"(D real {loss_r}, D fake {loss_f}, G {loss_g})")
    return TrainedCgan(opt_g.params, config.noise_dim, task, d)


def save_generator(handle: GeneratorHandle, path) -> None:
    lines = [GENERATOR_HEADER]
    if isinstance(handle, CorruptedOracle):
        base = handle.base
        lines.append("kind=oracle")
        if isinstance(base, BlobsConfig):
            lines.append("family=blobs")
            lines.append(f"n_classes={base.n_classes}")
            lines.append(f"separation={base.separation!r}")
            lines.append(f"noise_std={base.noise_std!r}")
            lines.append(f"dim={base.dim}")
        else:
            lines.append("family=ring")
            lines.append(f"radius_base={base.radius_base!r}")
            lines.append(f"radius_slope={base.radius_slope!r}")
            lines.append(f"noise_std={base.noise_std!r}")
            lines.append(f"label_lo={base.label_lo!r}")
            lines.append(f"label_hi={base.label_hi!r}")
        lines.append(f"flip_prob={handle.flip_prob!r}")
        lines.append(f"label_gauss_std={handle.label_gauss_std!r}")
        lines.append(f"junk_prob={handle.junk_prob!r}")
        lines.append(f"junk_spread={handle.junk_spread!r}")
    else:
        lines.append("kind=cgan")
        lines.append(f"noise_dim={handle.noise_dim}")
        lines.append(f"dim={handle.dim}")
        lines.append(synthdata.task_line(handle.task))
        lines.extend(modelio.netparams_lines(handle.generator))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_generator(path) -> GeneratorHandle:
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    if not lines or lines[0] != GENERATOR_HEADER:
        raise ValueError("malformed generator header")
    kv = {}
    model_start = None
    for i, ln in enumerate(lines[1:], start=1):
        if ln == modelio.MODEL_HEADER:
            model_start = i
            break
        key, _, value = ln.partition("=")
        kv[key] = value
    if kv.get("kind") == "oracle":
        if kv["family"] == "blobs":
            base = BlobsConfig(int(kv["n_classes"]), float(kv["separation"]),
                               float(kv["noise_std"]), dim=int(kv["dim"]))
        else:
            base = RingConfig(float(kv["radius_base"]), float(kv["radius_slope"]),
                              float(kv["noise_std"]), float(kv["label_lo"]),
                              float(kv["label_hi"]))
        return CorruptedOracle(base, float(kv["flip_prob"]),
                               float(kv["label_gauss_std"]),
                               float(kv["junk_prob"]), float(kv["junk_spread"]))
    if kv.get("kind") == "cgan":
        task = synthdata.parse_task_line(
            next(ln for ln in lines if ln.startswith("task=")))
        gen = modelio.netparams_from_lines(lines[model_start:])
        return TrainedCgan(gen, int(kv["noise_dim"]), task, int(kv["dim"]))
    raise ValueError("unknown generator kind")
