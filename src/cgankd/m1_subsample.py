"""Drop low-quality fake samples via density-ratio rejection sampling.

The conditional ratio p_real(x|y) / p_fake(x|y) is estimated with a binary
real-vs-fake classifier on (features ++ label encoding): the classifier's
odds, times the fake/real training prior, recover the ratio.  Rejection then
accepts a candidate with probability min(ratio / M_max, 1), where the ceiling
M_max is gamma * max ratio over the very fakes the classifier trained on; a
fresh calibration batch is open work on the ROADMAP.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import cgen, nncore, rng
from .nncore import NetParams, NetSpec, TrainConfig
from .synthdata import ClassificationTask, Dataset

_LOGIT_CLIP = 30.0  # keeps exp() finite; equivalent to the probability floor
_COLLAPSE_RATE = 1e-4
_COLLAPSE_WINDOW = 200_000
# Candidates per rejection batch.  The chunk size is part of the output:
# the collapse check runs at chunk boundaries, once _COLLAPSE_WINDOW
# candidates are in.
_CHUNK = 4096


@dataclass
class DensityRatioModel:
    net: NetParams            # logits(2) head: class 1 = real, class 0 = fake
    prior_correction: float   # fake / real training set sizes
    m_max: float
    task: object


def train_dr(real: Dataset, fake: Dataset, hidden, train_cfg: TrainConfig,
             gamma: float, seed: int) -> DensityRatioModel:
    """Fit the real-vs-fake classifier, initialised from `seed`, and set the
    rejection ceiling to `gamma` times the largest ratio over the fake
    training set itself."""
    if real.n == 0 or fake.n == 0:
        raise ValueError("real and fake sets must be non-empty")
    if real.task != fake.task or real.dim != fake.dim:
        raise ValueError("real and fake sets disagree on task or dimension")
    task = real.task
    X = np.vstack([cgen.conditioned(task, real.features, real.labels),
                   cgen.conditioned(task, fake.features, fake.labels)])
    y = np.concatenate([np.ones(real.n, dtype=np.int64),
                        np.zeros(fake.n, dtype=np.int64)])
    dr_set = Dataset(ClassificationTask(2), X, y)
    spec = NetSpec(X.shape[1], hidden, "logits", 2)
    params = nncore.init_params(spec, rng.derive_key("dr-init", seed))
    net, _ = nncore.train(params, dr_set, train_cfg)
    model = DensityRatioModel(net, fake.n / real.n, m_max=1.0, task=task)
    ratios = ratio_batch(model, fake.features, fake.labels)
    model.m_max = gamma * float(ratios.max())
    return model


def ratio_batch(model: DensityRatioModel, features: np.ndarray,
                labels: np.ndarray) -> np.ndarray:
    """Nonnegative, finite estimates of p_real(x|y) / p_fake(x|y)."""
    logits = nncore.forward_batch(
        model.net, cgen.conditioned(model.task, features, labels))
    odds_log = np.clip(logits[:, 1] - logits[:, 0], -_LOGIT_CLIP, _LOGIT_CLIP)
    return np.exp(odds_log) * model.prior_correction


def empirical_labels(labels: np.ndarray, seed: int):
    """Label source drawing uniformly from the pool `labels`."""
    return partial(cgen.empirical_draw, np.sort(labels),
                   rng.derive_key("reject-labels", seed))


def rejection_sample(sample_fn, task, ratio_fn, m_max: float, label_source,
                     n_target: int, seed: int) -> Dataset:
    """Accept-reject until n_target accepted.

    `sample_fn` maps (labels, seed, indices) -> features of `task`, such as
    `partial(cgen.sample_features, handle)`; `ratio_fn` maps (features,
    labels) -> ratios (a trained model's estimate or an injected exact
    function); `label_source` maps stream indices -> labels.  The acceptance
    decision at stream position i is a pure function of (ratio_i, m_max,
    uniform draw i).
    """
    if n_target <= 0:
        raise ValueError("n_target must be positive")
    if m_max <= 0.0:
        raise ValueError("m_max must be positive")
    accept_key = rng.derive_key("reject-accept", seed)
    feats_out, labels_out = [], []
    accepted = 0
    start = 0
    window_candidates = window_accepts = 0
    while accepted < n_target:
        idx = np.arange(start, start + _CHUNK)
        start += _CHUNK
        labels = np.asarray(label_source(idx))
        feats = sample_fn(labels, seed, idx)
        r = np.asarray(ratio_fn(feats, labels), dtype=np.float64)
        p = np.minimum(r / m_max, 1.0)
        u = rng.uniforms(accept_key, idx.astype(np.uint64))
        keep = u < p
        feats_out.append(feats[keep])
        labels_out.append(labels[keep])
        accepted += int(keep.sum())
        window_candidates += _CHUNK
        window_accepts += int(keep.sum())
        if window_candidates >= _COLLAPSE_WINDOW:
            if window_accepts / window_candidates < _COLLAPSE_RATE:
                raise RuntimeError(
                    "rejection sampling acceptance rate collapsed below "
                    f"{_COLLAPSE_RATE}; consider a larger gamma ceiling or a "
                    "better density-ratio model")
            window_candidates = window_accepts = 0
    feats = np.vstack(feats_out)[:n_target]
    labels = np.concatenate(labels_out)[:n_target]
    return Dataset(task, feats, labels)
