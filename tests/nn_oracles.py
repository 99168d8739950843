"""Single-sample and whole-batch reference functions for the network core.

The training loop never calls these: they restate a forward pass, the
soft labels, the per-sample loss and the batch gradient one sample or one
batch at a time, so tests can hold `nncore.train` and its batch arithmetic
against them.
"""

from dataclasses import dataclass

import numpy as np

from cgankd.nncore import (PROB_FLOOR, Loss, NetParams, _batch_loss_and_dout,
                           _ce_rows, _forward_cache, _layer_views,
                           _teacher_probs, backward, forward_batch, softmax)


@dataclass(frozen=True)
class SoftLabel:
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1 or np.any(p <= 0.0) or np.any(p > 1.0):
            raise ValueError("soft label entries must lie in (0, 1]")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("soft label must sum to 1")


def forward(params: NetParams, features):
    """Single-sample forward: logits vector, or a nonnegative float."""
    x = np.asarray(features, dtype=np.float64)
    if x.shape != (params.spec.input_dim,):
        raise ValueError("input dimension mismatch")
    out = forward_batch(params, x[None, :])[0]
    if params.spec.output_kind == "nonneg_scalar":
        return float(out[0])
    return out


def soft_labels(logits, temperature: float) -> SoftLabel:
    l = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(l)):
        raise ValueError("non-finite logits")
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    p = softmax(l, temperature)
    p = np.maximum(p, PROB_FLOOR)
    return SoftLabel(p / p.sum())


def loss_value(loss: Loss, prediction, target, teacher_soft: SoftLabel = None) -> float:
    """Single-sample loss.

    For classification kinds `prediction` is the logits vector and `target`
    the one-hot label; for plain_se both are scalars.
    """
    if loss.kind == "plain_se":
        return float(prediction - target) ** 2
    logits = np.asarray(prediction, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    p = softmax(logits, loss.temperature)
    hard = float(_ce_rows(p[None, :], t[None, :])[0])
    if loss.kind == "plain_ce":
        return hard
    if teacher_soft is None:
        raise ValueError("blkd loss requires teacher_soft")
    soft = float(_ce_rows(p[None, :], teacher_soft.probs[None, :])[0])
    return (1.0 - loss.lam) * hard + loss.lam * soft


def gradients(params: NetParams, batch, loss: Loss, teacher: NetParams = None) -> NetParams:
    """Exact analytic gradients of the mean batch loss, shaped like the params.

    `batch` is (X, targets): one-hot rows for classification, scalars for
    regression.
    """
    X, targets = batch
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    teacher_probs = None
    if loss.kind == "blkd":
        if teacher is None:
            raise ValueError("blkd loss requires a teacher")
        teacher_probs = _teacher_probs(teacher, X, loss.temperature)
    out, ws = _forward_cache(params, X)
    _, d_out = _batch_loss_and_dout(params, out, targets, loss, teacher_probs,
                                    ws)
    grads = _layer_views(params.spec, np.empty(params.spec.n_params))
    gw, gb, _ = backward(params, ws, d_out, grads, input_grad=False)
    return NetParams(params.spec, gw, gb)
