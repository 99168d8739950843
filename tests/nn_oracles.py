"""Single-sample and whole-batch reference functions for the network core.

The training loop never calls these: they restate a forward pass, the
soft labels, the per-sample loss and the batch gradient one sample or one
batch at a time, so tests can hold `nncore.train` and its batch arithmetic
against them.  `reference_backward` and `reference_train_cgan` keep the
backprop with an optional input gradient and the cGAN training loop that
`nncore.backward` (which gives the input gradient when called without
parameter gradients) and the buffer-reusing `cgen.train_cgan` replaced, so
the new code must match them bit for bit.  `ring_true_label` inverts
the noiseless ring map, the ground truth that regression samples are held
against.  `constant_labels` is a rejection label source that gives every
candidate one label, the draw M1's per-class pools reduce to.  `layers`
builds a network from per-layer arrays, and `reference_init_params` keeps
the per-layer draws whose values `nncore.init_params` must give.
`philox` is the numpy generator that tests draw their own inputs from;
the program itself never loads `numpy.random`.
"""

import math
from dataclasses import dataclass

import numpy as np

from cgankd import rng
from cgankd.cgen import (GAN_HIDDEN_D, GAN_HIDDEN_G, GAN_MOMENTUM,
                         GanTrainConfig, TrainedCgan, encoding_dim,
                         label_encoding)
from cgankd.nncore import (PROB_FLOOR, Loss, NetParams, NetSpec, SgdState,
                           Workspace, _batch_means, _clamped_layers, _forward,
                           _layer_views, _loss_grad, backward, forward_batch,
                           init_params, softmax)
from cgankd.synthdata import Dataset


def layers(spec: NetSpec, weights, biases) -> NetParams:
    """The network with these per-layer weights, shape (out, in), and
    biases, shape (out,): every layer's weights, then every layer's biases,
    in one flat vector."""
    return NetParams(spec, np.concatenate(
        [np.ravel(a) for a in [*weights, *biases]]))


def philox(key: int) -> np.random.Generator:
    """A numpy Philox generator keyed by `key`, for a test's own inputs."""
    return np.random.Generator(np.random.Philox(key=key))


def reference_init_params(spec: NetSpec, seed: int):
    """The per-layer (weights, biases) that `init_params` draws: weight k,
    counting row-major through the layers in order, is -s + 2s * u_k with
    u_k the uniform at counter k and s = 1/sqrt(fan_in); zero biases, and
    0.5 on the output bias of a nonnegative scalar head."""
    key, counter = rng.derive_key("init", seed), 0
    dims = spec.layer_dims
    weights, biases = [], []
    for l in range(len(dims) - 1):
        scale = 1.0 / math.sqrt(dims[l])
        w = np.empty((dims[l + 1], dims[l]))
        for i in range(dims[l + 1]):
            for j in range(dims[l]):
                u = rng.uniforms(key, [counter])[0]
                w[i, j] = -scale + 2.0 * scale * u
                counter += 1
        weights.append(w)
        biases.append(np.zeros(dims[l + 1]))
    if spec.output_kind == "nonneg_scalar":
        biases[-1][:] = 0.5
    return weights, biases


def pre_activations(params: NetParams, X: np.ndarray) -> list:
    """Every layer's pre-activations on the batch X, by np.matmul."""
    pre, a = [], X
    for w, b, clamp in zip(params.weights, params.biases,
                           _clamped_layers(params.spec)):
        pre.append(np.matmul(a, w.T) + b)
        a = np.maximum(pre[-1], 0.0) if clamp else pre[-1]
    return pre


def blended_targets(targets, loss: Loss, teacher: NetParams, X) -> np.ndarray:
    """Cross-entropy targets of a batch: the hard targets, blended with the
    teacher's soft labels at the loss temperature for blkd."""
    if loss.kind != "blkd":
        return targets
    if teacher is None:
        raise ValueError("blkd loss requires a teacher")
    probs = softmax(forward_batch(teacher, X), loss.temperature)
    return (1.0 - loss.lam) * targets + loss.lam * probs


def ring_true_label(features: np.ndarray) -> np.ndarray:
    """Invert the noiseless ring map: label from the point's angle."""
    angle = np.arctan2(features[..., 1], features[..., 0])
    return np.mod(angle / (2.0 * np.pi), 1.0)


def constant_labels(label):
    """A rejection-sampling label source: `label` at every stream index."""
    def source(indices):
        return np.full(len(indices), label)
    return source


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


def ce_rows(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-row cross entropy  -sum_c t_c log max(p_c, floor)."""
    return -(targets * np.log(np.maximum(probs, PROB_FLOOR))).sum(axis=-1)


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
    hard = float(ce_rows(p[None, :], t[None, :])[0])
    if loss.kind == "plain_ce":
        return hard
    if teacher_soft is None:
        raise ValueError("blkd loss requires teacher_soft")
    soft = float(ce_rows(p[None, :], teacher_soft.probs[None, :])[0])
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
    ws = Workspace(params.spec, X.shape[0])
    out = _forward(params, X, ws)
    targets = blended_targets(targets, loss, teacher, X)
    d_out = _loss_grad(out, targets, loss, ws, loss_stash(out, targets))
    theta = np.empty(params.spec.n_params)
    backward(params, ws, d_out, _layer_views(params.spec, theta))
    return NetParams(params.spec, theta)


def loss_stash(out: np.ndarray, targets) -> np.ndarray:
    """A buffer for what `_loss_grad` stashes on the outputs `out`: the
    diffs of squared error, the floored probabilities of cross entropy."""
    return np.empty(out.shape[:-1] + np.shape(targets)[out.ndim - 1:])


def batch_loss(params: NetParams, X: np.ndarray, targets, loss: Loss) -> float:
    """Mean batch loss through the training step's loss arithmetic, against
    targets already blended (see `blended_targets`)."""
    ws = Workspace(params.spec, X.shape[0])
    out = _forward(params, X, ws)
    stash = loss_stash(out, targets)
    _loss_grad(out, targets, loss, ws, stash)
    n = X.shape[0]
    [[value]] = _batch_means(stash[None], np.asarray(targets)[None], loss,
                             [n], n)
    return value


def reference_backward(params: NetParams, ws: Workspace, d_out: np.ndarray,
                       grads, input_grad: bool = True):
    """Backprop a gradient w.r.t. the network output through `ws`.

    Writes the weight and bias gradients into `grads`, a (weights, biases)
    pair of per-layer arrays, and returns (weight grads, bias grads,
    gradient w.r.t. the input batch, or None without `input_grad`).  ReLU
    masks come from pre-activations recomputed from `ws.acts` and multiply
    as booleans, which keeps signed zeros.
    """
    gw, gb = grads
    delta = d_out
    last = len(params.weights) - 1
    for l in range(last, -1, -1):
        if ws.clamped[l]:
            pre = np.matmul(ws.acts[l], params.weights[l].T) + params.biases[l]
            delta = np.multiply(delta, pre > 0.0, out=ws.deltas[l])
        np.matmul(delta.T, ws.acts[l], out=gw[l])
        np.add.reduce(delta, axis=0, out=gb[l])
        if l == 0 and not input_grad:
            return gw, gb, None
        delta = np.matmul(delta, params.weights[l],
                          out=ws.deltas[l - 1] if l else ws.d_input)
    return gw, gb, delta


def reference_bce_logit_loss_and_grad(logits: np.ndarray, target: float):
    """Mean logistic loss toward a constant 0/1 target and d/dlogit."""
    l = logits[:, 0]
    p = 1.0 / (1.0 + np.exp(-l))
    # softplus written stably
    loss = np.mean(np.logaddexp(0.0, l) - target * l)
    grad = ((p - target) / len(l))[:, None]
    return float(loss), grad


def reference_train_cgan(train_set: Dataset, config: GanTrainConfig) -> TrainedCgan:
    """Alternating non-saturating GAN updates; deterministic per seed.

    Iteration `it` draws its own rows and noise batches, from counters
    it * batch_size + (0, ..., batch_size - 1) under one key each, so the
    blocks of iterations `train_cgan` draws at once change no output."""
    if train_set.n == 0:
        raise ValueError("empty training set")
    task, d = train_set.task, train_set.dim
    enc_dim = encoding_dim(task)
    g_spec = NetSpec(config.noise_dim + enc_dim, GAN_HIDDEN_G, "linear", d)
    d_spec = NetSpec(d + enc_dim, GAN_HIDDEN_D, "linear", 1)
    gen = init_params(g_spec, rng.derive_key("cgan-g", config.seed))
    dis = init_params(d_spec, rng.derive_key("cgan-d", config.seed))
    if config.iterations == 0:
        return TrainedCgan(gen, config.noise_dim, task, d)

    opt_g = SgdState(g_spec, gen.theta.copy(), GAN_MOMENTUM)
    opt_d = SgdState(d_spec, dis.theta.copy(), GAN_MOMENTUM)
    # The discriminator's fake-batch gradient, added to its real-batch one.
    d_fake = np.empty_like(opt_d.grad)
    d_fake_grads = _layer_views(d_spec, d_fake)
    ws_real, ws_fake = (Workspace(d_spec, config.batch_size) for _ in range(2))
    ws_gen = Workspace(g_spec, config.batch_size)
    rows_key, zd_key, zg_key = (
        rng.derive_key(name, config.seed)
        for name in ("cgan-rows", "cgan-d-noise", "cgan-g-noise"))
    enc_all = label_encoding(task, train_set.labels)
    for it in range(config.iterations):
        counters = np.arange(it * config.batch_size,
                             (it + 1) * config.batch_size)
        idx = rng.below(rows_key, counters, train_set.n)
        enc = enc_all[idx]
        # discriminator step: real up, fake down
        z = rng.row_normals(zd_key, counters, config.noise_dim)
        fake = _forward(opt_g.params, np.hstack([z, enc]))
        xr = np.hstack([train_set.features[idx], enc])
        xf = np.hstack([fake, enc])
        out_r = _forward(opt_d.params, xr, ws_real)
        out_f = _forward(opt_d.params, xf, ws_fake)
        loss_r, grad_r = reference_bce_logit_loss_and_grad(out_r, 1.0)
        loss_f, grad_f = reference_bce_logit_loss_and_grad(out_f, 0.0)
        reference_backward(opt_d.params, ws_real, grad_r, opt_d.grads, input_grad=False)
        reference_backward(opt_d.params, ws_fake, grad_f, d_fake_grads, input_grad=False)
        opt_d.grad += d_fake
        opt_d.step(config.lr_d)
        # generator step: non-saturating, push D(G(z)) toward "real"
        z = rng.row_normals(zg_key, counters, config.noise_dim)
        gin = np.hstack([z, enc])
        fake = _forward(opt_g.params, gin, ws_gen)
        xf = np.hstack([fake, enc])
        out_f = _forward(opt_d.params, xf, ws_fake)
        loss_g, grad_f = reference_bce_logit_loss_and_grad(out_f, 1.0)
        _, _, d_input = reference_backward(opt_d.params, ws_fake, grad_f, d_fake_grads)
        reference_backward(opt_g.params, ws_gen, d_input[:, :d], opt_g.grads,
                           input_grad=False)
        opt_g.step(config.lr_g)
        if not (np.isfinite(loss_r) and np.isfinite(loss_f) and np.isfinite(loss_g)):
            raise RuntimeError(
                f"cgan training diverged at iteration {it}: non-finite loss "
                f"(D real {loss_r}, D fake {loss_f}, G {loss_g})")
    return TrainedCgan(opt_g.params, config.noise_dim, task, d)
