"""Minimal feedforward-network machinery.

ReLU hidden layers; output heads: "logits" (C >= 2 classification scores),
"nonneg_scalar" (ReLU-ed scalar, predictions >= 0), and "linear" (raw vector,
used internally by the GAN generator and single-logit heads).  Losses:
plain cross entropy, squared error, and the blended hard/soft distillation
loss  L = (1 - lam) * CE(y, p_s) + lam * CE(p_t, p_s)  with both soft-label
sides computed at the same temperature; it is the cross entropy against the
targets (1 - lam) * y + lam * p_t, which training blends once.

Softmax probabilities are floored at PROB_FLOOR before any log so the loss
stays bounded; the analytic gradients account for the floor exactly.
"""

import contextlib
import copy
import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from . import rng
from .synthdata import Dataset

PROB_FLOOR = 1e-12
LR_DECAY_FACTOR = 0.1  # learning-rate multiplier at each lr_decay_epochs entry
SGD_MOMENTUM = 0.9  # momentum of every network `train` fits

OUTPUT_KINDS = ("logits", "nonneg_scalar", "linear")
LOSS_KINDS = ("plain_ce", "plain_se", "blkd")


@dataclass(frozen=True)
class NetSpec:
    input_dim: int
    hidden_widths: tuple
    output_kind: str
    n_outputs: int = 1  # C for logits; width for linear; must be 1 for scalar

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(self.hidden_widths))
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if not self.hidden_widths or any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden_widths must be non-empty and positive")
        if self.output_kind not in OUTPUT_KINDS:
            raise ValueError(f"unknown output kind {self.output_kind!r}")
        if self.output_kind == "logits" and self.n_outputs < 2:
            raise ValueError("logits head needs n_outputs >= 2")
        if self.output_kind == "nonneg_scalar" and self.n_outputs != 1:
            raise ValueError("nonneg_scalar head has a single output")
        if self.output_kind == "linear" and self.n_outputs < 1:
            raise ValueError("linear head needs n_outputs >= 1")

    @property
    def layer_dims(self):
        return (self.input_dim,) + self.hidden_widths + (self.n_outputs,)


def task_head(task) -> tuple:
    """(output_kind, n_outputs) of a network for `task`: C logits for
    classification, one nonnegative scalar for regression."""
    if task.kind == "classification":
        return "logits", task.n_classes
    return "nonneg_scalar", 1


def check_head(spec: NetSpec, task, role: str):
    """Raise unless `spec` has the output kind `task_head` gives `task`.

    The width is not compared: a teacher may score more classes than a set
    of samples holds.
    """
    if spec.output_kind != task_head(task)[0]:
        raise ValueError(f"{role} head does not match a {task.kind} task")


@dataclass
class NetParams:
    spec: NetSpec
    weights: list  # per layer, shape (out, in)
    biases: list   # per layer, shape (out,)

    def __post_init__(self):
        dims = self.spec.layer_dims
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ValueError("layer count mismatch")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[l + 1], dims[l]) or b.shape != (dims[l + 1],):
                raise ValueError(f"shape mismatch at layer {l}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("non-finite parameters")


@dataclass(frozen=True)
class Loss:
    kind: str
    lam: float = 0.0        # blkd teacher weight, in [0, 1]; 0 mixes none
    temperature: float = 1.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")


def plain_loss(task) -> Loss:
    """The loss of `task` without distillation: cross entropy for
    classification, squared error for regression."""
    return Loss("plain_ce" if task.kind == "classification" else "plain_se")


def check_loss(loss: Loss, task):
    """Raise unless `loss` fits `task`: squared error exactly for
    regression, cross entropy (plain or blkd) exactly for classification."""
    if (loss.kind == "plain_se") != (task.kind == "regression"):
        raise ValueError(f"{loss.kind} loss does not fit a {task.kind} task")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    lr: float
    lr_decay_epochs: tuple = ()
    seed: int = 0
    loss: Loss = Loss("plain_ce")

    def __post_init__(self):
        object.__setattr__(self, "lr_decay_epochs", tuple(self.lr_decay_epochs))
        if self.lr <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("bad epochs/batch_size")
        if any(e < 0 for e in self.lr_decay_epochs):
            raise ValueError("lr_decay_epochs must be nonnegative")


@dataclass(frozen=True)
class Metrics:
    n: int
    top1: float = None
    mae: float = None

    @property
    def primary(self) -> float:
        return self.top1 if self.top1 is not None else self.mae


def init_params(spec: NetSpec, seed: int) -> NetParams:
    """Scaled-uniform weights (scale 1/sqrt(fan_in)), zero biases.

    The nonnegative scalar head starts its output bias at 0.5 (the midpoint
    of the unit label range): with a zero bias the clamped output unit is
    inactive on every input for roughly half of all seeds, and an inactive
    clamp passes no gradient, so such networks would never train.
    """
    g = rng.generator(rng.derive_key("init", seed))
    dims = spec.layer_dims
    weights, biases = [], []
    for l in range(len(dims) - 1):
        scale = 1.0 / math.sqrt(dims[l])
        weights.append(g.uniform(-scale, scale, size=(dims[l + 1], dims[l])))
        biases.append(np.zeros(dims[l + 1]))
    if spec.output_kind == "nonneg_scalar":
        biases[-1][:] = 0.5
    return NetParams(spec, weights, biases)


def _layer_views(spec: NetSpec, flat: np.ndarray):
    """Per-layer (weights, biases) views into one flat vector.

    Layout: every layer's weights in order, then every layer's biases.
    """
    dims = spec.layer_dims
    weights, biases, at = [], [], 0
    for l in range(len(dims) - 1):
        size = dims[l + 1] * dims[l]
        weights.append(flat[at:at + size].reshape(dims[l + 1], dims[l]))
        at += size
    for l in range(len(dims) - 1):
        biases.append(flat[at:at + dims[l + 1]])
        at += dims[l + 1]
    return weights, biases


def _clamped_layers(spec: NetSpec) -> list:
    """Per layer, whether a ReLU clamps its output: every hidden layer,
    and the head of a nonnegative scalar."""
    return [True] * len(spec.hidden_widths) + [
        spec.output_kind == "nonneg_scalar"]


class Workspace:
    """Forward and backward buffers of one network for one batch size.

    `acts[l + 1]` holds layer l's outputs (`acts[0]` is the input batch),
    `masks[l]` its ReLU masks, `deltas[l]` the loss gradient w.r.t. its
    pre-activations and `d_input` the one w.r.t. the input.  `loss_grad`
    holds the loss gradient w.r.t. the outputs, and `sq`, `probs`,
    `floored`, `terms` and `col` the loss terms.
    """

    def __init__(self, spec: NetSpec, n: int):
        dims = spec.layer_dims
        self.clamped = _clamped_layers(spec)
        self.acts = [None] + [np.empty((n, d)) for d in dims[1:]]
        self.masks = [np.empty((n, d), dtype=bool) for d in dims[1:]]
        self.deltas = [np.empty((n, d)) for d in dims[1:]]
        self.d_input = np.empty((n, dims[0]))
        self.loss_grad = np.empty((n, dims[-1]))
        self.sq = np.empty(n)
        self.probs, self.floored, self.terms = (
            np.empty((n, dims[-1])) for _ in range(3))
        self.col = np.empty((n, 1))


def _forward(params: NetParams, X: np.ndarray, ws: Workspace = None):
    """The layer loop of training and inference; returns the outputs.

    Each layer's product is biased and clamped in place: into `ws.acts`,
    kept for backprop, or without `ws` into one fresh array per layer.
    """
    if ws is None:
        clamped = _clamped_layers(params.spec)
    else:
        clamped, ws.acts[0] = ws.clamped, X
    a = X
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        # np.dot, here and in backprop: on these 2-D operands it reaches the
        # BLAS routines np.matmul reaches, with less dispatch overhead (for
        # the k = 1 outer product of backprop through a one-unit layer,
        # np.matmul runs a slower loop of its own).  Both start each sum from
        # +0.0 and agree bit for bit, as tests/test_nncore.py checks, except
        # on a 1x1 by 1x1 product, where np.dot keeps -0.0 * 1.0 as -0.0 and
        # np.matmul gives +0.0.  That needs a one-row batch through a layer
        # with one input and one output; no bench config has a layer input
        # narrower than 2.
        a = np.dot(a, w.T, out=None if ws is None else ws.acts[l + 1])
        np.add(a, b, out=a)
        if clamped[l]:
            np.maximum(a, 0.0, out=a)
    return a


def forward_batch(params: NetParams, X: np.ndarray) -> np.ndarray:
    """Network outputs for a batch, shape (n, n_outputs).

    Inference only: the layer loop of training without its buffers.  The
    batch runs whole, as a BLAS row result can vary with the row count.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.spec.input_dim:
        raise ValueError("input dimension mismatch")
    return _forward(params, X)


def backward(params: NetParams, ws: Workspace, d_out: np.ndarray, grads):
    """Backprop a gradient w.r.t. the network output through `ws`.

    Writes the weight and bias gradients into `grads`, a (weights, biases)
    pair of per-layer arrays, and stops before the gradient w.r.t. the
    input batch.  ReLU masks are read from the layer outputs: max(z, 0) > 0
    is z > 0 for every z, NaN and signed zeros included.  They multiply as
    booleans, which keeps signed zeros.
    """
    gw, gb = grads
    delta = d_out
    for l in range(len(params.weights) - 1, -1, -1):
        if ws.clamped[l]:
            mask = np.greater(ws.acts[l + 1], 0.0, out=ws.masks[l])
            delta = np.multiply(delta, mask, out=ws.deltas[l])
        np.dot(delta.T, ws.acts[l], out=gw[l])
        np.add.reduce(delta, axis=0, out=gb[l])
        if l:
            delta = np.dot(delta, params.weights[l], out=ws.deltas[l - 1])


def input_gradient(params: NetParams, ws: Workspace, d_out: np.ndarray):
    """Gradient w.r.t. the input batch of `ws`, written into `ws.d_input`.

    The delta chain of `backward`, one matrix product per layer and no
    parameter gradients.
    """
    delta = d_out
    for l in range(len(params.weights) - 1, -1, -1):
        if ws.clamped[l]:
            mask = np.greater(ws.acts[l + 1], 0.0, out=ws.masks[l])
            delta = np.multiply(delta, mask, out=ws.deltas[l])
        delta = np.dot(delta, params.weights[l],
                       out=ws.deltas[l - 1] if l else ws.d_input)
    return delta


def softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Row-wise temperature softmax with max-subtraction."""
    z = np.asarray(logits, dtype=np.float64) / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), n_classes))
    out[np.arange(len(labels)), np.asarray(labels, dtype=np.int64)] = 1.0
    return out


def _batch_loss_and_dout(out, targets, loss: Loss, ws: Workspace):
    """Mean batch loss and its gradient w.r.t. the network output.

    Every term is written into `ws`.  The cross entropy keeps the operand
    order of `softmax` followed by the per-row
    -sum_c t_c log max(p_c, PROB_FLOOR), so its figures match that
    formula's bit for bit.
    """
    n = out.shape[0]
    if loss.kind == "plain_se":
        # The scalar head has one output column, so d_out is 2 * diff / n.
        d_out = ws.loss_grad
        diff = np.subtract(out[:, 0], targets, out=d_out[:, 0])
        sq = np.multiply(diff, diff, out=ws.sq)
        value = float(np.add.reduce(sq)) / n
        d_out *= 2.0
        d_out /= n
        return value, d_out
    T = loss.temperature
    p, col = ws.probs, ws.col
    # Dividing by T = 1 is exact, so it is skipped.
    z = out if T == 1.0 else np.divide(out, T, out=p)
    np.maximum.reduce(z, axis=-1, keepdims=True, out=col)
    np.subtract(z, col, out=p)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True, out=col)
    floored = np.maximum(p, PROB_FLOOR, out=ws.floored)
    terms = np.multiply(targets, np.log(floored, out=ws.terms), out=ws.terms)
    rows = np.negative(np.add.reduce(terms, axis=-1, out=ws.sq), out=ws.sq)
    value = float(np.add.reduce(rows)) / n
    # d/dp with the probability floor: clamped entries contribute nothing.
    g = np.divide(np.negative(targets, out=ws.terms), floored, out=ws.terms)
    if not p.min() > PROB_FLOOR:
        g[~(p > PROB_FLOOR)] = 0.0
    g -= np.add.reduce(np.multiply(p, g, out=ws.floored), axis=-1,
                       keepdims=True, out=col)
    d_out = np.multiply(p, g, out=ws.loss_grad)
    d_out /= T * n
    return value, d_out


def _prepare_targets(dataset: Dataset, spec: NetSpec, loss: Loss,
                     teacher: NetParams = None):
    """Per-sample targets of one training run: scalar labels (plain_se),
    one-hot rows (plain_ce), or for blkd the cross-entropy targets
    (1 - lam) * one_hot + lam * p_t, the teacher's soft labels p_t taken at
    the loss temperature, so the blended loss is plain cross entropy."""
    task = dataset.task
    check_head(spec, task, "network")
    check_loss(loss, task)
    if loss.kind == "plain_se":
        return dataset.labels.astype(np.float64)
    targets = one_hot(dataset.labels, spec.n_outputs)
    if loss.kind == "blkd":
        check_head(teacher.spec, task, "teacher")
        probs = softmax(forward_batch(teacher, dataset.features),
                        loss.temperature)
        targets *= 1.0 - loss.lam
        targets += np.multiply(loss.lam, probs, out=probs)
    return targets


class SgdState:
    """SGD with momentum on one flat parameter vector.

    `params` and `grads` are per-layer views into the flat `theta` and
    `grad` (see `_layer_views`); `backward` writes into `grads`, and `step`
    updates all layers at once as v = m*v + g, w = w - lr*v.
    """

    def __init__(self, params: NetParams, momentum: float):
        spec = params.spec
        self.theta = np.concatenate([w.ravel() for w in params.weights]
                                    + list(params.biases))
        self.params = NetParams(spec, *_layer_views(spec, self.theta))
        self.grad = np.zeros_like(self.theta)
        self.grads = _layer_views(spec, self.grad)
        self.velocity = np.zeros_like(self.theta)
        self._scaled = np.empty_like(self.theta)
        self.momentum = momentum

    def step(self, lr: float):
        v = self.velocity
        v *= self.momentum
        v += self.grad
        self.theta -= np.multiply(v, lr, out=self._scaled)


# Results of `memoized` calls while a `reuse_training` block runs, by the
# SHA-256 digest of their inputs; None outside one.
_memo = None


@contextlib.contextmanager
def reuse_training():
    """Runs the body with a fresh memo behind `train` and `cgen.train_cgan`:
    each distinct training runs once, and a repeat gets a copy of the first
    result.  The memo is dropped when the body ends, however it ends."""
    global _memo
    outer, _memo = _memo, {}
    try:
        yield
    finally:
        _memo = outer


def _feed(h, obj):
    """Feeds `obj` into the hash `h`: an array as its dtype, shape and
    bytes; a list, a `NetParams` or a `Dataset` item by item; anything else
    as its repr, which for a float is exact."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj))
        return
    if isinstance(obj, (NetParams, Dataset)):
        obj = [type(obj).__name__] + [getattr(obj, f.name) for f in fields(obj)]
    if isinstance(obj, list):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
        return
    h.update(repr(obj).encode() + b"\0")


def memoized(name, inputs, compute):
    """`compute()`, whose result depends on nothing but the list `inputs`.

    Inside `reuse_training` it runs once per distinct (name, inputs), and
    every call gets its own deep copy of the result, so no caller sees
    another's arrays.  A `compute` that raises stores nothing.  Outside
    `reuse_training` this is just `compute()`.
    """
    if _memo is None:
        return compute()
    h = hashlib.sha256(name.encode())
    _feed(h, inputs)
    key = h.digest()
    if key not in _memo:
        _memo[key] = compute()
    return copy.deepcopy(_memo[key])


def train(params: NetParams, dataset: Dataset, config: TrainConfig,
          teacher: NetParams = None):
    """SGD training; deterministic per config.seed.

    Returns (trained params, per-epoch mean-loss history).  The targets,
    blended with the teacher's soft labels in blkd mode, are computed once
    (see `_prepare_targets`).  Each epoch gathers its shuffled copy of the
    data once and trains on slices of it, through one workspace per batch
    size.  Raises RuntimeError when an epoch ends with non-finite
    parameters.

    Inside `reuse_training` a training already run returns a copy of its
    first result without running SGD.  The key digests everything the
    training reads: the initial params (spec, weight and bias bytes), the
    dataset (task, feature and label bytes with dtype and shape), the
    config's repr, loss included, and the teacher's spec and arrays.
    """
    return memoized("train", [params, dataset, config, teacher],
                    lambda: _train(params, dataset, config, teacher))


def _train(params: NetParams, dataset: Dataset, config: TrainConfig,
           teacher: NetParams):
    """`train` without the memo."""
    if dataset.n == 0:
        raise ValueError("empty dataset")
    loss = config.loss
    if (teacher is not None) != (loss.kind == "blkd"):
        raise ValueError("teacher is required exactly for blkd loss")
    targets = _prepare_targets(dataset, params.spec, loss, teacher)
    X = dataset.features
    state = SgdState(params, SGD_MOMENTUM)
    n, size = dataset.n, config.batch_size
    spaces = {}
    lr = config.lr
    history = []
    for epoch in range(config.epochs):
        if epoch in config.lr_decay_epochs:
            lr *= LR_DECAY_FACTOR
        g = rng.generator(rng.derive_key("shuffle", config.seed, epoch))
        order = g.permutation(n)
        Xs, ts = X[order], targets[order]
        total = 0.0
        for start in range(0, n, size):
            stop = min(start + size, n)
            ws = spaces.get(stop - start)
            if ws is None:
                ws = spaces[stop - start] = Workspace(params.spec, stop - start)
            out = _forward(state.params, Xs[start:stop], ws)
            value, d_out = _batch_loss_and_dout(out, ts[start:stop], loss, ws)
            backward(state.params, ws, d_out, state.grads)
            state.step(lr)
            total += value * (stop - start)
        if not np.isfinite(state.theta).all():
            raise RuntimeError(f"training diverged in epoch {epoch}: "
                               "non-finite parameters")
        history.append(total / n)
    return state.params, history


def evaluate(params: NetParams, dataset: Dataset) -> Metrics:
    """Top-1 accuracy, or MAE in original (unnormalized) label units."""
    if dataset.n == 0:
        raise ValueError("empty dataset")
    check_head(params.spec, dataset.task, "network")
    out = forward_batch(params, dataset.features)
    if dataset.task.kind == "classification":
        top1 = float(np.mean(out.argmax(axis=1) == dataset.labels))
        return Metrics(n=dataset.n, top1=top1)
    scale = dataset.task.label_hi - dataset.task.label_lo
    mae = float(np.mean(np.abs(out[:, 0] - dataset.labels)) * scale)
    return Metrics(n=dataset.n, mae=mae)
