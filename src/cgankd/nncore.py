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

A network's parameters are one flat vector (`NetParams`), which only
`_layer_views` cuts into per-layer weights and biases.

Every network `train` fits takes minibatch SGD steps at batch SGD_BATCH
with momentum SGD_MOMENTUM.  Training runs one SGD loop (`_train`) over a
list of jobs that share a network spec and a schedule: one job is plain
minibatch SGD, and several train as the rows of one parameter stack, each
bit for bit as it would alone.  The loop fails as a whole, on its first
invalid job or on the first epoch that leaves any network non-finite.
`train` is one job behind the training memo (`reuse_training`); on a miss
it trains, in the same loop, the jobs of its `together` batch that the memo
lacks.

Inference (`forward_batch`) runs the same layer loop on blocks of exactly
INFER_ROWS rows, so its memory stays bounded whatever the batch.
"""

import contextlib
import hashlib
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import rng
from .synthdata import Dataset

PROB_FLOOR = 1e-12
LR_DECAY_FACTOR = 0.1  # learning-rate multiplier at each lr_decay_epochs entry
SGD_MOMENTUM = 0.9  # momentum of every network `train` fits
SGD_BATCH = 64  # batch size of every network `train` fits
INFER_ROWS = 1024  # rows per block of an inference pass (`forward_batch`)

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

    @property
    def n_params(self) -> int:
        """Number of weights and biases of the network."""
        dims = self.layer_dims
        return sum((i + 1) * o for i, o in zip(dims, dims[1:]))


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
    """One network's flat parameter vector `theta`, or a (k, P) stack of
    them; `weights` and `biases` are per-layer views into `theta`."""
    spec: NetSpec
    theta: np.ndarray

    def __post_init__(self):
        if self.theta.shape[-1:] != (self.spec.n_params,):
            raise ValueError("parameter count mismatch")
        if not np.isfinite(self.theta).all():
            raise ValueError("non-finite parameters")
        self.weights, self.biases = _layer_views(self.spec, self.theta)


def frozen_params(spec: NetSpec, theta: np.ndarray) -> NetParams:
    """A trained network on `theta`, made read-only first so that its views
    are too: the memo shares it, and a write into it raises ValueError."""
    theta.flags.writeable = False
    return NetParams(spec, theta)


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
    lr: float
    lr_decay_epochs: tuple = ()
    seed: int = 0
    loss: Loss = Loss("plain_ce")

    def __post_init__(self):
        object.__setattr__(self, "lr_decay_epochs", tuple(self.lr_decay_epochs))
        if self.lr <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if any(e < 0 for e in self.lr_decay_epochs):
            raise ValueError("lr_decay_epochs must be nonnegative")

    batch_size = SGD_BATCH


@dataclass(frozen=True)
class Metrics:
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
    params = NetParams(spec, np.zeros(spec.n_params))
    for w in params.weights:
        scale = 1.0 / math.sqrt(w.shape[1])
        w[:] = g.uniform(-scale, scale, size=w.shape)
    if spec.output_kind == "nonneg_scalar":
        params.biases[-1][:] = 0.5
    return params


def _layer_views(spec: NetSpec, flat: np.ndarray):
    """Per-layer (weights, biases) views into one flat vector, or into each
    row of a stack of them.

    Layout: every layer's weights in order, then every layer's biases.  For
    a (k, P) stack the weights come out as (k, out, in) and the biases as
    (k, 1, out), which broadcast over the rows of a (k, batch, out) stack.
    """
    dims = spec.layer_dims
    lead = flat.shape[:-1]
    weights, biases, at = [], [], 0
    for l in range(len(dims) - 1):
        size = dims[l + 1] * dims[l]
        weights.append(flat[..., at:at + size].reshape(
            lead + (dims[l + 1], dims[l])))
        at += size
    for l in range(len(dims) - 1):
        biases.append(flat[..., at:at + dims[l + 1]].reshape(
            lead + (1,) * len(lead) + (dims[l + 1],)))
        at += dims[l + 1]
    return weights, biases


def _clamped_layers(spec: NetSpec) -> list:
    """Per layer, whether a ReLU clamps its output: every hidden layer,
    and the head of a nonnegative scalar."""
    return [True] * len(spec.hidden_widths) + [
        spec.output_kind == "nonneg_scalar"]


class Workspace:
    """Forward and backward buffers of one network for one batch size, or of
    a stack of k networks: `Workspace(spec, n)` or `Workspace(spec, k, n)`.

    `acts[l + 1]` holds layer l's outputs (`acts[0]` is the input batch),
    `masks[l]` its ReLU masks, `deltas[l]` the loss gradient w.r.t. its
    pre-activations and `d_input` the one w.r.t. the input.  `loss_grad`
    holds the loss gradient w.r.t. the outputs, and `probs`, `terms`,
    `prod` and `col` the cross-entropy terms.
    """

    def __init__(self, spec: NetSpec, *lead):
        dims = spec.layer_dims
        self.clamped = _clamped_layers(spec)
        self.acts = [None] + [np.empty(lead + (d,)) for d in dims[1:]]
        self.masks = [np.empty(lead + (d,), dtype=bool) for d in dims[1:]]
        self.deltas = [np.empty(lead + (d,)) for d in dims[1:]]
        self.d_input = np.empty(lead + (dims[0],))
        self.loss_grad, self.probs, self.terms, self.prod = (
            np.empty(lead + (dims[-1],)) for _ in range(4))
        self.col = np.empty(lead + (1,))


def _mT(a: np.ndarray) -> np.ndarray:
    """The transpose of a matrix, or of each matrix of a stack."""
    return a.T if a.ndim == 2 else a.transpose(0, 2, 1)


def _forward(params, X: np.ndarray, ws: Workspace = None):
    """The layer loop of training and inference; returns the outputs.

    `X` is one batch (2-D) or a stack of batches (3-D), one per row of a
    stacked `params`.  Each layer's product is biased and clamped in place:
    into `ws.acts`, kept for backprop, or without `ws` into one fresh array
    per layer.
    """
    if ws is None:
        clamped = _clamped_layers(params.spec)
    else:
        clamped, ws.acts[0] = ws.clamped, X
    # Array rank selects the product, here and in backprop.  np.dot, on 2-D
    # operands, reaches the BLAS routines np.matmul reaches, with less
    # dispatch overhead (for the k = 1 outer product of backprop through a
    # one-unit layer, np.matmul runs a slower loop of its own); np.matmul
    # runs a stack through the same routines, matrix by matrix.  The two
    # agree bit for bit on every product `_train` stacks, as
    # tests/test_nncore.py checks: a stacked batch always has SGD_BATCH rows.
    product = np.dot if X.ndim == 2 else np.matmul
    a = X
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = product(a, _mT(w), out=None if ws is None else ws.acts[l + 1])
        np.add(a, b, out=a)
        if clamped[l]:
            np.maximum(a, 0.0, out=a)
    return a


def forward_batch(params: NetParams, X: np.ndarray) -> np.ndarray:
    """Network outputs for a batch, shape (n, n_outputs).

    Inference only: the layer loop of training without its buffers, run on
    one INFER_ROWS-row block at a time, the last one zero-padded.  Every
    product then has one shape, so a row's outputs depend on that row alone.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.spec.input_dim:
        raise ValueError("input dimension mismatch")
    n = len(X)
    out = np.empty((n, params.spec.n_outputs))
    block = np.zeros((INFER_ROWS, X.shape[1]))
    for lo in range(0, n, INFER_ROWS):
        rows = min(n - lo, INFER_ROWS)
        block[:rows] = X[lo:lo + rows]
        block[rows:] = 0.0
        out[lo:lo + rows] = _forward(params, block)[:rows]
    return out


def backward(params, ws: Workspace, d_out: np.ndarray, grads):
    """Backprop a gradient w.r.t. the network output through `ws`.

    Writes the weight and bias gradients into `grads`, a (weights, biases)
    pair of per-layer arrays, and stops before the gradient w.r.t. the
    input batch.  A stack of networks (3-D `d_out`) backprops each through
    its own weights.  ReLU masks are read from the layer outputs:
    max(z, 0) > 0 is z > 0 for every z, NaN and signed zeros included.
    They multiply as booleans, which keeps signed zeros.
    """
    gw, gb = grads
    product = np.dot if d_out.ndim == 2 else np.matmul
    stacked = d_out.ndim == 3
    delta = d_out
    for l in range(len(params.weights) - 1, -1, -1):
        if ws.clamped[l]:
            mask = np.greater(ws.acts[l + 1], 0.0, out=ws.masks[l])
            delta = np.multiply(delta, mask, out=ws.deltas[l])
        product(_mT(delta), ws.acts[l], out=gw[l])
        np.add.reduce(delta, axis=-2, keepdims=stacked, out=gb[l])
        if l:
            delta = product(delta, params.weights[l], out=ws.deltas[l - 1])


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


def _loss_grad(out, targets, loss: Loss, ws: Workspace, stash):
    """Gradient of the mean batch loss w.r.t. the network output.

    `out` is one batch or a stack of them.  The terms are written into `ws`,
    and into `stash` the per-row figures the loss itself is later built
    from (see `_batch_means`): the diffs of squared error, or the floored
    probabilities of cross entropy.  The cross entropy keeps the operand
    order of `softmax` followed by the per-row
    -sum_c t_c log max(p_c, PROB_FLOOR), so its figures match that
    formula's bit for bit.
    """
    n = out.shape[-2]
    if loss.kind == "plain_se":
        # The scalar head has one output column, so d_out is 2 * diff / n.
        d_out = ws.loss_grad
        diff = np.subtract(out[..., 0], targets, out=stash)
        np.multiply(diff, 2.0, out=d_out[..., 0])
        d_out /= n
        return d_out
    T = loss.temperature
    p, col = ws.probs, ws.col
    # Dividing by T = 1 is exact, so it is skipped.
    z = out if T == 1.0 else np.divide(out, T, out=p)
    np.maximum.reduce(z, axis=-1, keepdims=True, out=col)
    np.subtract(z, col, out=p)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True, out=col)
    floored = np.maximum(p, PROB_FLOOR, out=stash)
    # d/dp with the probability floor: clamped entries contribute nothing.
    g = np.divide(np.negative(targets, out=ws.terms), floored, out=ws.terms)
    if not p.min() > PROB_FLOOR:
        g[~(p > PROB_FLOOR)] = 0.0
    g -= np.add.reduce(np.multiply(p, g, out=ws.prod), axis=-1,
                       keepdims=True, out=col)
    d_out = np.multiply(p, g, out=ws.loss_grad)
    d_out /= T * n
    return d_out


def _batch_means(stash, targets, loss: Loss, size: int) -> list:
    """Mean loss of each batch of `size` consecutive rows (the last may be
    shorter) from what `_loss_grad` stashed for those rows: the mean of
    diff**2, or of the rows' -sum_c t_c log(floored p_c)."""
    if loss.kind == "plain_se":
        rows = np.multiply(stash, stash)
    else:
        rows = np.negative(np.add.reduce(
            np.multiply(targets, np.log(stash)), axis=-1))
    full = len(rows) // size * size
    sums = np.add.reduce(rows[:full].reshape(-1, size), axis=-1).tolist()
    counts = [size] * len(sums)
    if full < len(rows):
        sums.append(float(np.add.reduce(rows[full:])))
        counts.append(len(rows) - full)
    return [s / m for s, m in zip(sums, counts)]


def _prepare_targets(dataset: Dataset, spec: NetSpec, loss: Loss,
                     teacher: NetParams = None):
    """Per-sample targets of one training run: the dataset's own label
    array (plain_se; training only reads its targets), one-hot rows
    (plain_ce), or for blkd the cross-entropy targets
    (1 - lam) * one_hot + lam * p_t, the teacher's soft labels p_t taken at
    the loss temperature, so the blended loss is plain cross entropy."""
    task = dataset.task
    check_head(spec, task, "network")
    check_loss(loss, task)
    if loss.kind == "plain_se":
        return np.asarray(dataset.labels, dtype=np.float64)
    targets = one_hot(dataset.labels, spec.n_outputs)
    if loss.kind == "blkd":
        check_head(teacher.spec, task, "teacher")
        probs = softmax(forward_batch(teacher, dataset.features),
                        loss.temperature)
        targets *= 1.0 - loss.lam
        targets += np.multiply(loss.lam, probs, out=probs)
    return targets


class SgdState:
    """SGD with momentum on flat parameter vectors.

    `theta` holds one network's parameters or, for a stack of networks,
    one network per row; `grad` and `velocity` share its shape.  `params`
    is the `NetParams` on `theta`, and `grads` the per-layer views into
    `grad`.  `backward` writes into `grads`, and `step` updates every layer
    of every network at once as v = m*v + g, w = w - lr*v.
    """

    def __init__(self, spec: NetSpec, theta: np.ndarray, momentum: float,
                 grad=None, velocity=None):
        self.theta = theta
        self.grad = np.zeros_like(theta) if grad is None else grad
        self.velocity = np.zeros_like(theta) if velocity is None else velocity
        self._scaled = np.empty_like(theta)
        self.momentum = momentum
        self.params = NetParams(spec, theta)
        self.grads = _layer_views(spec, self.grad)

    def part(self, rows) -> "SgdState":
        """The state of some networks of a stack, on views of its arrays:
        one network for an index, a stack for a slice."""
        return SgdState(self.params.spec, self.theta[rows], self.momentum,
                        self.grad[rows], self.velocity[rows])

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
    """Runs the body with a memo behind `memoized`: each distinct training,
    or data split, runs once, and a repeat gets the first result itself.
    The memo is dropped when the body ends, however it ends."""
    global _memo
    _memo = {}
    try:
        yield
    finally:
        _memo = None


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


def _digest(name, inputs) -> bytes:
    h = hashlib.sha256(name.encode())
    _feed(h, inputs)
    return h.digest()


def memoized(name, inputs, compute):
    """`compute()`, whose result depends on nothing but the list `inputs`.

    Inside `reuse_training` it runs once per distinct (name, inputs), and
    every call gets that one result, so `compute` makes its arrays read-only
    (see `frozen_params`).  A `compute` that raises stores nothing.  Outside
    `reuse_training` this is just `compute()`.
    """
    if _memo is None:
        return compute()
    key = _digest(name, inputs)
    if key not in _memo:
        _memo[key] = compute()
    return _memo[key]


def train(params: NetParams, dataset: Dataset, config: TrainConfig,
          teacher: NetParams = None, together=()):
    """SGD training; deterministic per config.seed.

    Returns (trained params, per-epoch mean-loss history).  The targets,
    blended with the teacher's soft labels in blkd mode, are computed once
    (see `_prepare_targets`).  Each epoch gathers its shuffled copy of the
    data once and trains on slices of it, through one workspace per batch
    size.  Raises RuntimeError when an epoch ends with non-finite
    parameters.

    The trained params are read-only (see `frozen_params`).  Inside
    `reuse_training` a training already run returns its first result
    without running SGD.  The key digests everything the training reads:
    the initial params (spec, weight and bias bytes), the dataset (task,
    feature and label bytes with dtype and shape), the config's repr, loss
    included, and the teacher's spec and arrays.  A miss trains in one SGD
    loop (`_train`) with the jobs of `together`, argument lists of `train`
    calls, that the memo lacks; outside the memo `together` is ignored.
    """
    job = [params, dataset, config, teacher]
    return memoized("train", job, lambda: _train_batch(job, together))


def _train_batch(job: list, together) -> tuple:
    """The result of `job`, trained in one loop with the jobs of `together`
    the memo lacks, a repeat once, in batch order; the memo keeps all."""
    if _memo is None:
        return _train([job])[0]
    batch = {}
    for other in [*together, job]:  # `job` last: `key` ends as its key
        key = _digest("train", other)
        if key not in _memo:
            batch.setdefault(key, other)
    _memo.update(zip(batch, _train(list(batch.values()))))
    return _memo[key]


def _train(jobs: list) -> list:
    """`train` without the memo, for a list of jobs, each the argument list
    of one `train` call; returns their results in order.

    The jobs share a spec and a config up to its seed.  Each network trains
    as it would alone, with its own shuffles and loss history.  Every job is
    checked before the first step, and the first invalid one raises its
    error; an epoch that ends with any network's parameters non-finite
    raises RuntimeError.  The networks are the rows of one parameter stack,
    the largest dataset first.  At each step those with a full batch left
    form a prefix of the stack and step as one; a lone one, and each
    network's last, partial batch, step on 2-D views.  So one job is plain
    minibatch SGD.
    """
    spec, config = jobs[0][0].spec, jobs[0][2]
    loss, size = config.loss, config.batch_size
    targets = []
    for params, dataset, cfg, teacher in jobs:
        if params.spec != spec or replace(cfg, seed=config.seed) != config:
            raise ValueError("jobs trained together must share a spec "
                             "and a config up to its seed")
        if dataset.n == 0:
            raise ValueError("empty dataset")
        if (teacher is not None) != (loss.kind == "blkd"):
            raise ValueError("teacher is required exactly for blkd loss")
        targets.append(_prepare_targets(dataset, spec, loss, teacher))
    live = sorted(range(len(jobs)), key=lambda j: -jobs[j][1].n)
    ns = [jobs[j][1].n for j in live]
    # Per step: its first row, the count of networks that take it as one
    # stack (0 when fewer than two have a full batch left), and the
    # (network, end row) of each batch that runs alone.
    plan = []
    for start in range(0, ns[0], size):
        full = sum(n >= start + size for n in ns)
        alone = [(i, n) for i, n in enumerate(ns) if start < n < start + size]
        if full == 1:
            alone.insert(0, (0, start + size))
        plan.append((start, full if full > 1 else 0, alone))
    state = SgdState(spec, np.stack([jobs[j][0].theta for j in live]),
                     SGD_MOMENTUM)
    rows = [state.part(i) for i in range(len(live))]
    heads = {k: (state.part(slice(0, k)), Workspace(spec, k, size))
             for _, k, _ in plan if k}
    spaces = {}
    X = np.empty((len(live), ns[0], spec.input_dim))
    ts = np.empty((len(live), ns[0]) + targets[live[0]].shape[1:])
    stash = np.empty_like(ts)
    histories = [[] for _ in live]
    lr = config.lr
    for epoch in range(config.epochs):
        if epoch in config.lr_decay_epochs:
            lr *= LR_DECAY_FACTOR
        for i, j in enumerate(live):
            order = rng.generator(rng.derive_key(
                "shuffle", jobs[j][2].seed, epoch)).permutation(ns[i])
            np.take(jobs[j][1].features, order, axis=0, out=X[i, :ns[i]])
            np.take(targets[j], order, axis=0, out=ts[i, :ns[i]])
        for start, k, alone in plan:
            if k:
                part, ws = heads[k]
                stop = start + size
                _step(part, ws, X[:k, start:stop], ts[:k, start:stop],
                      stash[:k, start:stop], loss, lr)
            for i, stop in alone:
                ws = spaces.get(stop - start)
                if ws is None:
                    ws = spaces[stop - start] = Workspace(spec, stop - start)
                _step(rows[i], ws, X[i, start:stop], ts[i, start:stop],
                      stash[i, start:stop], loss, lr)
        if not np.isfinite(state.theta).all():
            raise RuntimeError(f"training diverged in epoch {epoch}: "
                               "non-finite parameters")
        for i, n in enumerate(ns):
            total = 0.0
            for b, value in enumerate(_batch_means(
                    stash[i, :n], ts[i, :n], loss, size)):
                total += value * min(size, n - b * size)
            histories[i].append(total / n)
    results = [None] * len(jobs)
    for i, j in enumerate(live):
        results[j] = frozen_params(spec, state.theta[i].copy()), histories[i]
    return results


def _step(state: SgdState, ws: Workspace, X, targets, stash, loss: Loss,
          lr: float):
    """One SGD step of one network, or of a stack of them, on its batch."""
    out = _forward(state.params, X, ws)
    backward(state.params, ws, _loss_grad(out, targets, loss, ws, stash),
             state.grads)
    state.step(lr)


def evaluate(params: NetParams, dataset: Dataset) -> Metrics:
    """Top-1 accuracy, or MAE in label units."""
    if dataset.n == 0:
        raise ValueError("empty dataset")
    check_head(params.spec, dataset.task, "network")
    out = forward_batch(params, dataset.features)
    if dataset.task.kind == "classification":
        top1 = float(np.mean(out.argmax(axis=1) == dataset.labels))
        return Metrics(top1=top1)
    mae = float(np.mean(np.abs(out[:, 0] - dataset.labels)))
    return Metrics(mae=mae)
