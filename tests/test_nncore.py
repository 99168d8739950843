import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from cgankd import cgen, cli, m2_labeladjust, nncore, rng
from cgankd.nncore import (Loss, Metrics, NetParams, NetSpec, TrainConfig,
                           evaluate, forward_batch, init_params, one_hot,
                           train)
from cgankd.synthdata import (BlobsConfig, ClassificationTask, Dataset,
                              RegressionTask, RingConfig, make_classification,
                              make_dataset)
from nn_oracles import (SoftLabel, batch_loss, blended_targets, ce_rows,
                        forward, gradients, layers, loss_stash, loss_value,
                        philox, pre_activations, reference_backward,
                        reference_init_params, soft_labels)


def zero_net(spec):
    p = init_params(spec, 0)
    return layers(spec, [np.zeros_like(w) for w in p.weights],
                  [np.zeros_like(b) for b in p.biases])


def test_spec_rejects_empty_hidden():
    with pytest.raises(ValueError):
        NetSpec(2, (), "logits", 3)


def test_spec_rejects_single_class():
    with pytest.raises(ValueError):
        NetSpec(2, (4,), "logits", 1)


def test_init_deterministic_and_shapes():
    spec = NetSpec(2, (4,), "logits", 3)
    a = init_params(spec, 7)
    b = init_params(spec, 7)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert a.weights[0].shape == (4, 2)
    assert a.weights[1].shape == (3, 4)
    assert all(np.all(bb == 0) for bb in a.biases)
    c = init_params(spec, 8)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_scale():
    spec = NetSpec(16, (64,), "logits", 4)
    p = init_params(spec, 1)
    assert np.abs(p.weights[0]).max() <= 1.0 / math.sqrt(16)


@pytest.mark.parametrize("spec", [NetSpec(2, (4,), "logits", 3),
                                  NetSpec(3, (8, 5), "nonneg_scalar"),
                                  NetSpec(6, (32, 32), "linear", 2)])
def test_init_params_equals_the_per_layer_reference_draw(spec):
    for seed in (0, 7):
        want = layers(spec, *reference_init_params(spec, seed))
        assert np.array_equal(init_params(spec, seed).theta, want.theta)


def test_net_params_reject_a_theta_of_wrong_length_or_non_finite():
    spec = NetSpec(2, (4,), "logits", 3)
    theta = init_params(spec, 0).theta
    assert spec.n_params == len(theta) == (2 + 1) * 4 + (4 + 1) * 3
    for bad in (theta[:-1], np.append(theta, 0.0), np.empty(0)):
        with pytest.raises(ValueError, match="parameter count mismatch"):
            NetParams(spec, bad)
    for value in (np.nan, np.inf):
        bad = theta.copy()
        bad[5] = value
        with pytest.raises(ValueError, match="non-finite parameters"):
            NetParams(spec, bad)


def test_forward_zero_network():
    logits = forward(zero_net(NetSpec(2, (4,), "logits", 3)), [1.0, -2.0])
    assert np.array_equal(logits, np.zeros(3))
    val = forward(zero_net(NetSpec(2, (4,), "nonneg_scalar")), [1.0, -2.0])
    assert val == 0.0


def test_forward_dimension_mismatch():
    p = init_params(NetSpec(3, (4,), "logits", 2), 0)
    with pytest.raises(ValueError):
        forward(p, [1.0, 2.0])


def manual_forward(params, x):
    # independent dense-algebra oracle: explicit loops
    a = list(x)
    n_layers = len(params.weights)
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = []
        for i in range(w.shape[0]):
            s = b[i]
            for j in range(w.shape[1]):
                s += w[i, j] * a[j]
            z.append(s)
        if l < n_layers - 1 or params.spec.output_kind == "nonneg_scalar":
            a = [max(v, 0.0) for v in z]
        else:
            a = z
    return np.asarray(a)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_matches_manual_oracle(seed):
    spec = NetSpec(3, (5, 4), "logits", 2)
    p = init_params(spec, seed)
    g = philox(rng.derive_key("fwd-test", seed))
    x = g.normal(size=3)
    assert np.max(np.abs(forward(p, x) - manual_forward(p, x))) < 1e-12


def test_forward_nonneg_scalar_never_negative():
    spec = NetSpec(4, (8, 8), "nonneg_scalar")
    g = philox(rng.derive_key("nonneg-test"))
    for seed in range(5):
        p = init_params(spec, seed)
        X = g.normal(size=(50, 4))
        assert forward_batch(p, X).min() >= 0.0


def test_soft_labels_symmetry():
    for a in (0.0, 3.5, -2.0):
        sl = soft_labels([a, a, a], 2.0)
        assert np.allclose(sl.probs, 1.0 / 3.0)


def test_soft_labels_high_temperature_uniform():
    sl = soft_labels([1.0, 0.0], 1e6)
    assert np.max(np.abs(sl.probs - 0.5)) < 1e-5


def test_soft_labels_scalar_oracle():
    # direct per-entry evaluation of the softmax definition
    logits, T = [2.0, 0.0, 0.0], 1.0
    denom = sum(math.exp(l / T) for l in logits)
    expect = [math.exp(l / T) / denom for l in logits]
    sl = soft_labels(logits, T)
    assert np.max(np.abs(sl.probs - expect)) < 1e-12


def test_soft_labels_shift_invariance_and_normalization():
    g = philox(rng.derive_key("softmax-shift"))
    for _ in range(50):
        l = g.normal(size=4) * 5
        T = float(g.uniform(0.5, 10.0))
        a = soft_labels(l, T).probs
        b = soft_labels(l + 17.3, T).probs
        assert np.max(np.abs(a - b)) < 1e-12
        assert abs(a.sum() - 1.0) <= 1e-9


def test_soft_labels_rejects_nonfinite():
    with pytest.raises(ValueError):
        soft_labels([np.inf, 0.0], 1.0)


def test_loss_one_hot_match_is_zero():
    # student soft label exactly the one-hot target -> zero loss; use huge
    # margin logits so the softmax saturates within the floor
    l = np.array([60.0, 0.0, 0.0])
    val = loss_value(Loss("plain_ce"), l, [1.0, 0.0, 0.0])
    assert val < 1e-9


def test_loss_lambda_endpoints():
    l = np.array([1.0, -0.5, 0.2])
    y = np.array([0.0, 1.0, 0.0])
    ts = soft_labels([0.3, 0.3, 0.1], 2.0)
    hard = loss_value(Loss("plain_ce", temperature=2.0), l, y)
    soft = loss_value(Loss("blkd", lam=1.0, temperature=2.0), l, y, ts)
    blend0 = loss_value(Loss("blkd", lam=0.0, temperature=2.0), l, y, ts)
    assert blend0 == hard
    half = loss_value(Loss("blkd", lam=0.5, temperature=2.0), l, y, ts)
    assert abs(half - 0.5 * (hard + soft)) < 1e-12


def test_loss_kd_hand_value():
    # p_t=[0.7,0.3] vs p_s=[0.5,0.5]: KD term = log 2
    ts = SoftLabel(np.array([0.7, 0.3]))
    val = loss_value(Loss("blkd", lam=1.0), np.array([0.0, 0.0]), [1.0, 0.0], ts)
    assert abs(val - math.log(2.0)) < 1e-12


def test_loss_se():
    assert loss_value(Loss("plain_se"), 0.4, 0.1) == pytest.approx(0.09)


def relative_grad_error(analytic, numeric):
    denom = max(abs(analytic), abs(numeric), 1e-8)
    return abs(analytic - numeric) / denom


def _kink_margin(params, X):
    # smallest |pre-activation| over all ReLU layers; central differences are
    # only valid away from the kinks
    pre = pre_activations(params, X)
    layers = pre[:-1]
    if params.spec.output_kind == "nonneg_scalar":
        layers = pre
    return min(np.abs(z).min() for z in layers)


def finite_difference_check(spec, loss, seed, teacher=None, n=6):
    for attempt in range(50):
        g = philox(rng.derive_key("fd", seed, attempt))
        params = init_params(spec, seed * 1000 + attempt)
        X = g.normal(size=(n, spec.input_dim))
        if _kink_margin(params, X) > 1e-3:
            break
    else:
        raise RuntimeError("could not find a kink-free configuration")
    if loss.kind == "plain_se":
        targets = g.uniform(0, 1, size=n)
    else:
        targets = one_hot(g.integers(0, spec.n_outputs, size=n), spec.n_outputs)

    blended = blended_targets(targets, loss, teacher, X)

    grads = gradients(params, (X, targets), loss, teacher)
    h = 1e-5
    worst = 0.0
    for l in range(len(params.weights)):
        for arr, garr in ((params.weights[l], grads.weights[l]),
                          (params.biases[l], grads.biases[l])):
            flat = arr.ravel()
            gflat = garr.ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up = batch_loss(params, X, blended, loss)
                flat[k] = orig - h
                down = batch_loss(params, X, blended, loss)
                flat[k] = orig
                worst = max(worst, relative_grad_error(gflat[k], (up - down) / (2 * h)))
    return worst


@pytest.mark.parametrize("loss", [Loss("plain_ce"), Loss("plain_se"),
                                  Loss("blkd", lam=0.5, temperature=5.0)])
def test_gradients_match_finite_differences(loss):
    if loss.kind == "plain_se":
        spec = NetSpec(3, (4,), "nonneg_scalar")
        teacher = None
    else:
        spec = NetSpec(3, (4,), "logits", 3)
        teacher = init_params(NetSpec(3, (5,), "logits", 3), 99)
    for seed in range(3):
        assert finite_difference_check(spec, loss, seed, teacher) <= 1e-4


def test_gradients_duplicated_batch_invariance():
    spec = NetSpec(2, (3,), "logits", 2)
    p = init_params(spec, 1)
    g = philox(rng.derive_key("dup"))
    X = g.normal(size=(4, 2))
    t = one_hot(np.array([0, 1, 1, 0]), 2)
    g1 = gradients(p, (X, t), Loss("plain_ce"))
    g2 = gradients(p, (np.vstack([X, X]), np.vstack([t, t])), Loss("plain_ce"))
    for a, b in zip(g1.weights, g2.weights):
        assert np.allclose(a, b, atol=1e-14)


def test_gradients_zero_at_perfect_regression_fit():
    # single linear-ish net that exactly reproduces the targets
    spec = NetSpec(1, (1,), "nonneg_scalar")
    p = layers(spec, [np.array([[1.0]]), np.array([[1.0]])],
               [np.zeros(1), np.zeros(1)])
    X = np.array([[0.2], [0.5], [0.9]])
    targets = X[:, 0].copy()
    g = gradients(p, (X, targets), Loss("plain_se"))
    assert all(np.all(w == 0) for w in g.weights)
    assert all(np.all(b == 0) for b in g.biases)


def blob_dataset(seed=0, n=200, sep=6.0, noise=0.3, classes=2):
    return make_classification(BlobsConfig(classes, sep, noise, n=n, seed=seed))


def test_train_zero_epochs_is_identity():
    ds = blob_dataset()
    spec = NetSpec(2, (4,), "logits", 2)
    p0 = init_params(spec, 0)
    p1, hist = train(p0, ds, TrainConfig(0, 0.1))
    assert hist == []
    for a, b in zip(p0.weights, p1.weights):
        assert np.array_equal(a, b)


def test_train_separable_blobs_reach_perfect_top1():
    ds = blob_dataset(n=200, sep=6.0, noise=0.3)
    # nearest-centroid oracle: the family is trivially separable
    from cgankd.synthdata import blob_centers
    mu = blob_centers(BlobsConfig(2, 6.0, 0.3))
    d = np.linalg.norm(ds.features[:, None, :] - mu[None], axis=2)
    assert np.mean(d.argmin(axis=1) == ds.labels) == 1.0

    spec = NetSpec(2, (8,), "logits", 2)
    p, _ = train(init_params(spec, 0), ds, TrainConfig(200, 0.05, seed=3))
    assert evaluate(p, ds).top1 == 1.0


def test_train_blkd_lambda_zero_equals_plain_ce():
    ds = blob_dataset()
    spec = NetSpec(2, (4,), "logits", 2)
    teacher, _ = train(init_params(spec, 5), ds, TrainConfig(30, 0.05, seed=5))
    cfg_plain = TrainConfig(20, 0.05, seed=9, loss=Loss("plain_ce", temperature=5.0))
    cfg_blkd = TrainConfig(20, 0.05, seed=9,
                           loss=Loss("blkd", lam=0.0, temperature=5.0))
    p0 = init_params(spec, 1)
    pa, _ = train(p0, ds, cfg_plain)
    pb, _ = train(p0, ds, cfg_blkd, teacher=teacher)
    for a, b in zip(pa.weights, pb.weights):
        assert np.array_equal(a, b)


def test_train_deterministic():
    ds = blob_dataset()
    spec = NetSpec(2, (4,), "logits", 2)
    cfg = TrainConfig(15, 0.05, seed=4)
    pa, ha = train(init_params(spec, 2), ds, cfg)
    pb, hb = train(init_params(spec, 2), ds, cfg)
    assert ha == hb
    for a, b in zip(pa.weights, pb.weights):
        assert np.array_equal(a, b)


def test_train_lr_decay_applied():
    ds = blob_dataset(n=40)
    spec = NetSpec(2, (4,), "logits", 2)
    p0 = init_params(spec, 0)
    # a decay before the first epoch is one 0.1 step for the whole run, and
    # 0.5 * 0.1 is exactly 0.05 (halving is exact)
    p1, h1 = train(p0, ds, TrainConfig(4, 0.5, lr_decay_epochs=(0,)))
    p2, h2 = train(p0, ds, TrainConfig(4, 0.05))
    assert h1 == h2
    for a, b in zip(p1.weights + p1.biases, p2.weights + p2.biases):
        assert np.array_equal(a, b)


def test_train_rejects_empty_dataset():
    spec = NetSpec(2, (4,), "logits", 2)
    ds = blob_dataset().subset(np.array([], dtype=int))
    with pytest.raises(ValueError):
        train(init_params(spec, 0), ds, TrainConfig(1, 0.1))


def test_train_and_evaluate_reject_head_of_other_task():
    ds = blob_dataset(n=40)
    scalar = init_params(NetSpec(2, (4,), "nonneg_scalar"), 0)
    logits = init_params(NetSpec(2, (4,), "logits", 2), 0)
    with pytest.raises(ValueError, match="network head does not match"):
        train(scalar, ds, TrainConfig(1, 0.1))
    with pytest.raises(ValueError, match="network head does not match"):
        evaluate(scalar, ds)
    with pytest.raises(ValueError, match="teacher head does not match"):
        train(logits, ds, TrainConfig(1, 0.1, loss=Loss("blkd", lam=0.5)),
              teacher=scalar)
    with pytest.raises(ValueError, match="plain_se loss does not fit"):
        train(logits, ds, TrainConfig(1, 0.1, loss=Loss("plain_se")))


def test_evaluate_perfect_and_constant_predictors():
    # perfect classifier
    ds = blob_dataset(n=100, sep=6.0, noise=0.2)
    spec = NetSpec(2, (8,), "logits", 2)
    p, _ = train(init_params(spec, 0), ds, TrainConfig(200, 0.05))
    assert evaluate(p, ds).top1 == 1.0

    # constant-0.5 regressor on labels {0, 1} -> mae 0.5
    task = RegressionTask()
    feats = np.zeros((10, 1))
    labels = np.array([0.0, 1.0] * 5)
    ds_reg = Dataset(task, feats, labels)
    spec_r = NetSpec(1, (1,), "nonneg_scalar")
    const = layers(spec_r, [np.zeros((1, 1)), np.zeros((1, 1))],
                   [np.array([1.0]), np.array([0.5])])
    m = evaluate(const, ds_reg)
    assert m.mae == pytest.approx(0.5)


def test_evaluate_all_class_zero():
    task = ClassificationTask(3)
    feats = np.zeros((9, 2))
    labels = np.array([0, 1, 2] * 3)
    ds = Dataset(task, feats, labels)
    spec = NetSpec(2, (2,), "logits", 3)
    p = layers(spec, [np.zeros((2, 2)), np.zeros((3, 2))],
               [np.zeros(2), np.array([1.0, 0.0, 0.0])])
    assert evaluate(p, ds).top1 == pytest.approx(1.0 / 3.0)


# --- reference oracle: the per-layer training loop that the flat-vector
# SGD step replaced, kept verbatim so the new loop must match it bit for bit.

def _reference_forward(params, X):
    pre, acts = [], [X]
    a = X
    n_layers = len(params.weights)
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w.T + b
        pre.append(z)
        if l < n_layers - 1 or params.spec.output_kind == "nonneg_scalar":
            a = np.maximum(z, 0.0)
        else:
            a = z
        acts.append(a)
    return acts[-1], (pre, acts)


def _reference_backward(params, cache, d_out):
    pre, acts = cache
    n_layers = len(params.weights)
    delta = d_out
    if params.spec.output_kind == "nonneg_scalar":
        delta = delta * (pre[-1] > 0.0)
    gw = [None] * n_layers
    gb = [None] * n_layers
    for l in range(n_layers - 1, -1, -1):
        gw[l] = delta.T @ acts[l]
        gb[l] = delta.sum(axis=0)
        delta = delta @ params.weights[l]
        if l > 0:
            delta = delta * (pre[l - 1] > 0.0)
    return gw, gb


def _reference_loss_and_dout(out, targets, loss, teacher_probs):
    n = out.shape[0]
    if loss.kind == "plain_se":
        diff = out[:, 0] - targets
        value = float(np.mean(diff**2))
        d_out = np.zeros_like(out)
        d_out[:, 0] = 2.0 * diff / n
        return value, d_out
    T = loss.temperature
    p = nncore.softmax(out, T)
    if loss.kind == "plain_ce":
        t_eff = targets
    else:
        t_eff = (1.0 - loss.lam) * targets + loss.lam * teacher_probs
    value = float(np.mean(ce_rows(p, t_eff)))
    active = p > nncore.PROB_FLOOR
    g = np.where(active, -t_eff / np.maximum(p, nncore.PROB_FLOOR), 0.0)
    d_out = p * (g - (p * g).sum(axis=-1, keepdims=True)) / (T * n)
    return value, d_out


def _reference_train(params, dataset, config, teacher=None):
    loss = config.loss
    X = dataset.features
    if loss.kind == "plain_se":
        targets = dataset.labels.astype(np.float64)
    else:
        targets = np.eye(params.spec.n_outputs)[dataset.labels]
    teacher_probs = None
    if loss.kind == "blkd":
        teacher_probs = nncore.softmax(forward_batch(teacher, X),
                                       loss.temperature)
    p = layers(params.spec, [w.copy() for w in params.weights],
               [b.copy() for b in params.biases])
    vw = [np.zeros_like(w) for w in p.weights]
    vb = [np.zeros_like(b) for b in p.biases]
    lr = config.lr
    history = []
    for epoch in range(config.epochs):
        if epoch in config.lr_decay_epochs:
            lr *= nncore.LR_DECAY_FACTOR
        # The counters 0..n-1 in the order of their draws; the draws never
        # tie, so a stable sort gives the program's order.
        order = np.argsort(rng.raw64(rng.derive_key(
            "shuffle", config.seed, epoch), np.arange(dataset.n)),
            kind="stable")
        total = 0.0
        for start in range(0, dataset.n, config.batch_size):
            idx = order[start:start + config.batch_size]
            tp = teacher_probs[idx] if teacher_probs is not None else None
            out, cache = _reference_forward(p, X[idx])
            value, d_out = _reference_loss_and_dout(out, targets[idx], loss, tp)
            gw, gb = _reference_backward(p, cache, d_out)
            for l in range(len(p.weights)):
                vw[l] = 0.9 * vw[l] + gw[l]
                vb[l] = 0.9 * vb[l] + gb[l]
                p.weights[l] -= lr * vw[l]
                p.biases[l] -= lr * vb[l]
            total += value * len(idx)
        history.append(total / dataset.n)
    return p, history


def ring_dataset(seed=0, n=150):
    return make_dataset(RingConfig(n=n, seed=seed))


@pytest.mark.parametrize("kind", ["plain_ce", "plain_se", "blkd"])
def test_train_matches_reference_loop_bit_for_bit(kind):
    teacher = None
    if kind == "plain_se":
        ds = ring_dataset(n=150)
        spec = NetSpec(ds.dim, (16, 8), "nonneg_scalar")
    else:
        ds = blob_dataset(n=150, sep=2.0, noise=1.0, classes=3)
        spec = NetSpec(ds.dim, (16, 8), "logits", 3)
        if kind == "blkd":
            teacher, _ = train(init_params(NetSpec(ds.dim, (8,), "logits", 3), 4),
                               ds, TrainConfig(5, 0.05, seed=4))
    # 150 rows at batch 64: two full batches and one of 22 per epoch.  A
    # 2,100-row set takes three spans of SPAN = 1,024 rows, the last one
    # 52 rows, a partial batch.
    cfg = TrainConfig(6, 0.05, lr_decay_epochs=(4,), seed=2,
                      loss=Loss(kind, lam=0.3, temperature=4.0))
    p0 = init_params(spec, 3)
    big = (ring_dataset(seed=5, n=2100) if kind == "plain_se" else
           blob_dataset(seed=5, n=2100, sep=2.0, noise=1.0, classes=3))
    for data in (ds, big):
        got, got_hist = train(p0, data, cfg, teacher=teacher)
        want, want_hist = _reference_train(p0, data, cfg, teacher=teacher)
        assert got_hist == want_hist
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.array_equal(a, b)
    # train leaves its input untouched
    assert np.array_equal(p0.weights[0], init_params(spec, 3).weights[0])


def test_train_raises_on_nonfinite_parameters():
    # lr 1e300: the first update sends the weights past the float range, and
    # 128 rows give epoch 0 a second step, which turns them non-finite
    ds = blob_dataset(n=128)
    spec = NetSpec(2, (8,), "logits", 2)
    with np.errstate(all="ignore"), pytest.raises(RuntimeError,
                                                  match="epoch 0: non-finite"):
        train(init_params(spec, 0), ds, TrainConfig(3, 1e300))


@pytest.mark.parametrize("kind, hidden", [("plain_se", (1, 8)),
                                          ("plain_se", (8, 1)),
                                          ("plain_ce", (1, 8))])
def test_train_matches_reference_loop_on_degenerate_shapes(kind, hidden):
    # One-unit layers give (n, 1) deltas, whose products with the weights
    # are k = 1 outer products, and 129 rows at batch 64 end every epoch
    # with a batch of one row; dead one-unit ReLUs also give signed zeros.
    if kind == "plain_se":
        ds = ring_dataset(n=129)
        spec = NetSpec(ds.dim, hidden, "nonneg_scalar")
    else:
        ds = blob_dataset(n=129, sep=2.0, noise=1.0, classes=3)
        spec = NetSpec(ds.dim, hidden, "logits", 3)
    cfg = TrainConfig(5, 0.05, seed=2, loss=Loss(kind))
    for seed in range(4):
        p0 = init_params(spec, seed)
        got, got_hist = train(p0, ds, cfg)
        want, want_hist = _reference_train(p0, ds, cfg)
        assert got_hist == want_hist
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("kind", ["plain_ce", "blkd"])
def test_train_matches_reference_loop_at_temperature_one(kind):
    # At T = 1 the loss skips its division by T; the bytes must not move.
    ds = blob_dataset(n=150, sep=2.0, noise=1.0, classes=3)
    spec = NetSpec(ds.dim, (16, 8), "logits", 3)
    teacher = None
    if kind == "blkd":
        teacher, _ = train(init_params(NetSpec(ds.dim, (8,), "logits", 3), 4),
                           ds, TrainConfig(5, 0.05, seed=4))
    cfg = TrainConfig(4, 0.05, seed=2, loss=Loss(kind, lam=0.3))
    p0 = init_params(spec, 3)
    got, got_hist = train(p0, ds, cfg, teacher=teacher)
    want, want_hist = _reference_train(p0, ds, cfg, teacher=teacher)
    assert got_hist == want_hist
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["plain_ce", "blkd"])
@pytest.mark.parametrize("temperature", [1.0, 4.0])
def test_ce_loss_matches_reference_at_the_floor_and_on_nan(kind, temperature):
    # Spreads of 100 push probabilities below PROB_FLOOR, so the floor mask
    # is built; a NaN row must come out NaN in the same places.
    g = np.random.default_rng(0)
    spec = NetSpec(2, (4,), "logits", 4)
    out = g.normal(size=(9, 4)) * np.array([[1.0], [100.0], [1.0], [300.0],
                                            [1.0], [100.0], [1.0], [1.0],
                                            [1.0]])
    out[7, 2] = np.nan
    targets = one_hot(g.integers(0, 4, size=9), 4)
    tp = nncore.softmax(g.normal(size=(9, 4)), temperature)
    loss = Loss(kind, lam=0.3, temperature=temperature)
    t_eff = targets if kind == "plain_ce" else \
        (1.0 - loss.lam) * targets + loss.lam * tp
    with np.errstate(invalid="ignore"):
        for rows in (slice(0, 7), slice(0, 9)):
            stash = loss_stash(out[rows], t_eff[rows])
            d_out = nncore._loss_grad(out[rows], t_eff[rows], loss,
                                      nncore.Workspace(spec, rows.stop), stash)
            [[value]] = nncore._batch_means(stash[None], t_eff[rows][None],
                                            loss, [rows.stop], rows.stop)
            want_value, want_d_out = _reference_loss_and_dout(
                out[rows], targets[rows], loss, tp[rows])
            assert np.array_equal(value, want_value, equal_nan=True)
            assert np.array_equal(d_out, want_d_out, equal_nan=True)
    assert math.isnan(value)


@pytest.mark.parametrize("rows", [37, 1, 3])
@pytest.mark.parametrize("hidden", [(16, 8), (1,)])
@pytest.mark.parametrize("head", [("logits", 3), ("nonneg_scalar", 1),
                                  ("linear", 2), ("linear", 1)])
def test_backprop_matches_reference_backward(head, hidden, rows):
    # With one hidden unit the last product is a k = 1 outer product, and
    # rows where the unit is off feed it the -0.0 of a masked negative delta.
    # The batch of three holds a row of zeros, whose first-layer
    # pre-activations are exactly +0.0 (those biases start at zero), and a
    # row holding NaN, whose pre-activations are all NaN.
    spec = NetSpec(5, hidden, *head)
    params = init_params(spec, 1)
    g = np.random.default_rng(1)
    X = g.normal(size=(rows, 5))
    if rows == 3:
        X[1] = 0.0
        X[2, 0] = np.nan
    d_out = g.normal(size=(rows, spec.n_outputs))
    d_out[1::3] = -0.0  # signed zeros must come out as the reference's
    ws = nncore.Workspace(spec, rows)
    with np.errstate(invalid="ignore"):
        nncore._forward(params, X, ws)
        got = nncore.input_gradient(params, ws, d_out).copy()
        got_grads = nncore._layer_views(spec, np.empty(spec.n_params))
        nncore.backward(params, ws, d_out, got_grads)
        grads = nncore._layer_views(spec, np.empty(spec.n_params))
        gw, gb, want = reference_backward(params, ws, d_out, grads)
    for a, b in zip([got] + got_grads[0] + got_grads[1], [want] + gw + gb):
        assert np.array_equal(a, b, equal_nan=True)
        assert np.array_equal(np.signbit(a), np.signbit(b))
    assert not np.array_equal(got, np.zeros_like(got))


def test_relu_mask_of_outputs_equals_mask_of_pre_activations():
    # backward reads max(z, 0) > 0 where the reference reads z > 0; the two
    # agree on signed zeros, NaN, infinities and subnormals.
    z = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                  -5e-324, 1.0, -1.0])
    with np.errstate(invalid="ignore"):
        assert np.array_equal(np.maximum(z, 0.0) > 0.0, z > 0.0)


def padded_training_forward(params, X):
    """The training layer loop through one INFER_ROWS-row workspace, over
    blocks of INFER_ROWS rows of `X`, the last one zero-padded."""
    size = nncore.INFER_ROWS
    ws = nncore.Workspace(params.spec, size)
    parts = []
    for lo in range(0, len(X), size):
        part = X[lo:lo + size]
        block = np.zeros((size, X.shape[1]))
        block[:len(part)] = part
        parts.append(nncore._forward(params, block, ws)[:len(part)].copy())
    return np.concatenate(parts)


def assert_forward_batch_matches_training_forward(spec, rows, nonfinite):
    params = init_params(spec, 2)
    X = 3.0 * np.random.default_rng(rows).normal(size=(rows, spec.input_dim))
    if nonfinite:
        X[0, 1 % spec.input_dim] = np.nan
        X[-1, 2 % spec.input_dim] = np.inf
        X[rows // 2, 3 % spec.input_dim] = -np.inf
    # The reference runs on one BLAS thread, as every command does, and
    # forward_batch on the caller's count.
    with np.errstate(invalid="ignore"):  # inf - inf in the products
        with cli._one_blas_thread():
            want = padded_training_forward(params, X)
        got = forward_batch(params, X)
    assert got.shape == (rows, spec.n_outputs)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.isnan(got).any() == nonfinite


@pytest.mark.parametrize("nonfinite", [False, True])
@pytest.mark.parametrize("rows", [1, 64, 8000])
@pytest.mark.parametrize("hidden", [(16,), (16, 8)])
@pytest.mark.parametrize("head", [("logits", 3), ("nonneg_scalar", 1),
                                  ("linear", 2)])
def test_forward_batch_matches_training_forward_bit_for_bit(
        head, hidden, rows, nonfinite):
    assert_forward_batch_matches_training_forward(
        NetSpec(5, hidden, *head), rows, nonfinite)


# The wide layer shapes the pipeline builds: the teachers on 4 blob classes
# and on the ring, the density-ratio nets on (features ++ label encoding)
# of the ring and of the blobs, and the ring's cGAN generator on 4 noise
# lanes and the label.
PIPELINE_SPECS = {
    "teacher-cls": NetSpec(2, (64, 64), "logits", 4),
    "teacher-reg": NetSpec(2, (64, 64), "nonneg_scalar"),
    "dr-reg": NetSpec(3, (64,), "logits", 2),
    "dr-cls": NetSpec(6, (64,), "logits", 2),
    "generator": NetSpec(5, (32, 32), "linear", 2),
}


@pytest.mark.parametrize("nonfinite", [False, True])
@pytest.mark.parametrize("rows", [2047, 2048, 2049, 3071, 3072, 4096, 8191])
@pytest.mark.parametrize("net", sorted(PIPELINE_SPECS))
def test_forward_batch_matches_training_forward_at_block_edges(
        net, rows, nonfinite):
    # These row counts end the last block on either side of a multiple of
    # INFER_ROWS, full or padded.
    assert nncore.INFER_ROWS == 1024
    assert_forward_batch_matches_training_forward(
        PIPELINE_SPECS[net], rows, nonfinite)


@pytest.mark.parametrize("net", sorted(PIPELINE_SPECS))
def test_forward_batch_row_depends_on_that_row_alone(net):
    # A subset's outputs are the same rows of the whole batch's outputs,
    # whatever the subset's size against INFER_ROWS.
    params = init_params(PIPELINE_SPECS[net], 3)
    g = np.random.default_rng(4)
    X = 3.0 * g.normal(size=(8000, params.spec.input_dim))
    with cli._one_blas_thread():
        whole = forward_batch(params, X)
        for size in (1, 7, 64, 333, 1023, 1025, 2047, 2049, 5000):
            idx = g.permutation(len(X))[:size]
            got = forward_batch(params, X[idx])
            assert np.array_equal(got, whole[idx]), size
            assert np.array_equal(np.signbit(got), np.signbit(whole[idx]))


def test_regression_targets_alias_their_labels():
    ds = make_dataset(RingConfig(n=200, seed=1))
    spec = NetSpec(2, (8,), "nonneg_scalar")
    loss = Loss("plain_se")
    assert np.shares_memory(nncore._prepare_targets(ds, spec, loss),
                            ds.labels)
    before = ds.labels.tobytes()
    train(init_params(spec, 0), ds, TrainConfig(3, 0.05, seed=2, loss=loss))
    assert ds.labels.tobytes() == before


def traced_peak(run):
    """Peak bytes tracemalloc sees while `run()` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_batch_keeps_no_backprop_buffers():
    params = init_params(NetSpec(2, (64, 64), "logits", 4), 0)
    X = np.random.default_rng(0).normal(size=(20000, 2))
    # The 20000 x 4 logits take 0.64 MB and two 64-wide hidden outputs of
    # one INFER_ROWS-row block 1.05 MB.  A whole-batch pass holds two
    # 20000 x 64 hidden outputs, 20.5 MB; a training workspace adds
    # pre-activations, masks, deltas and loss terms.
    assert traced_peak(lambda: forward_batch(params, X)) <= 2e6
    # M2 on 8000 regression fakes runs the teacher once over all of them
    # and relabels the kept ones from that pass.  Its peak is two 64-wide
    # hidden outputs of one block, plus 64 bytes a fake for the outputs,
    # errors, mask and kept copy; one whole pass held 8.2 MB.
    teacher = init_params(NetSpec(2, (64, 64), "nonneg_scalar"), 0)
    g = np.random.default_rng(1)
    fakes = Dataset(RegressionTask(), g.normal(size=(8000, 2)),
                    g.uniform(size=8000))
    # A first call keeps numpy's lazy imports out of the traced peak.
    m2_labeladjust.run_m2(teacher, fakes.subset(np.arange(10)), 0.5)
    bound = 2 * nncore.INFER_ROWS * 64 * 8 + 64 * fakes.n
    for rho in (0.5, 1.0):
        peak = traced_peak(
            lambda: m2_labeladjust.run_m2(teacher, fakes, rho))
        assert peak <= bound


def test_stacked_training_keeps_no_whole_epoch_buffers():
    # The ablation's student stack: four (8,) regression students over the
    # real rows plus the cleaned fakes, one epoch.
    spec = NetSpec(2, (8,), "nonneg_scalar")
    ns = (8800, 8800, 6400, 6400)
    jobs = [[init_params(spec, j), ring_dataset(seed=j, n=n),
             TrainConfig(1, 0.02, seed=j, loss=Loss("plain_se")), None]
            for j, n in enumerate(ns)]
    # A first call keeps numpy's lazy imports out of the traced peaks.
    nncore._train(jobs[-1:])
    # Per network, one span of features (2 columns), targets and loss
    # stash; every network's epoch permutation, plus the working set of
    # drawing the largest; and at most twice the widest stack's workspace
    # (the 4- and 2-network stacks and the 32-row tail batch).
    drawing = traced_peak(lambda: rng.permutation(0, max(ns)))
    stack_ws = traced_peak(lambda: nncore.Workspace(spec, 4, nncore.SGD_BATCH))
    bound = (4 * nncore.SPAN * (2 + 1 + 1) * 8 + 8 * sum(ns) + drawing
             + 2 * stack_ws)
    # The whole-epoch copies of those buffers alone take 1,126,400 B.
    assert 4 * max(ns) * (2 + 1 + 1) * 8 > bound
    assert traced_peak(lambda: nncore._train(jobs)) <= bound


# -- the training memo ------------------------------------------------------

@pytest.fixture
def sgd_runs(monkeypatch):
    """The argument tuples of the trainings that run SGD; a memo hit runs
    none."""
    runs, real = [], nncore._train

    def counting(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(nncore, "_train", counting)
    return runs


def blkd_case():
    """(initial params, dataset, config, teacher) of a blkd training, so
    that every input `train` reads takes part."""
    ds = blob_dataset(n=60, sep=2.0, noise=1.0, classes=3)
    spec = NetSpec(ds.dim, (6,), "logits", 3)
    teacher, _ = train(init_params(spec, 4), ds, TrainConfig(3, 0.05, seed=4))
    cfg = TrainConfig(3, 0.05, seed=2,
                      loss=Loss("blkd", lam=0.3, temperature=4.0))
    return init_params(spec, 3), ds, cfg, teacher


def flip_bit(net):
    """A copy of `net` with the lowest bit of its first weight flipped."""
    net = layers(net.spec, [w.copy() for w in net.weights],
                 [b.copy() for b in net.biases])
    net.weights[0].reshape(-1).view(np.uint64)[0] ^= np.uint64(1)
    return net


def with_row0(ds, label=None, feature=None):
    features, labels = ds.features.copy(), ds.labels.copy()
    if label is not None:
        labels[0] = label
    if feature is not None:
        features[0, 0] = feature
    return Dataset(ds.task, features, labels)


def assert_same_training(a, b):
    (pa, ha), (pb, hb) = a, b
    assert pa.spec == pb.spec and ha == hb
    for x, y in zip(pa.weights + pa.biases, pb.weights + pb.biases):
        assert np.array_equal(x, y)


CHANGES = {
    "weight-bit": lambda p, d, c, t: (flip_bit(p), d, c, t),
    "label": lambda p, d, c, t: (p, with_row0(d, label=(d.labels[0] + 1) % 3),
                                 c, t),
    "feature": lambda p, d, c, t: (
        p, with_row0(d, feature=math.nextafter(d.features[0, 0], math.inf)),
        c, t),
    "lr": lambda p, d, c, t: (
        p, d, replace(c, lr=math.nextafter(c.lr, 1.0)), t),
    "lam": lambda p, d, c, t: (
        p, d, replace(c, loss=replace(c.loss,
                                      lam=math.nextafter(c.loss.lam, 1.0))), t),
    "teacher-weight": lambda p, d, c, t: (p, d, c, flip_bit(t)),
}


@pytest.mark.parametrize("change", CHANGES.values(), ids=CHANGES)
def test_memo_hits_on_equal_inputs_and_misses_on_any_changed_one(
        sgd_runs, change):
    case = blkd_case()
    changed = change(*case)
    before = len(sgd_runs)
    with nncore.reuse_training():
        first = train(*case)
        assert_same_training(train(*case), first)
        assert len(sgd_runs) == before + 1
        other = train(*changed)
        assert len(sgd_runs) == before + 2
    assert_same_training(other, train(*changed))
    assert_same_training(first, train(*case))


def assert_read_only(params):
    for a in [params.theta] + params.weights + params.biases:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


def test_memo_hit_is_the_first_result_and_read_only(sgd_runs):
    # One result serves every caller, so none may write into it: a trained
    # network's theta, and each weight and bias view, are read-only.
    case = blkd_case()
    ds = blob_dataset(n=80)
    before = len(sgd_runs)
    with nncore.reuse_training():
        first = train(*case)
        assert train(*case) is first
        gans = []
        for config in (cgen.GanTrainConfig(0, seed=1),
                       cgen.GanTrainConfig(5, seed=1)):
            gans.append(cgen.train_cgan(ds, config))
            assert cgen.train_cgan(ds, config) is gans[-1]
    assert len(sgd_runs) == before + 1
    for params in [first[0]] + [gan.generator for gan in gans]:
        assert_read_only(params)
    assert_same_training(first, train(*case))


def test_trained_params_are_views_of_their_own_theta_only():
    params, _ = train(*blkd_case())
    for view in params.weights + params.biases:
        assert np.shares_memory(view, params.theta)


def test_memo_stores_no_failed_training_and_ends_with_its_block(sgd_runs):
    # lr 1e300: the first update sends the weights past the float range
    args = (init_params(NetSpec(2, (8,), "logits", 2), 0), blob_dataset(n=64),
            TrainConfig(3, 1e300))
    assert nncore._memo is None
    with nncore.reuse_training():
        for _ in range(2):
            with np.errstate(all="ignore"), pytest.raises(RuntimeError):
                train(*args)
        assert nncore._memo == {}
    assert nncore._memo is None
    assert len(sgd_runs) == 2
    train(*blkd_case())
    train(*blkd_case())
    assert len(sgd_runs) == 2 + 2 * 2  # outside the memo every call trains


# -- training jobs together ---------------------------------------------------

def stack_jobs(kind, rows, seeds, epochs=5, hidden=None):
    """`train` argument lists that share a spec and a config up to its seed:
    one job per (rows, seed) pair, with its own dataset and, for blkd, its
    own teacher.  Batch size 64; hidden widths (8,) for squared error and
    (8, 4) for cross entropy unless `hidden` is given."""
    jobs = []
    for j, (n, seed) in enumerate(zip(rows, seeds)):
        teacher = None
        if kind == "plain_se":
            ds = ring_dataset(seed=j, n=n)
            spec = NetSpec(ds.dim, hidden or (8,), "nonneg_scalar")
        else:
            ds = blob_dataset(seed=j, n=n, sep=2.0, noise=1.0, classes=3)
            spec = NetSpec(ds.dim, hidden or (8, 4), "logits", 3)
            if kind == "blkd":
                teacher = init_params(NetSpec(ds.dim, (5,), "logits", 3), j)
        cfg = TrainConfig(epochs, 0.05, lr_decay_epochs=(3,), seed=seed,
                          loss=Loss(kind, lam=0.3, temperature=4.0))
        jobs.append([init_params(spec, 7), ds, cfg, teacher])
    return jobs


@pytest.mark.parametrize("kind", ["plain_ce", "plain_se", "blkd"])
@pytest.mark.parametrize("rows,seeds,hidden", [
    ((150, 64, 200, 129, 20, 96), (1, 2, 3, 4, 5, 6), None),  # n < batch
    ((128, 64, 192), (1, 1, 2), None),                        # multiples
    ((100, 100, 100), (3, 4, 5), None),                       # equal n
    ((77,), (2,), None),                                      # one job
    # A one-unit layer, and a job whose last batch has one row: for squared
    # error a 1x1 layer, whose dead unit gives signed zeros.
    ((130, 65, 129), (1, 2, 3), (1,)),
    # Ragged rows on both sides of the span edges at 1,024 and 2,048 rows.
    ((2100, 1025, 1024, 1023, 64), (1, 2, 3, 4, 5), None),
], ids=["ragged", "multiples", "equal", "one", "one-unit", "spans"])
def test_jobs_trained_together_equal_separate_trainings(kind, rows, seeds,
                                                        hidden, sgd_runs):
    jobs = stack_jobs(kind, rows, seeds, hidden=hidden)
    together = nncore._train(jobs)
    assert len(sgd_runs) == 1
    for job, got in zip(jobs, together):
        alone = train(*job)
        assert_same_training(got, alone)
        for a, b in zip(got[0].weights + got[0].biases,
                        alone[0].weights + alone[0].biases):
            assert np.array_equal(np.signbit(a), np.signbit(b))
    # the inputs are left untouched
    assert np.array_equal(jobs[0][0].weights[0],
                          init_params(jobs[0][0].spec, 7).weights[0])


def _no_step(*args):
    raise AssertionError("an SGD step ran")


def test_together_raises_the_first_invalid_job_or_the_earliest_divergence(
        monkeypatch, sgd_runs):
    # With the decay factor at 1e300, every network diverges in the epoch
    # its lr decays, 3; a network started at weights of 1e160 overflows in
    # its first step, in epoch 0.  The stack fails as a whole, at the first
    # epoch that leaves any of its networks non-finite.
    monkeypatch.setattr(nncore, "LR_DECAY_FACTOR", 1e300)
    early, late = stack_jobs("plain_ce", (128, 128), (1, 2), epochs=6)
    params = early[0]
    early[0] = layers(params.spec, [w * 1e160 for w in params.weights],
                      params.biases)
    with np.errstate(all="ignore"):
        for jobs, epoch in (([late, early], 0), ([early, late], 0),
                            ([late], 3)):
            with pytest.raises(RuntimeError, match=f"epoch {epoch}: non-fin"):
                nncore._train(jobs)
        # an invalid job fails before any SGD step, wherever it sits
        bad = [early[0], early[1].subset(np.zeros(128, dtype=bool)),
               *early[2:]]
        with monkeypatch.context() as mp:
            mp.setattr(nncore, "_step", _no_step)
            for jobs in ([late, bad], [bad, late], [late, early, bad]):
                with pytest.raises(ValueError, match="empty dataset"):
                    nncore._train(jobs)
        # a failed stack stores nothing in the memo
        before = len(sgd_runs)
        with nncore.reuse_training():
            for _ in range(2):
                with pytest.raises(RuntimeError, match="epoch 0: non-fin"):
                    train(*late, together=[late, early])
            assert nncore._memo == {}
        assert len(sgd_runs) == before + 2


def test_train_config_has_no_batch_size_setting():
    assert TrainConfig(3, 0.05).batch_size == nncore.SGD_BATCH
    assert "batch_size" not in {f.name for f in fields(TrainConfig)}
    with pytest.raises(TypeError):
        TrainConfig(3, 0.05, batch_size=32)


def test_together_rejects_jobs_of_other_configs():
    a, b = stack_jobs("plain_ce", (64, 64), (1, 2))
    b[2] = replace(b[2], lr=0.1)
    with pytest.raises(ValueError, match="share a spec and a config"):
        nncore._train([a, b])


def test_together_jobs_train_in_one_loop_without_hits_or_duplicates(
        sgd_runs):
    case = list(blkd_case())
    label = list(CHANGES["label"](*case))
    teacher = list(CHANGES["teacher-weight"](*case))
    want = [train(*job) for job in (case, label, teacher)]
    batch = [case, label, label, teacher]
    before = len(sgd_runs)
    with nncore.reuse_training():
        assert_same_training(train(*case), want[0])
        assert len(sgd_runs) == before + 1
        assert_same_training(train(*teacher, together=batch), want[2])
        # one loop for the two jobs the memo lacks, in batch order, the
        # repeat folded in
        assert len(sgd_runs) == before + 2
        loop = sgd_runs[-1][0]
        assert len(loop) == 2 and loop[0] is label and loop[1] is teacher
        for job, result in zip((case, label, teacher), want):
            assert_same_training(train(*job, together=batch), result)
        assert len(sgd_runs) == before + 2
    assert nncore._memo is None
    # outside a memo block each call trains alone
    assert_same_training(train(*label, together=batch), want[1])
    assert_same_training(train(*case, together=batch), want[0])
    assert [len(args[0]) for args in sgd_runs[before + 2:]] == [1, 1]
