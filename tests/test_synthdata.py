import numpy as np
import pytest

from cgankd import rng, synthdata
from cgankd.synthdata import (BlobsConfig, ClassificationTask, Dataset,
                              RegressionTask, RingConfig, blob_centers,
                              class_budgets, concat, label_groups,
                              make_classification, make_regression, parse_kv,
                              split, write_dataset)
from nn_oracles import ring_true_label


def test_blobs_zero_noise_hits_centers():
    cfg = BlobsConfig(3, 2.0, 0.0, n=30, seed=1)
    ds = make_classification(cfg)
    mu = blob_centers(cfg)
    assert np.max(np.abs(ds.features - mu[ds.labels])) == 0.0


def test_blobs_uniform_allocation():
    ds = make_classification(BlobsConfig(4, 2.0, 0.5, n=400, seed=0))
    counts = np.bincount(ds.labels, minlength=4)
    assert np.array_equal(counts, [100, 100, 100, 100])


def test_class_budgets_give_the_remainder_to_the_first_classes():
    assert class_budgets(10, 4).tolist() == [3, 3, 2, 2]
    assert class_budgets(3, 4).tolist() == [1, 1, 1, 0]


def test_blobs_separable_by_nearest_centroid():
    cfg = BlobsConfig(3, 10.0, 0.4, n=300, seed=2)
    ds = make_classification(cfg)
    mu = blob_centers(cfg)
    d = np.linalg.norm(ds.features[:, None] - mu[None], axis=2)
    assert np.mean(d.argmin(axis=1) == ds.labels) == 1.0


def test_blobs_deterministic():
    a = make_classification(BlobsConfig(2, 2.0, 0.7, n=50, seed=9))
    b = make_classification(BlobsConfig(2, 2.0, 0.7, n=50, seed=9))
    assert np.array_equal(a.features, b.features)


def test_ring_zero_noise_is_deterministic_function():
    ds = make_regression(RingConfig(noise_std=0.0, n=200, seed=3))
    recovered = ring_true_label(ds.features)
    assert np.max(np.abs(recovered - ds.labels)) < 1e-12


def test_ring_labels_uniform_ks():
    ds = make_regression(RingConfig(noise_std=0.1, n=1000, seed=4))
    # one-sample KS statistic against Uniform[0, 1]
    y = np.sort(ds.labels)
    n = len(y)
    cdf = np.arange(1, n + 1) / n
    ks = max(np.max(np.abs(cdf - y)), np.max(np.abs(y - (cdf - 1.0 / n))))
    assert ks < 0.06


def test_ring_true_predictor_zero_mae():
    ds = make_regression(RingConfig(noise_std=0.0, n=100, seed=5))
    preds = ring_true_label(ds.features)
    assert np.mean(np.abs(preds - ds.labels)) < 1e-12


@pytest.mark.parametrize("task, labels, keys", [
    (ClassificationTask(3), [2, 0, 2, 1, 0, 2], [(0,), (1,), (2,)]),
    (ClassificationTask(3), [1, 1, 0], [(0,), (1,), (2,)]),
    (RegressionTask(), [0.5, 0.1, 0.9, 0.3], [()]),
], ids=["classes", "absent-class", "regression"])
def test_label_groups_cover_every_row_once(task, labels, keys):
    labels = np.asarray(labels)
    groups = label_groups(task, labels)
    assert [parts for parts, _ in groups] == keys
    rows = np.concatenate([idx for _, idx in groups])
    assert np.array_equal(np.sort(rows), np.arange(len(labels)))
    for parts, idx in groups:
        assert np.array_equal(idx, np.sort(idx))
        if parts:
            assert np.all(labels[idx] == parts[0])


def _order(key, n):
    """The counters 0..n-1 in the order of their raw draws under `key`."""
    return np.argsort(rng.raw64(key, np.arange(n)), kind="stable")


def test_split_keys_each_group_by_its_seed_parts():
    # A class's rows are permuted by the key ("split", seed, c), the
    # regression set's by ("split", seed): both outputs keep these keys.
    ds = make_regression(RingConfig(n=50, seed=3))
    train, _ = split(ds, 0.6, seed=9)
    order = _order(rng.derive_key("split", 9), 50)
    assert np.array_equal(train.labels, ds.labels[np.sort(order[:30])])

    ds = make_classification(BlobsConfig(2, 3.0, 0.5, n=40, seed=3))
    train, _ = split(ds, 0.5, seed=9)
    for c in (0, 1):
        idx = np.flatnonzero(ds.labels == c)
        order = _order(rng.derive_key("split", 9, c), len(idx))
        want = np.sort(idx[order][:10])
        assert np.array_equal(train.features[train.labels == c],
                              ds.features[want])


def test_split_stratified_80_20():
    ds = make_classification(BlobsConfig(4, 2.0, 0.5, n=400, seed=0))
    train, test = split(ds, 0.8, seed=1)
    for c in range(4):
        assert np.sum(train.labels == c) == 80
        assert np.sum(test.labels == c) == 20


def test_split_is_partition():
    ds = make_classification(BlobsConfig(3, 2.0, 0.5, n=90, seed=0))
    train, test = split(ds, 0.7, seed=2)
    joined = np.vstack([train.features, test.features])
    assert joined.shape[0] == ds.n
    key = lambda arr: sorted(map(tuple, arr))
    assert key(joined) == key(ds.features)


def test_split_deterministic():
    ds = make_regression(RingConfig(n=100, seed=1))
    a1, b1 = split(ds, 0.8, seed=7)
    a2, b2 = split(ds, 0.8, seed=7)
    assert np.array_equal(a1.features, a2.features)
    assert np.array_equal(b1.labels, b2.labels)


def test_split_rejects_tiny_class():
    task = ClassificationTask(2)
    ds = Dataset(task, np.zeros((3, 1)), np.array([0, 0, 1]))
    with pytest.raises(ValueError):
        split(ds, 0.5, seed=0)


def test_parse_kv_basics():
    kv = parse_kv("a=1\n# comment\n\nb.c = x\n".splitlines())
    assert kv == {"a": "1", "b.c": "x"}
    with pytest.raises(ValueError, match="duplicate"):
        parse_kv(["a=1", "a=2"])
    with pytest.raises(ValueError, match="key=value"):
        parse_kv(["nonsense"])


def _parse_written(path):
    """(header line, task and dim fields, label texts, provenance tags,
    features) of a written dataset file."""
    lines = path.read_text().splitlines()
    fields = parse_kv(lines[1].split() + [lines[2]])
    rows = [line.split(",") for line in lines[3:]]
    features = np.array([[float(v) for v in row[2:]] for row in rows])
    return (lines[0], fields, [row[0] for row in rows],
            [row[1] for row in rows], features)


def test_roundtrip_classification(tmp_path):
    ds = make_classification(BlobsConfig(3, 2.0, 0.8, n=60, seed=6))
    path = tmp_path / "ds.txt"
    write_dataset(ds, path, "real")
    header, fields, labels, prov, features = _parse_written(path)
    assert header == synthdata.FORMAT_HEADER
    assert fields == {"task": "classification", "C": "3", "dim": "2"}
    assert [int(v) for v in labels] == ds.labels.tolist()
    assert prov == ["real"] * ds.n
    assert np.array_equal(features, ds.features)


def test_roundtrip_regression(tmp_path):
    ds = make_regression(RingConfig(n=40, seed=7))
    path = tmp_path / "ds.txt"
    write_dataset(ds, path, "fake_m2")
    header, fields, labels, prov, features = _parse_written(path)
    assert header == synthdata.FORMAT_HEADER
    assert fields == {"task": "regression", "lo": "0.0", "hi": "1.0",
                      "dim": "2"}
    assert [float(v) for v in labels] == ds.labels.tolist()
    assert prov == ["fake_m2"] * ds.n
    assert np.array_equal(features, ds.features)


def test_dataset_rejects_labels_out_of_range():
    with pytest.raises(ValueError, match="class label out of range"):
        Dataset(ClassificationTask(3), np.zeros((1, 1)), np.array([3]))
    with pytest.raises(ValueError, match="outside"):
        Dataset(RegressionTask(), np.zeros((1, 1)),
                np.array([1.0000001]))


def test_concat_requires_matching_task():
    a = make_classification(BlobsConfig(2, 2.0, 0.5, n=10, seed=0))
    b = make_regression(RingConfig(n=10, seed=0))
    with pytest.raises(ValueError):
        concat(a, b)


def _reference_write_dataset(dataset, path, tag):
    """The per-element writer that `write_dataset` replaced."""
    with open(path, "w") as f:
        f.write(synthdata.FORMAT_HEADER + "\n")
        f.write(synthdata.task_line(dataset.task) + "\n")
        f.write(f"dim={dataset.dim}\n")
        for i in range(dataset.n):
            if dataset.task.kind == "classification":
                lab = str(int(dataset.labels[i]))
            else:
                lab = repr(float(dataset.labels[i]))
            row = [lab, tag]
            row += [repr(float(v)) for v in dataset.features[i]]
            f.write(",".join(row) + "\n")


@pytest.mark.parametrize("n", [0, 1, synthdata._WRITE_BLOCK,
                               2 * synthdata._WRITE_BLOCK + 5])
def test_write_dataset_bytes_match_per_element_writer(tmp_path, n):
    three_columns = Dataset(ClassificationTask(4),
                            np.random.default_rng(3).normal(size=(3000, 3)),
                            np.arange(3000) % 4)
    for full, tag in (
            (make_classification(BlobsConfig(3, 2.0, 0.8, n=3000, seed=1)),
             "fake_m1"),
            (three_columns, "fake_m2"),
            (make_regression(RingConfig(n=3000, seed=2)), "real")):
        ds = full.subset(np.arange(n))
        write_dataset(ds, tmp_path / "got.txt", tag)
        _reference_write_dataset(ds, tmp_path / "want.txt", tag)
        assert (tmp_path / "got.txt").read_bytes() == \
            (tmp_path / "want.txt").read_bytes()
