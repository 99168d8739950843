"""Synthetic conditional dataset families, the dataset file writer and the
key=value line codec that every cgankd text file shares.

Two families stand in for real data: 2-D Gaussian blobs on a circle
(classification) and a spiral "ring" curve with uniform scalar labels in
[0, 1] (regression).  The dimension (2), the ring's radii and the label
range are constants, not settings, so MAE is reported in label units.

Dataset files are written for inspection; `cgankd run <manifest>` rewrites
them bit for bit, so nothing reads them back.
"""

from dataclasses import dataclass
from itertools import repeat
from typing import Union

import numpy as np

from . import rng

FORMAT_HEADER = "cgankd-dataset v1"
_WRITE_BLOCK = 1024  # dataset rows converted and written at a time


@dataclass(frozen=True)
class ClassificationTask:
    n_classes: int

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("classification needs at least 2 classes")

    kind = "classification"


@dataclass(frozen=True)
class RegressionTask:
    kind = "regression"


Task = Union[ClassificationTask, RegressionTask]


@dataclass
class Dataset:
    task: Task
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray    # (n,) int64 or float64

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        n = self.features.shape[0]
        if self.task.kind == "classification":
            self.labels = np.asarray(self.labels, dtype=np.int64)
        else:
            self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.labels.shape != (n,):
            raise ValueError("labels/features length mismatch")
        if n and not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite features")
        if n:
            self._check_labels()

    def _check_labels(self):
        if self.task.kind == "classification":
            if self.labels.min() < 0 or self.labels.max() >= self.task.n_classes:
                raise ValueError("class label out of range")
        else:
            if self.labels.min() < 0.0 or self.labels.max() > 1.0:
                raise ValueError("regression label outside [0, 1]")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.task, self.features[idx], self.labels[idx])


def concat(a: Dataset, b: Dataset) -> Dataset:
    if a.task != b.task or a.dim != b.dim:
        raise ValueError("datasets disagree on task or dimension")
    return Dataset(a.task,
                   np.vstack([a.features, b.features]),
                   np.concatenate([a.labels, b.labels]))


@dataclass(frozen=True)
class BlobsConfig:
    """2-D Gaussian blobs, class means on a circle of radius `separation`."""
    n_classes: int
    separation: float
    noise_std: float
    n: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("blobs need n_classes >= 2")
        if self.noise_std < 0:
            raise ValueError("noise_std must be nonnegative")

    @property
    def task(self) -> Task:
        return ClassificationTask(self.n_classes)

    dim = 2


@dataclass(frozen=True)
class RingConfig:
    """Spiral curve: label y ~ U[0,1], point at angle 2*pi*y and radius
    radius_base + radius_slope * y, plus isotropic Gaussian noise.

    The radii are constants.  Their nonzero slope keeps y=0 and y=1 apart in
    radius, and a radius positive for every label (2 to 3.5) keeps each point
    on the side its angle names, so the noiseless map from features back to
    the label is invertible (angle determines y).
    """
    noise_std: float = 0.1
    n: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.noise_std < 0:
            raise ValueError("noise_std must be nonnegative")

    @property
    def task(self) -> Task:
        return RegressionTask()

    dim = 2
    radius_base = 2.0
    radius_slope = 1.5


SynthConfig = Union[BlobsConfig, RingConfig]


def blob_centers(cfg: BlobsConfig) -> np.ndarray:
    """(C, 2) class means on a circle of radius `separation`."""
    angles = 2.0 * np.pi * np.arange(cfg.n_classes) / cfg.n_classes
    mu = np.zeros((cfg.n_classes, cfg.dim))
    mu[:, 0] = cfg.separation * np.cos(angles)
    mu[:, 1] = cfg.separation * np.sin(angles)
    return mu


def blob_features(cfg: BlobsConfig, classes: np.ndarray, key: int,
                  counters: np.ndarray) -> np.ndarray:
    """Class-conditional blob draws, pure in (key, counter)."""
    noise = rng.row_normals(key, counters, cfg.dim)
    return blob_centers(cfg)[classes] + cfg.noise_std * noise


def class_budgets(n: int, n_classes: int) -> np.ndarray:
    """n split over the classes: n // C each, one more for the first n % C."""
    counts = np.full(n_classes, n // n_classes)
    counts[: n % n_classes] += 1
    return counts


def make_classification(cfg: BlobsConfig) -> Dataset:
    labels = np.repeat(np.arange(cfg.n_classes),
                       class_budgets(cfg.n, cfg.n_classes))
    key = rng.derive_key("blobs", cfg.seed)
    feats = blob_features(cfg, labels, key, np.arange(cfg.n, dtype=np.uint64))
    return Dataset(cfg.task, feats, labels)


def ring_point(cfg: RingConfig, y: np.ndarray) -> np.ndarray:
    angle = 2.0 * np.pi * y
    radius = cfg.radius_base + cfg.radius_slope * y
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)


def ring_features(cfg: RingConfig, y: np.ndarray, key: int,
                  counters: np.ndarray) -> np.ndarray:
    noise = rng.row_normals(key, counters, 2)
    return ring_point(cfg, y) + cfg.noise_std * noise


def make_regression(cfg: RingConfig) -> Dataset:
    key_y = rng.derive_key("ring-labels", cfg.seed)
    key_x = rng.derive_key("ring-feats", cfg.seed)
    y = rng.uniforms(key_y, np.arange(cfg.n, dtype=np.uint64))
    feats = ring_features(cfg, y, key_x, np.arange(cfg.n, dtype=np.uint64))
    return Dataset(cfg.task, feats, y)


def make_dataset(cfg: SynthConfig) -> Dataset:
    if isinstance(cfg, BlobsConfig):
        return make_classification(cfg)
    return make_regression(cfg)


def label_groups(task: Task, labels: np.ndarray):
    """The groups that split, M1 and M2 each treat on their own, as
    (seed parts, row indices) pairs: ((c,), rows of class c) for each class,
    or ((), every row) for regression."""
    if task.kind == "classification":
        return [((c,), np.flatnonzero(labels == c))
                for c in range(task.n_classes)]
    return [((), np.arange(len(labels)))]


def check_splittable(task: Task, sizes) -> None:
    """Raises ValueError unless every group has the 2 rows `split` needs to
    put one on each side.  `sizes` holds the row count of each class, or of
    the whole set for regression."""
    for group, size in enumerate(sizes):
        if size < 2:
            name = (f"class {group}" if task.kind == "classification"
                    else "the dataset")
            raise ValueError(f"{name} has too few rows to split ({size} < 2)")


def split(dataset: Dataset, train_fraction: float, seed: int):
    """Disjoint (train, test) partition, drawn per label group."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    groups = label_groups(dataset.task, dataset.labels)
    check_splittable(dataset.task, [len(idx) for _, idx in groups])
    train_idx, test_idx = [], []
    for parts, idx in groups:
        idx = idx[rng.permutation(rng.derive_key("split", seed, *parts),
                                  len(idx))]
        k = int(round(train_fraction * len(idx)))
        k = min(max(k, 1), len(idx) - 1)
        train_idx.append(idx[:k])
        test_idx.append(idx[k:])
    return (dataset.subset(np.sort(np.concatenate(train_idx))),
            dataset.subset(np.sort(np.concatenate(test_idx))))


def _kv_value(value) -> str:
    if isinstance(value, np.ndarray):
        return ",".join(repr(float(v)) for v in value.ravel())
    if isinstance(value, tuple):
        return ",".join(_kv_value(v) for v in value)
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def kv_lines(pairs) -> list:
    """`key=value` lines; floats and float arrays use shortest round-trip
    repr() decimals, so parsing them back is value-exact."""
    return [f"{key}={_kv_value(value)}" for key, value in pairs]


def parse_kv(lines) -> dict:
    """Strict inverse of `kv_lines`: skips blank and '#' lines, rejects a
    line without '=' or a repeated key with ValueError naming the line."""
    out = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def task_line(task: Task) -> str:
    if task.kind == "classification":
        return f"task=classification C={task.n_classes}"
    return "task=regression lo=0.0 hi=1.0"


def write_dataset(dataset: Dataset, path, tag: str) -> None:
    """Header, then one `label,provenance,features...` row per sample, with
    the one provenance `tag` of the file's stage in every row.

    Values are the Python ints and floats of `tolist()`, written with
    repr() a column at a time and joined per row, `_WRITE_BLOCK` rows per
    write so memory stays bounded.
    """
    with open(path, "w") as f:
        f.write(f"{FORMAT_HEADER}\n{task_line(dataset.task)}\n"
                f"dim={dataset.dim}\n")
        for i in range(0, dataset.n, _WRITE_BLOCK):
            part = slice(i, i + _WRITE_BLOCK)
            columns = [map(repr, col)
                       for col in dataset.features[part].T.tolist()]
            rows = zip(map(repr, dataset.labels[part].tolist()), repeat(tag),
                       *columns)
            f.write("\n".join(map(",".join, rows)) + "\n")

