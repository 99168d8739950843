"""Distill teacher knowledge into fake samples: quantile filtering and,
for regression, label replacement.

Filtering drops samples whose teacher-vs-assigned-label error exceeds the
rho-th quantile (nearest-rank, inclusive keep): per class for classification,
one global threshold for regression.  rho=1 keeps everything; rho=0 is
special-cased to keep nothing.  Replacement overwrites each surviving
regression label with the teacher's prediction, clamped to [0, 1].
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import nncore
from .nncore import NetParams, softmax
from .synthdata import Dataset

_QUANTILE_FUZZ = 1e-9  # absorbs float error in rho * n before ceil


@dataclass
class FilterReport:
    rho: float
    thresholds: dict        # class index -> alpha, or {"global": alpha}
    counts_in: dict         # per group plus "total"
    counts_out: dict
    consistency_before: float = None  # classification only
    consistency_after: float = None
    error_quantiles: dict = field(default_factory=dict)


def _teacher_outputs(teacher: NetParams, samples: Dataset) -> np.ndarray:
    """The teacher's outputs on the samples, after checking that its head
    matches their task."""
    nncore.check_head(teacher.spec, samples.task, "teacher")
    return nncore.forward_batch(teacher, samples.features)


def _errors(outputs: np.ndarray, samples: Dataset) -> np.ndarray:
    """Per-sample teacher-vs-assigned-label error from the teacher's outputs.

    Classification: cross entropy of the assigned one-hot label against the
    teacher's soft prediction, -log p_t[assigned].  Regression: absolute
    error |f_t(x) - y|.
    """
    if samples.task.kind == "classification":
        probs = softmax(outputs)  # soft predicted labels at T=1
        picked = probs[np.arange(samples.n), samples.labels]
        return -np.log(np.maximum(picked, nncore.PROB_FLOOR))
    return np.abs(outputs[:, 0] - samples.labels)


def sample_errors(teacher: NetParams, samples: Dataset) -> np.ndarray:
    """Per-sample teacher-vs-assigned-label error, order-preserving."""
    return _errors(_teacher_outputs(teacher, samples), samples)


def quantile_threshold(errors: np.ndarray, rho: float) -> float:
    """Nearest-rank rho-quantile; -inf sentinel at rho=0 (keep nothing).

    Raises ValueError on a non-finite error: NaN fails every keep test, so
    it would silently empty the filtered set.
    """
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("empty errors")
    if not np.isfinite(errors).all():
        raise ValueError("non-finite teacher errors")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    if rho == 0.0:
        return -math.inf
    k = math.ceil(rho * errors.size - _QUANTILE_FUZZ)
    k = min(max(k, 1), errors.size)
    return float(np.sort(errors)[k - 1])


def _error_summary(errors: np.ndarray) -> dict:
    qs = np.percentile(errors, [0, 25, 50, 75, 100])
    return {"min": float(qs[0]), "q25": float(qs[1]), "q50": float(qs[2]),
            "q75": float(qs[3]), "max": float(qs[4])}


def filter_classification(teacher: NetParams, fakes: Dataset, rho: float):
    """Per-class quantile filtering; returns (kept set, report)."""
    if fakes.task.kind != "classification":
        raise ValueError("classification filter on non-classification data")
    n_classes = fakes.task.n_classes
    present = np.bincount(fakes.labels, minlength=n_classes)
    missing = np.flatnonzero(present == 0)
    if missing.size:
        raise ValueError(f"classes absent from the fake set: {missing.tolist()}")
    # One teacher pass gives the errors and both consistencies; the kept
    # set's consistency reads its rows through the keep mask.
    logits = _teacher_outputs(teacher, fakes)
    errors = _errors(logits, fakes)
    keep = np.zeros(fakes.n, dtype=bool)
    thresholds, counts_in, counts_out = {}, {}, {}
    for c in range(n_classes):
        mask = fakes.labels == c
        alpha = quantile_threshold(errors[mask], rho)
        keep[mask] = errors[mask] <= alpha
        thresholds[c] = alpha
        counts_in[c] = int(mask.sum())
        counts_out[c] = int(keep[mask].sum())
    counts_in["total"] = fakes.n
    counts_out["total"] = int(keep.sum())
    kept = fakes.subset(keep)
    agree = logits.argmax(axis=1) == fakes.labels
    report = FilterReport(
        rho=rho, thresholds=thresholds, counts_in=counts_in,
        counts_out=counts_out,
        consistency_before=float(np.mean(agree)),
        consistency_after=float(np.mean(agree[keep])) if kept.n else 0.0,
        error_quantiles=_error_summary(errors))
    return kept, report


def filter_regression(teacher: NetParams, fakes: Dataset, rho: float):
    """Global-threshold quantile filtering; returns (kept set, report)."""
    if fakes.task.kind != "regression":
        raise ValueError("regression filter on non-regression data")
    if fakes.n == 0:
        raise ValueError("empty fake set")
    errors = sample_errors(teacher, fakes)
    alpha = quantile_threshold(errors, rho)
    keep = errors <= alpha
    kept = fakes.subset(keep)
    report = FilterReport(
        rho=rho, thresholds={"global": alpha},
        counts_in={"total": fakes.n}, counts_out={"total": int(keep.sum())},
        error_quantiles=_error_summary(errors))
    return kept, report


def replace_labels(teacher: NetParams, fakes: Dataset) -> Dataset:
    """Pseudo-labeling: overwrite assigned labels with teacher predictions."""
    if fakes.task.kind != "regression":
        raise ValueError("label replacement is enabled for regression only")
    preds = nncore.forward_batch(teacher, fakes.features)[:, 0]
    labels = np.clip(preds, 0.0, 1.0)
    return Dataset(fakes.task, fakes.features, labels)


def filter_fakes(teacher: NetParams, fakes: Dataset, rho: float):
    """The quantile filter of the fakes' task; returns (kept set, report)."""
    if fakes.task.kind == "classification":
        return filter_classification(teacher, fakes, rho)
    return filter_regression(teacher, fakes, rho)


def adjust_labels(teacher: NetParams, kept: Dataset) -> Dataset:
    """M2's label step: replacement for non-empty regression sets, no
    change otherwise."""
    if kept.task.kind == "regression" and kept.n:
        return replace_labels(teacher, kept)
    return kept


def run_m2(teacher: NetParams, fakes: Dataset, rho: float):
    """Filter, then (regression only) replace labels."""
    kept, report = filter_fakes(teacher, fakes, rho)
    return adjust_labels(teacher, kept), report
