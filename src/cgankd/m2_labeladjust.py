"""Distill teacher knowledge into fake samples: quantile filtering and,
for regression, label replacement.

Filtering drops samples whose teacher-vs-assigned-label error exceeds the
rho-th quantile (nearest-rank, inclusive keep) of their label group: per
class for classification, one global threshold for regression.  rho=1 keeps
everything; rho=0 is special-cased to keep nothing.  Classification labels
are never changed, only scored as the teacher's consistency with them.
Replacement overwrites each surviving regression label with the teacher's
prediction, clamped to [0, 1].  Each filter runs the teacher once over all
fakes, and regression relabels the kept ones from that same pass.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import nncore
from .nncore import NetParams, softmax
from .synthdata import Dataset, label_groups

_QUANTILE_FUZZ = 1e-9  # absorbs float error in rho * n before ceil


@dataclass
class FilterReport:
    thresholds: dict        # class index -> alpha, or {"global": alpha}
    counts_in: dict         # per group (as in thresholds) plus "total"
    counts_out: dict
    consistency_before: float = None  # classification only
    consistency_after: float = None   # None also when nothing is kept


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


def _filter(fakes: Dataset, errors: np.ndarray, rho: float):
    """Quantile filtering within each label group of the fakes; returns
    (keep mask, report without consistencies)."""
    keep = np.zeros(fakes.n, dtype=bool)
    report = FilterReport({}, {}, {})
    for parts, idx in label_groups(fakes.task, fakes.labels):
        group = parts[0] if parts else "global"
        alpha = report.thresholds[group] = quantile_threshold(errors[idx], rho)
        keep[idx] = errors[idx] <= alpha
        report.counts_in[group] = len(idx)
        report.counts_out[group] = int(keep[idx].sum())
    report.counts_in["total"] = fakes.n
    report.counts_out["total"] = int(keep.sum())
    return keep, report


def filter_classification(teacher: NetParams, fakes: Dataset, rho: float):
    """Per-class quantile filtering; returns (kept set, report)."""
    if fakes.task.kind != "classification":
        raise ValueError("classification filter on non-classification data")
    # bincount, unlike setdiff1d, leaves numpy.ma unloaded: no stage needs it
    missing = np.flatnonzero(
        np.bincount(fakes.labels, minlength=fakes.task.n_classes) == 0)
    if missing.size:
        raise ValueError(f"classes absent from the fake set: {missing.tolist()}")
    # One teacher pass gives the errors and both consistencies; the kept
    # set's consistency reads its rows through the keep mask.
    nncore.check_head(teacher.spec, fakes.task, "teacher")
    logits = nncore.forward_batch(teacher, fakes.features)
    keep, report = _filter(fakes, _errors(logits, fakes), rho)
    agree = logits.argmax(axis=1) == fakes.labels
    report.consistency_before = float(np.mean(agree))
    report.consistency_after = float(agree[keep].mean()) if keep.any() else None
    return fakes.subset(keep), report


def filter_regression(teacher: NetParams, fakes: Dataset, rho: float):
    """Global-threshold quantile filtering, then label replacement from the
    same teacher pass; returns (kept set, relabelled kept set, report)."""
    if fakes.task.kind != "regression":
        raise ValueError("regression filter on non-regression data")
    if fakes.n == 0:
        raise ValueError("empty fake set")
    nncore.check_head(teacher.spec, fakes.task, "teacher")
    preds = nncore.forward_batch(teacher, fakes.features)
    keep, report = _filter(fakes, _errors(preds, fakes), rho)
    kept = fakes.subset(keep)
    return kept, replace_labels(kept, preds[keep, 0]), report


def replace_labels(fakes: Dataset, preds: np.ndarray) -> Dataset:
    """Pseudo-labeling: overwrite assigned labels with the teacher's
    predictions on the same rows, clamped to [0, 1]."""
    if fakes.task.kind != "regression":
        raise ValueError("label replacement is enabled for regression only")
    return Dataset(fakes.task, fakes.features, np.clip(preds, 0.0, 1.0))


def run_m2(teacher: NetParams, fakes: Dataset, rho: float):
    """Module M2: the fakes' quantile filter, with label replacement for
    regression.  Returns (filtered, adjusted, report), where adjusted is
    filtered for classification."""
    if fakes.task.kind == "classification":
        kept, report = filter_classification(teacher, fakes, rho)
        return kept, kept, report
    return filter_regression(teacher, fakes, rho)
