"""Reported metrics: confusion matrix, accuracy, Cohen's kappa, one-vs-rest AUC.

AUC uses the rank statistic with mid-ranks for ties, which equals trapezoidal
ROC integration; the test suite cross-checks it against brute-force pair
counting.  Argmax ties resolve to the lowest class index so confusion matrices
are reproducible.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .model import ModelParams, fingerprint, predict


@dataclass
class EvalReport:
    confusion: np.ndarray
    accuracy: float
    macro_recall: float
    kappa: float
    auc_per_class: list[float | None]
    auc_notes: dict[int, str]
    auc_mean: float | None
    per_class_counts: np.ndarray
    metadata: dict

    @property
    def total(self) -> int:
        return int(self.confusion.sum())


def confusion_matrix(true_labels, predicted_labels, num_classes: int) -> np.ndarray:
    """K x K integer matrix; entry (i, j) counts true class i predicted as j."""
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted_labels, dtype=np.int64)
    if t.shape != p.shape:
        raise ValidationError("label vectors must have equal length")
    if t.size and (t.min() < 0 or t.max() >= num_classes
                   or p.min() < 0 or p.max() >= num_classes):
        raise ValidationError(f"label out of range [0, {num_classes})")
    conf = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(conf, (t, p), 1)
    return conf


def accuracy(confusion: np.ndarray) -> float:
    """Overall top-1 accuracy: trace over total."""
    total = confusion.sum()
    if total == 0:
        raise ValidationError("empty confusion matrix")
    return float(np.trace(confusion) / total)


def macro_recall(confusion: np.ndarray) -> float:
    """Unweighted mean of per-class recall over classes present in the data."""
    row_sums = confusion.sum(axis=1)
    present = row_sums > 0
    if not present.any():
        raise ValidationError("empty confusion matrix")
    recalls = np.diag(confusion)[present] / row_sums[present]
    return float(recalls.mean())


def cohens_kappa(confusion: np.ndarray) -> float:
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e).

    When expected agreement p_e is 1 (all mass in one diagonal-aligned cell),
    returns 1 for perfect observed agreement and 0 otherwise.
    """
    total = confusion.sum()
    if total == 0:
        raise ValidationError("empty confusion matrix")
    p_o = np.trace(confusion) / total
    p_e = float(confusion.sum(axis=1) @ confusion.sum(axis=0)) / total ** 2
    if p_e == 1.0:
        return 1.0 if p_o == 1.0 else 0.0
    return float((p_o - p_e) / (1.0 - p_e))


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with tied values sharing the mean of their rank range."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def roc_auc_one_vs_rest(scores, is_positive) -> float:
    """AUC via the Mann-Whitney rank statistic with mid-ranks for ties."""
    s = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(is_positive, dtype=bool)
    if s.shape != pos.shape or s.ndim != 1:
        raise ValidationError("scores and is_positive must be equal-length vectors")
    n_pos = int(pos.sum())
    n_neg = len(pos) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("AUC needs at least one positive and one negative")
    ranks = _midranks(s)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def evaluate(params: ModelParams, ds) -> EvalReport:
    """Predict once, then derive every reported metric from the posteriors,
    or raise ValidationError naming the first row whose posterior is not finite.

    Per-class AUC is taken from posterior columns; a class with no positives
    (or no negatives) in the dataset gets a None AUC with a reason note and is
    excluded from the unweighted AUC mean.
    """
    if len(ds) == 0:
        raise ValidationError("cannot evaluate on an empty dataset")
    k = ds.num_classes
    if params.config.num_classes != k:
        raise ValidationError(
            f"model has {params.config.num_classes} classes, dataset has {k}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        posteriors = predict(params, ds)
    if not np.isfinite(posteriors.sum()):  # a NaN or an infinity anywhere
        bad = np.isfinite(posteriors).all(axis=1).argmin()
        raise ValidationError(f"row {ds.ids[bad]!r}: its features overflow the model "
                              "(non-finite posterior)")
    y = ds.y
    preds = posteriors.argmax(axis=1)          # ties go to the lowest index
    conf = confusion_matrix(y, preds, k)

    auc_per_class: list[float | None] = []
    notes: dict[int, str] = {}
    for c in range(k):
        pos = y == c
        n_pos = int(pos.sum())
        if n_pos == 0:
            auc_per_class.append(None)
            notes[c] = "class absent from dataset"
        elif n_pos == len(y):
            auc_per_class.append(None)
            notes[c] = "no negative examples"
        else:
            auc_per_class.append(roc_auc_one_vs_rest(posteriors[:, c], pos))
    defined = [a for a in auc_per_class if a is not None]
    return EvalReport(
        confusion=conf,
        accuracy=accuracy(conf),
        macro_recall=macro_recall(conf),
        kappa=cohens_kappa(conf),
        auc_per_class=auc_per_class,
        auc_notes=notes,
        auc_mean=float(np.mean(defined)) if defined else None,
        per_class_counts=conf.sum(axis=1),
        metadata={"model": fingerprint(params), "dataset": ds.name},
    )


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def report_timestamp() -> str:
    """ISO-8601 UTC timestamp; honors SOURCE_DATE_EPOCH for reproducible runs.

    A SOURCE_DATE_EPOCH that is not a whole number of seconds within the
    range of dates raises ValidationError naming the variable.
    """
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return datetime.now(tz=timezone.utc).isoformat()
    try:
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError):
        raise ValidationError(f"SOURCE_DATE_EPOCH={epoch!r}: expected a whole number "
                              "of seconds since 1970-01-01 within the range of "
                              "dates") from None


def write_eval_json(report: EvalReport, path: str | Path, timestamp: str) -> None:
    doc = {
        "dataset": report.metadata.get("dataset"),
        "model": report.metadata.get("model"),
        "confusion": report.confusion.tolist(),
        "accuracy": report.accuracy,
        "macro_recall": report.macro_recall,
        "kappa": report.kappa,
        "auc_per_class": report.auc_per_class,
        "auc_notes": {str(c): note for c, note in report.auc_notes.items()},
        "auc_mean": report.auc_mean,
        "per_class_counts": report.per_class_counts.tolist(),
        "timestamp": timestamp,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_eval_csv(report: EvalReport, path: str | Path) -> None:
    """Per-class rows for spreadsheet use: class, count, recall, auc."""
    row_sums = report.confusion.sum(axis=1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "count", "recall", "auc"])
        for c in range(report.confusion.shape[0]):
            recall = (repr(float(report.confusion[c, c] / row_sums[c]))
                      if row_sums[c] > 0 else "")
            auc = report.auc_per_class[c]
            writer.writerow([c, int(row_sums[c]), recall,
                             "" if auc is None else repr(float(auc))])


def write_features_csv(ids: list[str], features: np.ndarray,
                       path: str | Path) -> None:
    """id + penultimate-feature rows; floats use shortest exact repr."""
    if len(ids) != features.shape[0]:
        raise ValidationError("ids and feature rows must align")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"f{i}" for i in range(features.shape[1])])
        writer.writerows([ex_id, *row] for ex_id, row
                         in zip(ids, features.astype(np.float64, copy=False).tolist()))
