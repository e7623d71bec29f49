"""Class weighting and the transition-modulated weighted cross-entropy.

The modulated loss replaces each example's predicted probability with the
transition-diffused score s_c = sum_j t_cj * p_j, where c is the example's
(noisy) label, then applies the usual weighted negative log.  With an identity
transition this reduces bit-for-bit to plain weighted cross-entropy.  Gradients
are taken with respect to the output-layer logits, through the softmax and the
linear modulation, for the batch-mean scalar loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_row_stochastic
from .errors import ValidationError
from .noise import TransitionMatrix

LOG_EPS = 1e-12


@dataclass
class ClassWeights:
    """Per-class positive weights plus the counts they were derived from."""

    w: np.ndarray
    source_counts: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if np.any(self.w <= 0) or not np.all(np.isfinite(self.w)):
            raise ValidationError("class weights must be positive and finite")


@dataclass
class LossReport:
    """Scalar batch-mean loss, per-example losses, and d(loss)/d(logits)."""

    loss: float
    per_example: np.ndarray
    logit_grads: np.ndarray


def median_frequency_weights(label_counts) -> ClassWeights:
    """w_c = median(freq) / freq_c over the per-class label frequencies.

    The median of an even-length list is the mean of the two middle values.
    Uniform counts give weights of exactly 1.
    """
    counts = np.asarray(label_counts, dtype=np.int64)
    if counts.ndim != 1 or len(counts) < 1:
        raise ValidationError("label_counts must be a 1-D vector")
    if np.any(counts < 1):
        absent = np.nonzero(counts < 1)[0]
        raise ValidationError(
            f"class absent from training data: {absent.tolist()}"
        )
    freqs = counts / counts.sum()
    med = np.median(freqs)
    return ClassWeights(w=med / freqs, source_counts=counts)


def modulated_cross_entropy(posteriors: np.ndarray, labels, transition, w,
                            renormalize: bool = False) -> LossReport:
    """Weighted cross-entropy on transition-diffused scores.

    Per example with noisy label c the score is row c of the transition dotted
    with the posterior; the per-example loss is -w_c * log(max(score, 1e-12))
    and the scalar is the batch mean.  ``renormalize`` switches to the
    documented alternative that renormalizes the diffused scores across classes
    before the log (off by default).

    A ``TransitionMatrix`` and ``ClassWeights`` were checked when built and are
    trusted; a raw transition array is checked to be row-stochastic.  Shapes
    and label range are checked on every call.
    """
    p = np.asarray(posteriors, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if isinstance(transition, TransitionMatrix):
        t = transition.entries
    else:
        t = np.asarray(transition, dtype=np.float64)
        check_row_stochastic(t, "transition")
    wv = w.w if isinstance(w, ClassWeights) else np.asarray(w, dtype=np.float64)
    if p.ndim != 2:
        raise ValidationError("posteriors must be a (batch, K) matrix")
    batch, k = p.shape
    if t.shape != (k, k):
        raise ValidationError(f"transition is {t.shape}, posteriors have K={k}")
    if wv.shape != (k,):
        raise ValidationError(f"weights shape {wv.shape} != ({k},)")
    if labels.shape != (batch,):
        raise ValidationError("labels length must match batch size")
    if np.any(labels < 0) or np.any(labels >= k):
        raise ValidationError("label out of range")

    rows = t[labels]                       # (B, K): transition row per example
    s = np.einsum("bk,bk->b", rows, p)     # diffused score of the labeled class
    wc = wv[labels]

    if not renormalize:
        per_example = -wc * np.log(np.maximum(s, LOG_EPS))
        # d(mean loss)/d(logit_k) = (w_c/B) * (p_k - t_ck p_k / s); the whole
        # row vanishes where the score sits under the log clamp.
        active = (s > LOG_EPS).astype(np.float64)
        safe_s = np.where(s > LOG_EPS, s, 1.0)
        grads = (wc * active / batch)[:, None] * (p - rows * p / safe_s[:, None])
    else:
        m = p @ t.T                        # (B, K) diffused scores, all classes
        z = m.sum(axis=1)
        m_label = m[np.arange(batch), labels]
        per_example = -wc * (np.log(np.maximum(m_label, LOG_EPS))
                             - np.log(np.maximum(z, LOG_EPS)))
        u = t.sum(axis=0)                  # column sums
        gate_m = (m_label > LOG_EPS) / np.where(m_label > LOG_EPS, m_label, 1.0)
        gate_z = (z > LOG_EPS) / np.where(z > LOG_EPS, z, 1.0)
        grads = (wc / batch)[:, None] * p * (gate_z[:, None] * u[None, :]
                                             - gate_m[:, None] * rows)

    return LossReport(loss=float(per_example.mean()),
                      per_example=per_example, logit_grads=grads)


def plain_weighted_cross_entropy(posteriors: np.ndarray, labels, w) -> LossReport:
    """Weighted cross-entropy without noise correction (identity transition)."""
    k = np.asarray(posteriors).shape[1]
    return modulated_cross_entropy(posteriors, labels, np.eye(k), w)
