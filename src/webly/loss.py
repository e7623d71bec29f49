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
    """Per-class positive weights."""

    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if np.any(self.w <= 0) or not np.all(np.isfinite(self.w)):
            raise ValidationError("class weights must be positive and finite")


@dataclass
class LossReport:
    """Per-example losses and d(loss)/d(logits); the batch-mean ``loss`` (one
    per member of a stack) is computed when read."""

    per_example: np.ndarray
    logit_grads: np.ndarray

    @property
    def loss(self) -> float | np.ndarray:
        loss = self.per_example.sum(axis=-1) / self.per_example.shape[-1]
        return loss if self.per_example.ndim > 1 else float(loss)


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
    return ClassWeights(w=med / freqs)


def modulated_cross_entropy(posteriors: np.ndarray, labels, transition, w,
                            renormalize: bool = False) -> LossReport:
    """Weighted cross-entropy on transition-diffused scores.

    Per example with noisy label c the score is row c of the transition dotted
    with the posterior; the per-example loss is -w_c * log(max(score, 1e-12))
    and the scalar is the batch mean.  ``renormalize`` switches to the
    documented alternative that renormalizes the diffused scores across classes
    before the log (off by default).

    Posteriors may be an (M, batch, K) stack of members scored on one batch;
    the transition is then an (M, K, K) stack, one per member, and ``loss`` is
    the (M,) vector of member losses.  Labels and class weights are shared.

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
    if p.ndim not in (2, 3):
        raise ValidationError("posteriors must be a (batch, K) matrix or an "
                              "(M, batch, K) stack")
    *members, batch, k = p.shape
    if t.shape != (*members, k, k):
        raise ValidationError(f"transition is {t.shape}, posteriors are {p.shape}")
    if wv.shape != (k,):
        raise ValidationError(f"weights shape {wv.shape} != ({k},)")
    if labels.shape != (batch,):
        raise ValidationError("labels length must match batch size")
    if batch and (labels.min() < 0 or labels.max() >= k):
        raise ValidationError("label out of range")

    rows = t[..., labels, :]                   # (..., B, K): row per example
    wc = wv[labels]
    if not renormalize:
        return modulated_cross_entropy_rows(p, rows, -wc, wc / batch,
                                            np.empty(p.shape[:-1]), np.empty_like(p))

    m = p @ t.swapaxes(-1, -2)                 # (..., B, K) all diffused scores
    z = m.sum(axis=-1)
    m_label = m[..., np.arange(batch), labels]
    per_example = -wc * (np.log(np.maximum(m_label, LOG_EPS))
                         - np.log(np.maximum(z, LOG_EPS)))
    u = t.sum(axis=-2)                         # column sums
    gate_m = (m_label > LOG_EPS) / np.where(m_label > LOG_EPS, m_label, 1.0)
    gate_z = (z > LOG_EPS) / np.where(z > LOG_EPS, z, 1.0)
    grads = (wc / batch)[..., None] * p * (gate_z[..., None] * u[..., None, :]
                                           - gate_m[..., None] * rows)
    return LossReport(per_example=per_example, logit_grads=grads)


def modulated_cross_entropy_rows(p: np.ndarray, rows, neg_w, w_over_b,
                                 per_example: np.ndarray, logit_grads: np.ndarray
                                 ) -> LossReport:
    """The plain modulated loss of posteriors ``p`` (..., B, K) given each
    example's transition row ``rows`` (..., B, K), negated class weight
    ``neg_w`` and class weight over B ``w_over_b`` (B,), gathered by the
    caller; written into ``per_example`` (..., B) and ``logit_grads``
    (..., B, K).  Nothing is checked."""
    s = np.einsum("...bk,...bk->...b", rows, p, out=per_example)  # labeled-class score
    # d(mean loss)/d(logit_k) = (w_c/B) * (p_k - t_ck p_k / s); the whole
    # row vanishes where the score sits under the log clamp.
    active = s > LOG_EPS
    grads = np.multiply(rows, p, out=logit_grads)
    grads /= np.where(active, s, 1.0)[..., None]
    np.subtract(p, grads, out=grads)
    grads *= (w_over_b * active)[..., None]
    np.log(np.maximum(s, LOG_EPS, out=s), out=s)
    s *= neg_w
    return LossReport(per_example=s, logit_grads=grads)
