"""Class weighting and the transition-modulated weighted cross-entropy.

The modulated loss replaces each example's predicted probability with the
transition-diffused score s_c = sum_j t_cj * p_j, where c is the example's
(noisy) label, then applies the usual weighted negative log.  With an identity
transition this reduces bit-for-bit to plain weighted cross-entropy.
Gradients are taken with respect to the output-layer logits, through the
softmax and the linear modulation, for the batch-mean scalar loss.  The kernel
leaves the scores, and ``example_losses`` makes them losses, in training once
per epoch.
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


def modulated_cross_entropy(posteriors: np.ndarray, labels, transition, w) -> LossReport:
    """Weighted cross-entropy on transition-diffused scores.

    Per example with noisy label c the score s is row c of the transition
    dotted with the posterior; the per-example loss is -w_c * log(max(s,
    1e-12)) and the scalar is the batch mean.

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
    s = np.empty(p.shape[:-1])
    grads = modulated_cross_entropy_rows(p, rows, wc / batch, s, np.empty_like(p))
    return LossReport(per_example=example_losses(s, -wc), logit_grads=grads)


def modulated_cross_entropy_rows(p: np.ndarray, rows, w_over_b, s: np.ndarray,
                                 logit_grads: np.ndarray) -> np.ndarray:
    """The gradient for posteriors ``p`` (..., B, K), transition rows ``rows``
    (..., B, K) and class weights over B ``w_over_b`` (B,), into ``logit_grads``;
    the labeled-class scores go into ``s`` (..., B).  Unchecked."""
    np.einsum("...bk,...bk->...b", rows, p, out=s)  # labeled-class score
    active = s > LOG_EPS
    grads = np.multiply(rows, p, out=logit_grads)
    np.divide(grads, s[..., None], out=grads, where=active[..., None])  # t_ck p_k / s, unclamped
    # d(mean loss)/d(logit_k) = (w_c/B) * (p_k - t_ck p_k / s); the whole
    # row vanishes where the score sits under the log clamp.
    np.subtract(p, grads, out=grads)
    grads *= (w_over_b * active)[..., None]
    return grads


def example_losses(s: np.ndarray, neg_w) -> np.ndarray:
    """Per example -w_c log max(s, eps) into ``s``; ``neg_w`` is -w_c."""
    np.log(np.maximum(s, LOG_EPS, out=s), out=s)
    return np.multiply(s, neg_w, out=s)
