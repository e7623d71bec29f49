"""Shared helpers: random valid inputs and the finite-difference gradient oracle."""

import csv
import dataclasses

import numpy as np
from hypothesis import strategies as st

from webly.data import CleanSpec, synth_clean
from webly.loss import modulated_cross_entropy
from webly.model import ModelConfig, ModelParams, backward, forward, init_params


# Text of any characters, often ones the CSV dialect quotes (and NUL, which
# csv.writer rejects on Python 3.10), and finite floats of every repr form
csv_texts = st.text(st.sampled_from(',"\r\n\x00') | st.characters(codec="utf-8"),
                    max_size=6)
csv_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.1, 1e-05, 1e+16, -0.0, 5e-324, 1.7976931348623157e+308, 3.0])


def csv_outcome(write, path, *args):
    """The bytes ``write(*args, path)`` writes, or the csv.Error it raises."""
    try:
        write(*args, path)
    except csv.Error as exc:
        return repr(exc)
    return path.read_bytes()


def random_transition(k, rng):
    """Row-stochastic matrix with all entries bounded away from zero."""
    rows = rng.uniform(0.2, 1.0, size=(k, k))
    return rows / rows.sum(axis=1, keepdims=True)


def pair_flip_transition(k, diagonal=0.6):
    """Pair-flip matrix: ``diagonal`` on the diagonal, the rest on class i+1
    mod k, zero elsewhere, so a posterior on a zero entry scores nothing."""
    return diagonal * np.eye(k) + (1 - diagonal) * np.roll(np.eye(k), 1, axis=1)


def make_clean_dataset(k=3, d=None, per_class=20, separation=8.0, sigma=0.5,
                       seed=0, groups_per_class=4):
    """Axis-aligned Gaussian mixture; separation is in feature units."""
    d = k if d is None else d
    means = np.zeros((k, d))
    for c in range(k):
        means[c, c % d] = separation
    spec = CleanSpec(num_classes=k, feature_dim=d, class_means=means,
                     sigma=sigma, class_counts=[per_class] * k,
                     groups_per_class=groups_per_class, seed=seed)
    return synth_clean(spec)


def fd_max_rel_error(cfg: ModelConfig, batch_size=8, n_coords=100, h=1e-4,
                     seed=0, keep_prob=0.8, dropout_seed=1234):
    """Max relative error between analytic and central-difference gradients.

    The end-to-end scalar is the modulated weighted cross-entropy of a
    train-mode forward pass (fixed dropout seed, so both finite-difference
    evaluations see the same mask).  Relative error is
    |a - n| / max(|a|, |n|, 1e-8), maximized over sampled coordinates.

    Central differences are only meaningful where the loss is differentiable,
    so the instance is re-drawn (deterministically) until every ReLU
    preactivation sits well clear of its kink; with zero-initialized biases a
    fully dropped hidden row otherwise lands a preactivation at exactly 0.
    """
    cfg = dataclasses.replace(cfg, dropout_keep_prob=keep_prob)
    for attempt in range(50):
        rng = np.random.default_rng((seed, attempt))
        params = init_params(cfg)
        x = rng.normal(size=(batch_size, cfg.input_dim))
        labels = rng.integers(0, cfg.num_classes, size=batch_size)
        t = random_transition(cfg.num_classes, rng)
        w = rng.uniform(0.5, 2.0, size=cfg.num_classes)
        _, probe = forward(params, x, train=True, dropout_seed=dropout_seed)
        margins = [np.abs(z).min() for z in probe.pre_activations]
        if not margins or min(margins) > 50 * h:
            break
    else:
        raise RuntimeError("no kink-free instance found")

    def scalar_loss(p: ModelParams) -> float:
        posteriors, _ = forward(p, x, train=True, dropout_seed=dropout_seed)
        return modulated_cross_entropy(posteriors, labels, t, w).loss

    posteriors, cache = forward(params, x, train=True, dropout_seed=dropout_seed)
    report = modulated_cross_entropy(posteriors, labels, t, w)
    analytic = backward(cache, report.logit_grads)

    total = params.flat.size
    coords = rng.choice(total, size=min(n_coords, total), replace=False)

    worst = 0.0
    for i in coords:
        def loss_at(delta):
            perturbed = params.copy()
            perturbed.flat[i] += delta
            return scalar_loss(perturbed)

        numeric = (loss_at(h) - loss_at(-h)) / (2.0 * h)
        a = float(analytic[i])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst
