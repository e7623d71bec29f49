"""Tests for median-frequency weights and the modulated cross-entropy."""

import math

import numpy as np
import pytest

from conftest import random_transition
from webly.errors import ValidationError
from webly.loss import (
    LOG_EPS,
    ClassWeights,
    median_frequency_weights,
    modulated_cross_entropy,
)
from webly.model import softmax


def random_posteriors(rng, batch, k):
    return softmax(rng.normal(scale=2.0, size=(batch, k)))


class TestMedianFrequencyWeights:
    def test_hand_computed_example(self):
        # counts (10, 20, 40): freqs (1/7, 2/7, 4/7), median 2/7
        cw = median_frequency_weights([10, 20, 40])
        assert cw.w.tolist() == [2.0, 1.0, 0.5]

    def test_uniform_counts_give_unit_weights(self):
        for k in (2, 3, 4, 7):
            cw = median_frequency_weights([13] * k)
            assert cw.w.tolist() == [1.0] * k

    def test_extreme_imbalance(self):
        cw = median_frequency_weights([1, 1, 98])
        # freqs (0.01, 0.01, 0.98), median 0.01
        expected = [0.01 / 0.01, 0.01 / 0.01, 0.01 / 0.98]
        np.testing.assert_allclose(cw.w, expected, rtol=1e-12)

    def test_even_length_median_is_mean_of_middles(self):
        cw = median_frequency_weights([10, 20, 30, 40])
        med = (20 + 30) / 2 / 100
        np.testing.assert_allclose(cw.w, med / (np.array([10, 20, 30, 40]) / 100),
                                   rtol=1e-12)

    def test_zero_count_rejected(self):
        with pytest.raises(ValidationError, match="absent"):
            median_frequency_weights([5, 0, 3])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValidationError):
            ClassWeights(w=np.array([1.0, 0.0]))


class TestModulatedCrossEntropy:
    def test_hand_computed_two_class_example(self):
        # p = (0.6, 0.4), T = [[0.9, 0.1], [0.2, 0.8]], label 0, w_0 = 1:
        # s_0 = 0.9*0.6 + 0.1*0.4 = 0.58, loss = -ln 0.58
        p = np.array([[0.6, 0.4]])
        t = np.array([[0.9, 0.1], [0.2, 0.8]])
        report = modulated_cross_entropy(p, [0], t, np.array([1.0, 1.0]))
        assert abs(report.loss - (-math.log(0.58))) < 1e-12

    def test_identity_transition_reduces_to_plain_weighted_ce(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            batch = int(rng.integers(1, 9))
            p = random_posteriors(rng, batch, k)
            labels = rng.integers(0, k, size=batch)
            w = rng.uniform(0.5, 3.0, size=k)
            got = modulated_cross_entropy(p, labels, np.eye(k), w)
            # the closed form of weighted cross-entropy: -w_c log p_c
            expected = -w[labels] * np.log(p[np.arange(batch), labels])
            assert np.max(np.abs(got.per_example - expected)) < 1e-15

    def test_uniform_transition_destroys_all_signal(self):
        rng = np.random.default_rng(1)
        k = 4
        p = random_posteriors(rng, 6, k)
        labels = rng.integers(0, k, size=6)
        w = np.ones(k)
        report = modulated_cross_entropy(p, labels, np.full((k, k), 1 / k), w)
        np.testing.assert_allclose(report.per_example, math.log(k), atol=1e-12)
        assert np.max(np.abs(report.logit_grads)) < 1e-14

    def test_scalar_is_mean_of_per_example_losses(self):
        rng = np.random.default_rng(2)
        p = random_posteriors(rng, 10, 3)
        labels = rng.integers(0, 3, size=10)
        report = modulated_cross_entropy(p, labels, random_transition(3, rng),
                                         rng.uniform(0.5, 2, 3))
        assert report.loss == pytest.approx(report.per_example.mean(), abs=1e-15)

    def test_logit_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            k = int(rng.integers(2, 6))
            batch = int(rng.integers(1, 7))
            z = rng.normal(scale=2.0, size=(batch, k))
            labels = rng.integers(0, k, size=batch)
            t = random_transition(k, rng)
            w = rng.uniform(0.5, 2.0, size=k)

            def loss_of(zv):
                return modulated_cross_entropy(softmax(zv), labels, t, w).loss

            report = modulated_cross_entropy(softmax(z), labels, t, w)
            h = 1e-5
            for r in range(batch):
                for c in range(k):
                    zp, zm = z.copy(), z.copy()
                    zp[r, c] += h
                    zm[r, c] -= h
                    numeric = (loss_of(zp) - loss_of(zm)) / (2 * h)
                    analytic = report.logit_grads[r, c]
                    rel = abs(analytic - numeric) / max(abs(analytic),
                                                        abs(numeric), 1e-8)
                    # h^2 truncation noise dominates the relative error
                    # where the gradient itself is near zero
                    assert rel < 1e-6 or abs(analytic - numeric) < 1e-10

    def test_loss_monotone_in_labeled_class_probability(self):
        # Raising p_c with the rest renormalized proportionally never raises
        # the loss when the transition row is diagonally dominant.
        rng = np.random.default_rng(4)
        t = np.array([[0.6, 0.3, 0.1], [0.2, 0.7, 0.1], [0.25, 0.25, 0.5]])
        for label in range(3):
            q = rng.uniform(0.1, 1.0, size=3)
            q[label] = 0.0
            q = q / q.sum()
            losses = []
            for pc in np.linspace(0.01, 0.99, 50):
                p = (1 - pc) * q
                p[label] = pc
                report = modulated_cross_entropy(p[None, :], [label], t,
                                                 np.ones(3))
                losses.append(report.loss)
            assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_clamp_keeps_loss_finite_on_sparse_transition(self):
        # One-hot posterior whose mass falls where the transition row is zero.
        p = np.array([[0.0, 1.0]])
        t = np.array([[1.0, 0.0], [0.0, 1.0]])
        report = modulated_cross_entropy(p, [0], t, np.ones(2))
        assert np.isfinite(report.loss)
        assert report.loss == pytest.approx(-math.log(LOG_EPS))
        assert np.array_equal(report.logit_grads, np.zeros((1, 2)))

    def test_dimension_mismatch_rejected(self):
        p = np.full((2, 3), 1 / 3)
        with pytest.raises(ValidationError):
            modulated_cross_entropy(p, [0, 1], np.eye(2), np.ones(3))
        with pytest.raises(ValidationError):
            modulated_cross_entropy(p, [0, 1], np.eye(3), np.ones(2))

    def test_non_stochastic_transition_rejected(self):
        p = np.full((1, 2), 0.5)
        with pytest.raises(ValidationError, match="row-stochastic"):
            modulated_cross_entropy(p, [0], np.array([[0.9, 0.3], [0.5, 0.5]]),
                                    np.ones(2))


class TestStackedLoss:
    """Posteriors of M members on one batch, one transition per member."""

    def test_each_member_matches_its_own_call_bit_for_bit(self):
        rng = np.random.default_rng(11)
        k, batch = 4, 9
        p = np.stack([random_posteriors(rng, batch, k) for _ in range(3)])
        t = np.stack([np.eye(k)] + [random_transition(k, rng) for _ in range(2)])
        labels = rng.integers(0, k, size=batch)
        w = rng.uniform(0.5, 2.0, size=k)
        stacked = modulated_cross_entropy(p, labels, t, w)
        assert stacked.loss.shape == (3,)
        for i in range(3):
            alone = modulated_cross_entropy(p[i], labels, t[i], w)
            assert stacked.loss[i] == alone.loss
            assert np.array_equal(stacked.per_example[i], alone.per_example)
            assert np.array_equal(stacked.logit_grads[i], alone.logit_grads)

    def test_one_transition_per_member_required(self):
        rng = np.random.default_rng(12)
        p = np.stack([random_posteriors(rng, 5, 3)] * 2)
        with pytest.raises(ValidationError, match="transition is"):
            modulated_cross_entropy(p, [0] * 5, np.eye(3), np.ones(3))
        with pytest.raises(ValidationError, match="row-stochastic"):
            modulated_cross_entropy(p, [0] * 5, np.stack([np.eye(3), 2 * np.eye(3)]),
                                    np.ones(3))


class TestPlainWeightedCrossEntropy:
    """Weighted cross-entropy is the modulated loss with an identity transition."""

    def test_perfect_prediction_gives_zero_loss(self):
        p = np.array([[1.0, 0.0]])
        report = modulated_cross_entropy(p, [0], np.eye(2), np.ones(2))
        assert report.loss == 0.0

    def test_hand_computed_example(self):
        # K=2, p = (0.75, 0.25), label 1, w_1 = 2 -> loss = -2 ln 0.25
        p = np.array([[0.75, 0.25]])
        report = modulated_cross_entropy(p, [1], np.eye(2), np.array([1.0, 2.0]))
        assert abs(report.loss - (-2 * math.log(0.25))) < 1e-12

    def test_equals_modulated_with_identity_transition(self):
        # closed forms: loss mean(-w_c log p_c), logit gradient w_c (p - e_c) / B
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            p = random_posteriors(rng, 4, k)
            labels = rng.integers(0, k, size=4)
            w = rng.uniform(0.5, 2.0, size=k)
            report = modulated_cross_entropy(p, labels, np.eye(k), w)
            assert abs(report.loss
                       - np.mean(-w[labels] * np.log(p[np.arange(4), labels]))) < 1e-15
            expected = w[labels, None] * (p - np.eye(k)[labels]) / 4
            assert np.max(np.abs(report.logit_grads - expected)) < 1e-15
