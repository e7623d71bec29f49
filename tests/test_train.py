"""Tests for SGD with momentum, stage training, and the experimental arms."""

import numpy as np
import pytest

from conftest import make_clean_dataset
from webly.data import BackgroundSpec, NoiseSpec, synth_web_corpus
from webly.errors import DivergenceError, ValidationError
from webly.model import ModelConfig, init_params, predict, save_checkpoint
from webly.noise import TransitionMatrix
from webly.train import (
    ARM_BL1,
    ARM_BL2,
    ARM_PROPOSED,
    TrainConfig,
    effective_lr,
    run_arm,
    sgd_momentum_step,
    train_stage,
)


def vec(*values):
    return np.array(values, dtype=np.float64)


class TestSgdMomentumStep:
    def test_plain_gradient_step(self):
        theta, velocity = vec(5.0), vec(0.0)
        sgd_momentum_step(theta, vec(2.0), velocity, lr=1.0, momentum=0.0)
        assert theta.tolist() == [3.0]

    def test_zero_gradient_coasts_on_velocity(self):
        theta, velocity = vec(1.0), vec(0.4)
        sgd_momentum_step(theta, vec(0.0), velocity, lr=0.1, momentum=0.9)
        np.testing.assert_allclose(theta, [1.0 + 0.9 * 0.4])
        np.testing.assert_allclose(velocity, [0.36])

    def test_two_hand_iterated_steps(self):
        # momentum 0.9, lr 0.1, constant g = 1, theta_0 = 0:
        # v1 = -0.1, theta_1 = -0.1; v2 = 0.9*(-0.1) - 0.1 = -0.19, theta_2 = -0.29
        theta, v = vec(0.0), vec(0.0)
        sgd_momentum_step(theta, vec(1.0), v, 0.1, 0.9)
        np.testing.assert_allclose(theta, [-0.1])
        sgd_momentum_step(theta, vec(1.0), v, 0.1, 0.9)
        np.testing.assert_allclose(v, [-0.19])
        np.testing.assert_allclose(theta, [-0.29])

    def test_matches_the_out_of_place_update_bit_for_bit(self):
        rng = np.random.default_rng(0)
        theta, grad, v = rng.normal(size=(3, 50))
        want_v = 0.9 * v - 0.01 * grad
        want_theta = theta + want_v
        sgd_momentum_step(theta, grad, v, 0.01, 0.9)
        assert np.array_equal(v, want_v)
        assert np.array_equal(theta, want_theta)

    def test_non_finite_gradient_detected(self):
        with pytest.raises(DivergenceError, match="divergence"):
            sgd_momentum_step(vec(1.0, 2.0), vec(0.0, np.inf), vec(0.0, 0.0),
                              0.1, 0.9)


class TestLrSchedule:
    def test_step_decay_formula(self):
        cfg = TrainConfig(epochs=40, batch_size=8, learning_rate_init=0.01,
                          lr_decay_factor=0.5, lr_decay_every=10)
        for epoch in range(40):
            assert effective_lr(cfg, epoch) == 0.01 * 0.5 ** (epoch // 10)


class TestTrainStage:
    def make_ds(self, seed=0):
        return make_clean_dataset(k=2, d=4, per_class=30, separation=4.0,
                                  sigma=1.0, seed=seed)

    def model_cfg(self, seed=0):
        return ModelConfig(input_dim=4, hidden_sizes=[8], num_classes=2,
                           init_seed=seed)

    def test_zero_epochs_returns_init_unchanged(self):
        ds = self.make_ds()
        init = init_params(self.model_cfg())
        result = train_stage(init, ds, TrainConfig(epochs=0, batch_size=8))
        assert result.log == []
        assert np.array_equal(result.params.flat, init.flat)

    def test_init_params_are_left_unchanged(self):
        init = init_params(self.model_cfg())
        before = init.flat.copy()
        result = train_stage(init, self.make_ds(), TrainConfig(epochs=2, batch_size=8))
        assert np.array_equal(init.flat, before)
        assert not np.array_equal(result.params.flat, before)

    def test_log_length_equals_epochs(self):
        ds = self.make_ds()
        result = train_stage(init_params(self.model_cfg()), ds,
                             TrainConfig(epochs=5, batch_size=8))
        assert len(result.log) == 5
        assert [e["epoch"] for e in result.log] == list(range(5))

    def test_deterministic_given_config_and_seed(self):
        ds = self.make_ds()
        cfg = TrainConfig(epochs=4, batch_size=8, shuffle_seed=3)
        a = train_stage(init_params(self.model_cfg()), ds, cfg)
        b = train_stage(init_params(self.model_cfg()), ds, cfg)
        assert np.array_equal(a.params.flat, b.params.flat)

    def test_separable_toy_set_trains_above_95_percent(self):
        ds = self.make_ds()
        cfg = TrainConfig(epochs=50, batch_size=8, shuffle_seed=1)
        result = train_stage(init_params(self.model_cfg(seed=1)), ds, cfg)
        assert result.log[-1]["train_accuracy"] > 0.95
        posteriors = predict(result.params, ds)
        assert (posteriors.argmax(axis=1) == ds.y).mean() > 0.95

    def test_logged_accuracy_matches_final_params(self):
        ds = self.make_ds()
        cfg = TrainConfig(epochs=3, batch_size=8)
        result = train_stage(init_params(self.model_cfg()), ds, cfg)
        acc = (predict(result.params, ds).argmax(axis=1) == ds.y).mean()
        assert abs(result.log[-1]["train_accuracy"] - acc) < 1e-12

    def test_divergence_reports_coordinates(self):
        ds = self.make_ds()
        # push parameters past float64 overflow in one step
        cfg = TrainConfig(epochs=2, batch_size=8, learning_rate_init=1e300)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError, match="epoch"):
                train_stage(init_params(self.model_cfg()), ds, cfg)

    def test_missing_class_rejected(self):
        ds = self.make_ds()
        only0 = ds.take(ds.y == 0, "one-class")
        with pytest.raises(ValidationError, match="absent"):
            train_stage(init_params(self.model_cfg()), only0,
                        TrainConfig(epochs=1, batch_size=8))

    def test_transition_dimension_checked(self):
        ds = self.make_ds()
        t = TransitionMatrix(entries=np.eye(3), provenance={})
        with pytest.raises(ValidationError, match="transition"):
            train_stage(init_params(self.model_cfg()), ds,
                        TrainConfig(epochs=1, batch_size=8), transition=t)

    def test_renormalized_modulation_trains_and_differs(self):
        ds = self.make_ds()
        t = TransitionMatrix(entries=np.array([[0.8, 0.2], [0.3, 0.7]]),
                             provenance={})
        cfg = TrainConfig(epochs=2, batch_size=8, shuffle_seed=2)
        plain = train_stage(init_params(self.model_cfg()), ds, cfg, transition=t)
        renorm = train_stage(init_params(self.model_cfg()), ds, cfg,
                             transition=t, renormalize=True)
        assert np.isfinite(renorm.log[-1]["mean_loss"])
        assert not np.array_equal(plain.params.weights[0],
                                  renorm.params.weights[0])


def make_web(clean, seed=20, bag_size=5, diag=0.8, rho=0.1):
    k = clean.num_classes
    kernel = diag * np.eye(k) + (1 - diag) / (k - 1) * (np.ones((k, k)) - np.eye(k))
    noise = NoiseSpec(cross_category_kernel=kernel, cross_domain_rate=rho,
                      bag_size=bag_size, seed=seed)
    return synth_web_corpus(clean, noise, BackgroundSpec(mean_offset=6.0))


class TestRunArm:
    def setup_method(self):
        self.clean = make_clean_dataset(k=3, d=4, per_class=12,
                                        separation=3.0, sigma=1.0, seed=17)
        self.web = make_web(self.clean)
        self.model_cfg = ModelConfig(input_dim=4, hidden_sizes=[8],
                                     num_classes=3, init_seed=5)
        self.cfg_web = TrainConfig(epochs=3, batch_size=16, shuffle_seed=7)
        self.cfg_clean = TrainConfig(epochs=3, batch_size=8, shuffle_seed=8)

    def test_bl1_never_touches_the_web_corpus(self):
        params, result = run_arm(ARM_BL1, self.clean, self.web,
                                 self.cfg_web, self.cfg_clean, self.model_cfg)
        assert self.web.access_count == 0
        assert [c for _, c in result.web_access_log] == [0, 0]
        assert len(result.stages) == 1

    def test_bl2_fine_tune_stage_is_isolated_from_web(self):
        params, result = run_arm(ARM_BL2, self.clean, self.web,
                                 self.cfg_web, self.cfg_clean, self.model_cfg)
        counts = dict(result.web_access_log)
        assert counts["after_web_stage"] == counts["after_clean_stage"]
        assert len(result.stages) == 2

    def test_proposed_estimates_then_trains(self):
        params, result = run_arm(ARM_PROPOSED, self.clean, self.web,
                                 self.cfg_web, self.cfg_clean, self.model_cfg)
        assert result.transition is not None
        assert result.oracle is not None
        np.testing.assert_allclose(result.transition.entries.sum(axis=1), 1.0,
                                   atol=1e-9)
        counts = dict(result.web_access_log)
        assert counts["after_web_stage"] == counts["after_clean_stage"]

    def test_proposed_with_identity_transition_equals_bl2_bit_for_bit(self, tmp_path):
        identity = TransitionMatrix(entries=np.eye(3),
                                    provenance={"forced": "identity"})
        p_bl2, r_bl2 = run_arm(ARM_BL2, self.clean, self.web, self.cfg_web,
                               self.cfg_clean, self.model_cfg)
        p_prop, r_prop = run_arm(ARM_PROPOSED, self.clean, self.web,
                                 self.cfg_web, self.cfg_clean, self.model_cfg,
                                 transition_override=identity)
        for sa, sb in zip(r_bl2.stages, r_prop.stages):
            assert np.array_equal(sa.params.flat, sb.params.flat)
        f1, f2 = tmp_path / "bl2.wslckpt", tmp_path / "prop.wslckpt"
        save_checkpoint(p_bl2, f1)
        save_checkpoint(p_prop, f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_arms_are_deterministic_end_to_end(self):
        a, _ = run_arm(ARM_PROPOSED, self.clean, self.web, self.cfg_web,
                       self.cfg_clean, self.model_cfg)
        b, _ = run_arm(ARM_PROPOSED, self.clean, self.web, self.cfg_web,
                       self.cfg_clean, self.model_cfg)
        assert np.array_equal(a.flat, b.flat)

    def test_unknown_arm_rejected(self):
        with pytest.raises(ValidationError, match="unknown arm"):
            run_arm("BL9", self.clean, self.web, self.cfg_web,
                    self.cfg_clean, self.model_cfg)

    def test_web_arm_requires_corpus(self):
        with pytest.raises(ValidationError, match="web corpus"):
            run_arm(ARM_BL2, self.clean, None, self.cfg_web, self.cfg_clean,
                    self.model_cfg)


class TestTrainConfigValidation:
    def test_rejects_bad_values(self):
        good = dict(epochs=1, batch_size=1)
        with pytest.raises(ValidationError):
            TrainConfig(epochs=-1, batch_size=1)
        with pytest.raises(ValidationError):
            TrainConfig(batch_size=0, epochs=1)
        with pytest.raises(ValidationError):
            TrainConfig(momentum=1.0, **good)
        with pytest.raises(ValidationError):
            TrainConfig(lr_decay_factor=1.0, **good)
