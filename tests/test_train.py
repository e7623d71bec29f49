"""Tests for SGD with momentum, stage training, and the experimental arms."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import make_clean_dataset, random_transition
from webly import train
from webly.data import BackgroundSpec, Dataset, NoiseSpec, synth_web_corpus
from webly.errors import DivergenceError, ValidationError
from webly.loss import median_frequency_weights, modulated_cross_entropy
from webly.model import (ModelConfig, ModelParams, backward, forward, init_params, predict,
                         save_checkpoint, seeded_rng)
from webly.noise import TransitionMatrix
from webly.train import (
    ARM_BL1,
    ARM_BL2,
    ARM_PROPOSED,
    ARMS,
    TrainConfig,
    effective_lr,
    run_arm,
    run_seed,
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


    def test_stacked_rows_update_alone_and_diverged_rows_are_named(self):
        start = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        grad = np.array([[0.5, 0.5], [np.inf, 0.0], [1.0, -1.0]])
        theta, velocity = start.copy(), np.zeros_like(start)
        with pytest.raises(DivergenceError) as info:
            sgd_momentum_step(theta, grad, velocity, 0.1, 0.9)
        assert info.value.members == (1,)
        for row in (0, 2):
            alone = start[row].copy()
            sgd_momentum_step(alone, grad[row], np.zeros(2), 0.1, 0.9)
            assert np.array_equal(theta[row], alone)


def without_timings(log):
    return [{k: v for k, v in entry.items() if k != "elapsed_s"} for entry in log]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestLockstepStage:
    def setup_method(self):
        self.ds = make_clean_dataset(k=3, d=4, per_class=12, separation=3.0,
                                     sigma=1.0, seed=17)
        self.cfg = TrainConfig(epochs=3, batch_size=8, shuffle_seed=4)
        self.good = init_params(ModelConfig(input_dim=4, hidden_sizes=[8],
                                            num_classes=3, init_seed=2))
        # weights this large overflow the logits on the first step
        self.bad = ModelParams(self.good.config, [w * 1e200 for w in self.good.weights],
                               self.good.biases)

    def test_diverging_member_leaves_the_others_bit_identical(self):
        t = TransitionMatrix(entries=random_transition(3, np.random.default_rng(0)),
                             provenance={})
        results = train_stage([self.good, self.bad, self.good], self.ds, self.cfg,
                              [None, None, t])
        assert isinstance(results[1], DivergenceError)
        assert "epoch 0, batch 0" in str(results[1])
        for result, transition in ((results[0], None), (results[2], t)):
            alone = train_stage(self.good, self.ds, self.cfg, transition=transition)
            assert np.array_equal(result.params.flat, alone.params.flat)
            assert without_timings(result.log) == without_timings(alone.log)

    def test_every_member_diverging_ends_the_stage(self):
        results = train_stage([self.bad, self.bad], self.ds, self.cfg, [None, None])
        assert all(isinstance(r, DivergenceError) for r in results)
        with pytest.raises(DivergenceError, match="epoch 0, batch 0"):
            train_stage(self.bad, self.ds, self.cfg)

    def test_one_transition_per_member(self):
        with pytest.raises(ValidationError, match="transitions"):
            train_stage([self.good, self.good], self.ds, self.cfg, [None])


def reference_stage(init, ds, cfg, transitions, renormalize=False):
    """The per-batch loop that ``train_stage``'s fused step replaced, through
    the public, checked calls: ``forward(train=True)``,
    ``modulated_cross_entropy``, ``backward`` and ``sgd_momentum_step``.

    Returns per member its (flat, log without timings), or the message of
    the DivergenceError that took it out of the stack.
    """
    params = init[0].copy() if len(init) == 1 else ModelParams.stack(init)
    k = ds.num_classes
    entries = [np.eye(k) if t is None else t.entries for t in transitions]
    t = TransitionMatrix(entries=entries[0] if len(init) == 1 else np.stack(entries),
                         provenance={})
    weights = median_frequency_weights(ds.label_counts())
    velocity = np.zeros_like(params.flat)
    rows = list(range(len(init)))
    logs = [[] for _ in init]
    outcome = [None] * len(init)
    n = len(ds)
    for epoch in range(cfg.epochs):
        lr = train.effective_lr(cfg, epoch)
        order = seeded_rng((cfg.shuffle_seed, epoch)).permutation(n)
        x, y = ds.X[order], ds.y[order]
        loss_sum = np.zeros(params.flat.shape[:-1])
        for batch, lo in enumerate(range(0, n, cfg.batch_size)):
            hi = lo + cfg.batch_size
            posteriors, cache = forward(params, x[lo:hi], train=True,
                                        dropout_seed=(cfg.shuffle_seed, epoch, batch))
            report = modulated_cross_entropy(posteriors, y[lo:hi], t, weights,
                                             renormalize=renormalize)
            grad = backward(cache, report.logit_grads)
            batch_loss = report.per_example.sum(axis=-1)
            try:
                sgd_momentum_step(params.flat, grad, velocity, lr, cfg.momentum)
            except DivergenceError as exc:
                for r in exc.members:
                    outcome[rows[r]] = f"{exc} at epoch {epoch}, batch {batch}"
                keep = [r for r in range(len(rows)) if r not in exc.members]
                rows = [rows[r] for r in keep]
                if not rows:
                    return outcome
                params = ModelParams.stack([params.unstack()[r] for r in keep])
                velocity, loss_sum, batch_loss = velocity[keep], loss_sum[keep], batch_loss[keep]
                t = TransitionMatrix(entries=t.entries[keep], provenance={})
            loss_sum += batch_loss
        accuracy = (predict(params, ds).argmax(axis=-1) == ds.y).mean(axis=-1)
        for member, loss, acc in zip(rows, np.atleast_1d(loss_sum / n),
                                     np.atleast_1d(accuracy)):
            logs[member].append({"epoch": epoch, "lr": lr, "mean_loss": float(loss),
                                 "train_accuracy": float(acc)})
    for member, flat in zip(rows, np.atleast_2d(params.flat)):
        outcome[member] = (flat, logs[member])
    return outcome


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestFusedStepMatchesReference:
    """``train_stage`` gives the bits of the reference per-batch loop."""

    # 27 rows: batches of 8 leave a last batch of 3 rows, batches of 13 one row
    ds = make_clean_dataset(k=3, d=4, per_class=9, separation=3.0, sigma=1.0, seed=17)

    def models(self, hidden, keep, count):
        """``count`` models of one config, each initialised from its own seed."""
        cfg = ModelConfig(input_dim=4, hidden_sizes=hidden, num_classes=3,
                          dropout_keep_prob=keep)
        inits = [init_params(replace(cfg, init_seed=seed)) for seed in range(count)]
        return [ModelParams(cfg, m.weights, m.biases) for m in inits]

    def assert_matches(self, got, want):
        if isinstance(want, str):
            assert isinstance(got, DivergenceError) and str(got) == want
        else:
            flat, log = want
            assert np.array_equal(got.params.flat, flat)
            assert without_timings(got.log) == log

    @pytest.mark.parametrize("renormalize", [False, True])
    @pytest.mark.parametrize("batch_size", [8, 13])
    @pytest.mark.parametrize("keep", [1.0, 0.7])
    @pytest.mark.parametrize("hidden", [[], [5, 3, 7]])
    def test_solo_and_stacked(self, hidden, keep, batch_size, renormalize):
        cfg = TrainConfig(epochs=3, batch_size=batch_size, shuffle_seed=4)
        rng = np.random.default_rng(1)
        transitions = [None] + [TransitionMatrix(entries=random_transition(3, rng),
                                                 provenance={}) for _ in range(2)]
        models = self.models(hidden, keep, 3)
        for init, t in zip(models, transitions):
            want, = reference_stage([init], self.ds, cfg, [t], renormalize)
            self.assert_matches(train_stage(init, self.ds, cfg, t, renormalize), want)
        got = train_stage(models, self.ds, cfg, transitions, renormalize)
        for result, want in zip(got, reference_stage(models, self.ds, cfg, transitions,
                                                     renormalize)):
            self.assert_matches(result, want)

    @pytest.mark.parametrize("renormalize", [False, True])
    def test_member_diverging_mid_stage(self, renormalize):
        # One row far out on feature 3: a member whose feature-3 weights are
        # huge overflows its logits on that row's batch, and only there.
        ds = Dataset(ids=[*self.ds.ids, "far"], group_ids=[*self.ds.group_ids, "g0"],
                     X=np.vstack([self.ds.X, [0.0, 0.0, 0.0, 1e100]]),
                     y=[*self.ds.y, 0], num_classes=3)
        good = self.models([], 1.0, 2)
        bad = good[1].copy()
        bad.weights[0][3] *= 1e250
        models = [good[0], bad, good[1]]
        transitions = [None, None, TransitionMatrix(
            entries=random_transition(3, np.random.default_rng(2)), provenance={})]
        cfg = TrainConfig(epochs=3, batch_size=8, shuffle_seed=4)
        got = train_stage(models, ds, cfg, transitions, renormalize)
        want = reference_stage(models, ds, cfg, transitions, renormalize)
        assert isinstance(want[1], str) and "epoch 0, batch 0" not in want[1]
        assert not any(isinstance(w, str) for w in (want[0], want[2]))
        for result, expected in zip(got, want):
            self.assert_matches(result, expected)


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


class TestRunSeed:
    def setup_method(self):
        TestRunArm.setup_method(self)
        self.args = (self.cfg_web, self.cfg_clean, self.model_cfg)

    def alone(self, arm, **kwargs):
        return run_arm(arm, self.clean, make_web(self.clean), *self.args, **kwargs)

    def assert_same_arm(self, got, want):
        (params, result), (want_params, want_result) = got, want
        assert np.array_equal(params.flat, want_params.flat)
        assert len(result.stages) == len(want_result.stages)
        for a, b in zip(result.stages, want_result.stages):
            assert np.array_equal(a.params.flat, b.params.flat)
            assert without_timings(a.log) == without_timings(b.log)
        if want_result.transition is not None:
            assert np.array_equal(result.transition.entries, want_result.transition.entries)

    @pytest.mark.parametrize("renormalize", [False, True])
    def test_arms_trained_together_match_arms_run_alone(self, renormalize):
        together = run_seed(ARMS, self.clean, self.web, *self.args,
                            renormalize=renormalize)
        for arm in ARMS:
            self.assert_same_arm(together[arm], self.alone(arm, renormalize=renormalize))
        assert together[ARM_PROPOSED][1].oracle is together[ARM_BL1][0]
        # the corpus is read once to estimate and once to train the web stages
        assert dict(together[ARM_BL2][1].web_access_log) == {
            "start": 0, "after_web_stage": 2, "after_clean_stage": 2}

    def test_shared_clean_stage_failure_fails_bl1_and_proposed_only(self, monkeypatch):
        real = train.train_stage

        def clean_only_fails(init, ds, cfg, transition=None, renormalize=False):
            if isinstance(init, ModelParams):
                raise DivergenceError("clean-only stage diverged")
            return real(init, ds, cfg, transition, renormalize)

        monkeypatch.setattr(train, "train_stage", clean_only_fails)
        together = run_seed(ARMS, self.clean, self.web, *self.args)
        assert isinstance(together[ARM_BL1], DivergenceError)
        assert together[ARM_PROPOSED] is together[ARM_BL1]
        monkeypatch.undo()
        self.assert_same_arm(together[ARM_BL2], self.alone(ARM_BL2))

    def test_diverged_web_member_fails_only_its_arm(self, monkeypatch):
        real = train.train_stage

        def proposed_diverges(init, ds, cfg, transition=None, renormalize=False):
            results = real(init, ds, cfg, transition, renormalize)
            if isinstance(init, ModelParams):
                return results
            return [DivergenceError("diverged") if t is not None else r
                    for r, t in zip(results, transition)]

        monkeypatch.setattr(train, "train_stage", proposed_diverges)
        together = run_seed(ARMS, self.clean, self.web, *self.args)
        assert str(together[ARM_PROPOSED]) == "diverged"
        monkeypatch.undo()
        for arm in (ARM_BL1, ARM_BL2):
            self.assert_same_arm(together[arm], self.alone(arm))


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
