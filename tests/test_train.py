"""Tests for SGD with momentum, stage training, and the experimental arms."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import make_clean_dataset, pair_flip_transition, random_transition
from webly import train
from webly.data import (BackgroundSpec, CleanSpec, Dataset, NoiseSpec, WebCorpus, synth_clean,
                        synth_web_corpus)
from webly.errors import DivergenceError, ValidationError, WeblyError
from webly.loss import LOG_EPS, median_frequency_weights, modulated_cross_entropy
from webly.model import (EVAL_BLOCK, ModelConfig, ModelParams, backward, forward, init_params,
                         predict, save_checkpoint)
from webly.noise import TransitionMatrix
from webly.train import (
    ARM_BL1,
    ARM_BL2,
    ARM_PROPOSED,
    ARMS,
    SeedInputs,
    SeedStack,
    TrainConfig,
    effective_lr,
    run_arm,
    run_seeds,
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


class TestLockstepStage:
    """Under the suite's ``error::RuntimeWarning`` filter, with no ignore mark:
    a diverging member is recorded as its error, and the stage warns nothing."""

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

    def test_transition_of_another_k_fails_only_its_member(self):
        rng = np.random.default_rng(0)
        transitions = [None, TransitionMatrix(entries=random_transition(4, rng), provenance={}),
                       TransitionMatrix(entries=random_transition(3, rng), provenance={})]
        results = train_stage([self.good] * 3, self.ds, self.cfg, transitions)
        assert isinstance(results[1], ValidationError) and "k=4" in str(results[1])
        for result, transition in ((results[0], transitions[0]), (results[2], transitions[2])):
            alone = train_stage(self.good, self.ds, self.cfg, transition=transition)
            assert np.array_equal(result.params.flat, alone.params.flat)
            assert without_timings(result.log) == without_timings(alone.log)
        with pytest.raises(ValidationError, match="k=4"):  # a lone model raises its fault
            train_stage(self.good, self.ds, self.cfg, transition=transitions[1])

    def test_stage_whose_every_member_failed_runs_no_epoch(self, monkeypatch):
        epochs = []  # any forward pass, a step's or the epoch's scoring
        monkeypatch.setattr(train, "forward_layers", lambda cache, batch: epochs.append(batch))
        wrong = TransitionMatrix(entries=np.eye(4), provenance={})
        results = train_stage([self.good, self.good], self.ds, self.cfg, [wrong, wrong])
        assert all("k=4" in str(r) for r in results)
        assert epochs == []


def web_transitions(count, rng, pair_flip=False, k=3):
    """``count`` web-stage transitions: random dense ones drawn from ``rng``,
    or the pair-flip matrix, whose zero entries score nothing."""
    return [TransitionMatrix(entries=pair_flip_transition(k) if pair_flip
                             else random_transition(k, rng), provenance={})
            for _ in range(count)]


def reference_stage(init, ds, cfg, transitions):
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
        order = np.random.default_rng((cfg.shuffle_seed, epoch)).permutation(n)
        x, y = ds.X[order], ds.y[order]
        loss_sum = np.zeros(params.flat.shape[:-1])
        for batch, lo in enumerate(range(0, n, cfg.batch_size)):
            hi = lo + cfg.batch_size
            posteriors, cache = forward(params, x[lo:hi], train=True,
                                        dropout_seed=(cfg.shuffle_seed, epoch, batch))
            report = modulated_cross_entropy(posteriors, y[lo:hi], t, weights)
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
                params = ModelParams._from_flat(params.config, params.flat[keep])
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

    @pytest.mark.parametrize("pair_flip", [False, True])
    @pytest.mark.parametrize("batch_size", [8, 13])
    @pytest.mark.parametrize("keep", [1.0, 0.7])
    @pytest.mark.parametrize("hidden", [[], [5, 3, 7]])
    def test_solo_and_stacked(self, hidden, keep, batch_size, pair_flip):
        cfg = TrainConfig(epochs=3, batch_size=batch_size, shuffle_seed=4)
        transitions = [None] + web_transitions(2, np.random.default_rng(1), pair_flip)
        models = self.models(hidden, keep, 3)
        for init, t in zip(models, transitions):
            want, = reference_stage([init], self.ds, cfg, [t])
            self.assert_matches(train_stage(init, self.ds, cfg, t), want)
        got = train_stage(models, self.ds, cfg, transitions)
        for result, want in zip(got, reference_stage(models, self.ds, cfg, transitions)):
            self.assert_matches(result, want)

    # a shuffle seed of two entropy words; no epochs; no dropout; one batch
    @pytest.mark.parametrize("epochs, keep, batch_size",
                             [(3, 0.7, 8), (0, 0.7, 8), (3, 1.0, 13), (2, 0.7, 64)])
    def test_edge_stages_with_a_seed_past_32_bits(self, epochs, keep, batch_size):
        cfg = TrainConfig(epochs=epochs, batch_size=batch_size, shuffle_seed=2**32 + 3)
        transitions = [None, TransitionMatrix(
            entries=random_transition(3, np.random.default_rng(3)), provenance={})]
        models = self.models([5, 3, 7], keep, 2)
        for init, t in zip(models, transitions):
            want, = reference_stage([init], self.ds, cfg, [t])
            self.assert_matches(train_stage(init, self.ds, cfg, t), want)
        for result, want in zip(train_stage(models, self.ds, cfg, transitions),
                                reference_stage(models, self.ds, cfg, transitions)):
            self.assert_matches(result, want)

    def far_row_dataset(self):
        """``ds`` plus one row far out on feature 3: a member whose feature-3
        weights are huge overflows its logits on that row's batch, and only
        there."""
        return Dataset(ids=[*self.ds.ids, "far"], group_ids=[*self.ds.group_ids, "g0"],
                       X=np.vstack([self.ds.X, [0.0, 0.0, 0.0, 1e100]]),
                       y=[*self.ds.y, 0], num_classes=3)

    @pytest.mark.parametrize("pair_flip", [False, True])
    def test_member_diverging_mid_stage(self, pair_flip):
        ds = self.far_row_dataset()
        good = self.models([], 1.0, 2)
        bad = good[1].copy()
        bad.weights[0][3] *= 1e250
        models = [good[0], bad, good[1]]
        transitions = [None, None, *web_transitions(1, np.random.default_rng(2), pair_flip)]
        cfg = TrainConfig(epochs=3, batch_size=8, shuffle_seed=4)
        got = train_stage(models, ds, cfg, transitions)
        want = reference_stage(models, ds, cfg, transitions)
        assert isinstance(want[1], str) and "epoch 0, batch 0" not in want[1]
        assert not any(isinstance(w, str) for w in (want[0], want[2]))
        for result, expected in zip(got, want):
            self.assert_matches(result, expected)

    @pytest.mark.parametrize("pair_flip", [False, True])
    def test_member_diverging_mid_stage_in_hidden_layers(self, pair_flip):
        # As above with three hidden layers and dropout
        ds = self.far_row_dataset()
        good = self.models([5, 3, 7], 0.7, 2)
        bad = good[1].copy()
        bad.weights[0][3] *= 1e250
        models = [good[0], bad, good[1]]
        transitions = [None, None, *web_transitions(1, np.random.default_rng(2), pair_flip)]
        cfg = TrainConfig(epochs=3, batch_size=8, shuffle_seed=4)
        got = train_stage(models, ds, cfg, transitions)
        want = reference_stage(models, ds, cfg, transitions)
        assert isinstance(want[1], str) and "epoch 0, batch 0" not in want[1]
        assert not any(isinstance(w, str) for w in (want[0], want[2]))
        for result, expected in zip(got, want):
            self.assert_matches(result, expected)

    @pytest.mark.parametrize("pair_flip", [False, True])
    def test_two_members_diverging_at_different_steps(self, pair_flip, monkeypatch):
        # One member overflows on the first step, one on the far row's batch;
        # the stack keeps its shape and stays finite, and the two others
        # train on.
        finite = []  # per epoch, whether the whole stack scored is finite
        forward_layers = train.forward_layers

        def scored(cache, batch):
            if not cache.dropout:  # the steps draw dropout (keep 0.7), the scoring does not
                finite.append(np.isfinite(cache.params.flat).all())
            return forward_layers(cache, batch)

        monkeypatch.setattr(train, "forward_layers", scored)
        ds = self.far_row_dataset()
        good = self.models([5, 3, 7], 0.7, 3)
        first = ModelParams(good[0].config, [w * 1e200 for w in good[0].weights],
                            good[0].biases)
        far = good[1].copy()
        far.weights[0][3] *= 1e250
        models = [good[2], first, far, good[1]]
        transitions = [None, None, *web_transitions(2, np.random.default_rng(5), pair_flip)]
        cfg = TrainConfig(epochs=3, batch_size=8, shuffle_seed=4)
        got = train_stage(models, ds, cfg, transitions)
        assert finite == [True] * cfg.epochs
        want = reference_stage(models, ds, cfg, transitions)
        assert "epoch 0, batch 0" in want[1]
        assert isinstance(want[2], str) and "epoch 0, batch 0" not in want[2]
        for result, expected in zip(got, want):
            self.assert_matches(result, expected)
        for member in (0, 3):
            alone = train_stage(models[member], ds, cfg, transitions[member])
            self.assert_matches(alone, want[member])


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

    def test_empty_dataset_rejected(self):
        empty = Dataset(ids=[], group_ids=[], X=np.empty((0, 4)), y=[], num_classes=2)
        with pytest.raises(ValidationError, match="^cannot train on an empty dataset$"):
            train_stage(init_params(self.model_cfg()), empty, TrainConfig(epochs=1, batch_size=8))

    def test_zero_epochs_returns_init_unchanged(self):
        ds = self.make_ds()
        init = init_params(self.model_cfg())
        result = train_stage(init, ds, TrainConfig(epochs=0, batch_size=8))
        assert result.log == []
        assert np.array_equal(result.params.flat, init.flat)

    def test_every_step_updates_through_sgd_momentum_step(self, monkeypatch):
        real, rates = train.sgd_momentum_step, []

        def counted(theta, grad, velocity, lr, momentum):
            rates.append(lr)
            return real(theta, grad, velocity, lr, momentum)

        monkeypatch.setattr(train, "sgd_momentum_step", counted)
        cfg = TrainConfig(epochs=3, batch_size=8, lr_decay_every=2)
        train_stage(init_params(self.model_cfg()), self.make_ds(), cfg)
        # 60 rows in batches of 8: seven full batches and a ragged one per epoch
        assert rates == [effective_lr(cfg, epoch) for epoch in range(3) for _ in range(8)]

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

    def together(self, arms=ARMS, web=None, **kwargs):
        """``run_seeds`` of the given arms on this one seed."""
        seed = SeedInputs(self.clean, self.web if web is None else web, 0)
        return run_seeds(arms, [seed], *self.args, **kwargs)[0]

    def alone(self, arm, **kwargs):
        return run_arm(arm, self.clean, make_web(self.clean), *self.args, **kwargs)[1]

    def assert_same_arm(self, result, want_result):
        assert np.array_equal(result.final_params.flat, want_result.final_params.flat)
        assert len(result.stages) == len(want_result.stages)
        for a, b in zip(result.stages, want_result.stages):
            assert np.array_equal(a.params.flat, b.params.flat)
            assert without_timings(a.log) == without_timings(b.log)
        if want_result.transition is not None:
            assert np.array_equal(result.transition.entries, want_result.transition.entries)

    @pytest.mark.parametrize("pair_flip", [False, True])
    def test_arms_trained_together_match_arms_run_alone(self, pair_flip):
        given = (TransitionMatrix(entries=pair_flip_transition(3), provenance={})
                 if pair_flip else None)
        together = self.together(transition_override=given)
        for arm in ARMS:
            self.assert_same_arm(together[arm], self.alone(arm, transition_override=given))
        assert together[ARM_PROPOSED].oracle is (
            None if pair_flip else together[ARM_BL1].final_params)
        # the corpus is read once to estimate (unless given the transition) and
        # once to train the web stages
        reads = 1 if pair_flip else 2
        assert dict(together[ARM_BL2].web_access_log) == {
            "start": 0, "after_web_stage": reads, "after_clean_stage": reads}

    def test_shared_clean_stage_failure_fails_bl1_and_proposed_only(self, monkeypatch):
        real, calls = train.train_stage, []

        def clean_only_fails(init, *args):
            calls.append(init)
            if len(calls) == 1:  # the shared clean-only stage trains first
                raise DivergenceError("clean-only stage diverged")
            return real(init, *args)

        monkeypatch.setattr(train, "train_stage", clean_only_fails)
        together = self.together()
        assert isinstance(together[ARM_BL1], DivergenceError)
        assert together[ARM_PROPOSED] is together[ARM_BL1]
        monkeypatch.undo()
        self.assert_same_arm(together[ARM_BL2], self.alone(ARM_BL2))

    def test_diverged_web_member_fails_only_its_arm(self, monkeypatch):
        real = train.train_stage

        def proposed_diverges(init, ds, cfg, transition=None):
            results = real(init, ds, cfg, transition)
            if isinstance(init, ModelParams):
                return results
            return [DivergenceError("diverged") if t is not None else r
                    for r, t in zip(results, transition)]

        monkeypatch.setattr(train, "train_stage", proposed_diverges)
        together = self.together()
        assert str(together[ARM_PROPOSED]) == "diverged"
        monkeypatch.undo()
        for arm in (ARM_BL1, ARM_BL2):
            self.assert_same_arm(together[arm], self.alone(arm))

    @pytest.mark.parametrize("bag_count", [0, 2])
    def test_web_corpus_without_members_fails_only_the_web_arms(self, bag_count):
        empty = WebCorpus(query_ids=[f"q{b}" for b in range(bag_count)],
                          labels=[0] * bag_count, offsets=[0] * (bag_count + 1),
                          member_ids=[], X=np.empty((0, 4)), num_classes=3)
        together = self.together(web=empty)
        self.assert_same_arm(together[ARM_BL1], self.alone(ARM_BL1))
        for arm in (ARM_BL2, ARM_PROPOSED):
            assert isinstance(together[arm], ValidationError)
            assert "empty corpus" in str(together[arm])
        # with a given transition the noise-corrected arm reaches the web stage
        identity = TransitionMatrix(entries=np.eye(3), provenance={})
        web_only = self.together([ARM_BL2, ARM_PROPOSED], empty, transition_override=identity)
        assert all("empty corpus" in str(web_only[arm]) for arm in (ARM_BL2, ARM_PROPOSED))

    def test_hidden_true_labels_are_never_read(self):
        web = self.web
        permuted = np.random.default_rng(0).permutation(web.true_labels_hidden)
        assert not np.array_equal(permuted, web.true_labels_hidden)
        shuffled = WebCorpus(query_ids=web.query_ids, labels=web.labels,
                             offsets=web.offsets, member_ids=web.member_ids, X=web.X,
                             num_classes=web.num_classes, true_labels_hidden=permuted)
        got = self.together(web=shuffled)
        want = self.together(web=make_web(self.clean))
        for arm in ARMS:
            result, expected = got[arm], want[arm]
            assert [s.params.flat.tobytes() for s in result.stages] == [
                s.params.flat.tobytes() for s in expected.stages]
            assert result.web_access_log == expected.web_access_log
        transitions = [r.transition for r in (got[ARM_PROPOSED], want[ARM_PROPOSED])]
        assert transitions[0].entries.tobytes() == transitions[1].entries.tobytes()
        assert transitions[0].provenance == transitions[1].provenance

    def test_web_access_log_counts_from_the_call_start(self):
        first = self.together()
        again = self.together()
        assert self.web.access_count == 4
        for arm in ARMS:
            assert again[arm].web_access_log == first[arm].web_access_log

    @pytest.mark.parametrize("override", ["identity", "random"])
    def test_override_skips_the_oracle_and_keeps_bl1s_clean_stage(self, override):
        entries = np.eye(3) if override == "identity" else random_transition(
            3, np.random.default_rng(2))
        given = TransitionMatrix(entries=entries, provenance={"given": override})
        together = self.together(transition_override=given)
        proposed = together[ARM_PROPOSED]
        assert proposed.oracle is None
        assert proposed.transition is given
        # the corpus is read only to flatten it for the web stage
        assert dict(proposed.web_access_log) == {
            "start": 0, "after_estimation": 0, "after_web_stage": 1, "after_clean_stage": 1}
        assert len(together[ARM_BL1].stages) == 1
        self.assert_same_arm(together[ARM_BL1], self.alone(ARM_BL1))
        self.assert_same_arm(together[ARM_BL2], self.alone(ARM_BL2))
        self.assert_same_arm(proposed, self.alone(ARM_PROPOSED, transition_override=given))
        if override == "identity":  # the identity reproduces BL2 exactly
            self.assert_same_arm(proposed, together[ARM_BL2])

    def test_a_recipe_row_trains_as_a_stack_member_with_no_code_change(self, monkeypatch):
        stacks = TestCrossSeedRun.record_stacks(self, monkeypatch)
        want = self.together()
        monkeypatch.setitem(train.RECIPES, "BL2 again", train.RECIPES[ARM_BL2])
        got = self.together([*ARMS, "BL2 again"])
        # clean-only, web and fine-tune stacks: the new row is one more web member
        assert stacks == [(1, 1), (1, 2), (1, 2), (1, 1), (1, 3), (1, 3)]
        for arm, expected in [*want.items(), ("BL2 again", want[ARM_BL2])]:
            result = got[arm]
            assert [s.params.flat.tobytes() for s in result.stages] == [
                s.params.flat.tobytes() for s in expected.stages]
            assert [without_timings(s.log) for s in result.stages] == [
                without_timings(s.log) for s in expected.stages]
            assert result.web_access_log == expected.web_access_log
        assert got[ARM_PROPOSED].transition.entries.tobytes() == (
            want[ARM_PROPOSED].transition.entries.tobytes())

    def test_override_of_another_k_fails_only_proposed(self):
        # BL2 takes no transition and BL1 none: they train as they do alone
        wrong = TransitionMatrix(entries=np.eye(4), provenance={})
        together = self.together(transition_override=wrong)
        assert isinstance(together[ARM_PROPOSED], ValidationError)
        assert "k=4" in str(together[ARM_PROPOSED])
        for arm in (ARM_BL1, ARM_BL2):
            self.assert_same_arm(together[arm], self.alone(arm))


class TestEpochScoring:
    """Each epoch's logged ``train_accuracy`` is ``predict``'s on the member's
    parameters after that epoch, for every split of the rows into the
    stage's scoring blocks, one seed or several."""

    @staticmethod
    def dataset(n, seed):
        """n rows of 4 noisy features, labels from feature 0 with both classes."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 4))
        y = (x[:, 0] + rng.normal(size=n) > 0).astype(int)
        y[:2] = [0, 1][:n]
        return Dataset(ids=[f"r{i}" for i in range(n)], group_ids=["g"] * n, X=x, y=y,
                       num_classes=2)

    @pytest.mark.parametrize("seeds", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, EVAL_BLOCK - 1, EVAL_BLOCK, EVAL_BLOCK + 1,
                                   2 * EVAL_BLOCK + 1])
    def test_logged_accuracy_is_predicts(self, seeds, n):
        datasets = [self.dataset(n, 10 + s) for s in range(seeds)]
        cfg = ModelConfig(input_dim=4, hidden_sizes=[8], num_classes=2, dropout_keep_prob=0.7)
        models = [init_params(replace(cfg, init_seed=2 * s + a))
                  for s in range(seeds) for a in range(2)]  # two members per seed
        stack = SeedStack(datasets, [7 + s for s in range(seeds)])
        train_cfg = TrainConfig(epochs=2, batch_size=64, learning_rate_init=0.05)
        results = train_stage(models, stack, train_cfg, [None] * len(models))
        if n == 1:  # a one-row dataset lacks a class: its stage fails before any epoch
            assert all(isinstance(r, ValidationError) for r in results)
            return
        after_first = train_stage(models, stack, replace(train_cfg, epochs=1),
                                  [None] * len(models))
        for m, (result, first) in enumerate(zip(results, after_first)):
            ds = datasets[m // 2]
            assert len(result.log) == 2
            for entry, params in zip(result.log, (first.params, result.params)):
                accuracy = (predict(params, ds).argmax(-1) == ds.y).mean()
                assert entry["train_accuracy"] == accuracy


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


def seed_dataset(counts, seed):
    """A 3-class, 4-feature clean set of ``counts`` rows per class."""
    means = np.zeros((3, 4))
    means[np.arange(3), np.arange(3)] = 3.0
    return synth_clean(CleanSpec(num_classes=3, feature_dim=4, class_means=means, sigma=1.0,
                                 class_counts=counts, groups_per_class=3, seed=seed))


class TestCrossSeedStack:
    """Members of several seeds, each on its own dataset, class weights,
    shuffle stream and dropout stream, train in one stack to the bits each
    gets alone."""

    # 27 rows each, with other class counts and so other class weights
    datasets = [seed_dataset([12, 9, 6], 1), seed_dataset([9, 9, 9], 2),
                seed_dataset([6, 12, 9], 3)]
    shuffle_seeds = [4, 5, 2**32 + 1]

    def inits(self, keep, count):
        cfg = ModelConfig(input_dim=4, hidden_sizes=[5, 3], num_classes=3,
                          dropout_keep_prob=keep)
        return [init_params(replace(cfg, init_seed=10 + i)) for i in range(count)]

    def assert_alone(self, got, inits, transitions, seeds, cfg):
        for result, init, t, s in zip(got, inits, transitions, seeds):
            alone = train_stage(init, self.datasets[s],
                                replace(cfg, shuffle_seed=self.shuffle_seeds[s]), t)
            assert np.array_equal(result.params.flat, alone.params.flat)
            assert result.params.config == init.config
            assert without_timings(result.log) == without_timings(alone.log)

    @pytest.mark.parametrize("pair_flip", [False, True])
    @pytest.mark.parametrize("keep, batch_size", [(0.7, 8), (1.0, 13), (0.7, 64)])
    def test_members_of_three_seeds_match_each_alone(self, keep, batch_size, pair_flip):
        cfg = TrainConfig(epochs=3, batch_size=batch_size)
        t = web_transitions(3, np.random.default_rng(1), pair_flip)
        transitions = [t[0], None, t[1], None, t[2], None]
        inits = self.inits(keep, 6)
        got = train_stage(inits, SeedStack(self.datasets, self.shuffle_seeds), cfg, transitions)
        assert len(got) == 6  # two members per seed, seed by seed
        self.assert_alone(got, inits, transitions, [0, 0, 1, 1, 2, 2], cfg)

    def test_diverging_member_leaves_the_other_seeds_bit_identical(self):
        cfg = TrainConfig(epochs=3, batch_size=8)
        good = self.inits(0.7, 3)
        bad = ModelParams(good[1].config, [w * 1e200 for w in good[1].weights],
                          good[1].biases)
        got = train_stage([good[0], bad, good[2]], SeedStack(self.datasets, self.shuffle_seeds),
                          cfg, [None] * 3)
        assert isinstance(got[1], DivergenceError)
        self.assert_alone([got[0], got[2]], [good[0], good[2]], [None, None], [0, 2], cfg)

    def test_seed_without_a_class_fails_only_its_members(self):
        cfg = TrainConfig(epochs=3, batch_size=8)
        d = self.datasets[1]  # 27 rows, class 2 relabelled 0: no median-frequency weights
        absent = Dataset(d.ids, d.group_ids, d.X, np.where(d.y == 2, 0, d.y), 3)
        rng = np.random.default_rng(2)
        transitions = [None if i % 2 else TransitionMatrix(
            entries=random_transition(3, rng), provenance={}) for i in range(6)]
        inits = self.inits(0.7, 6)
        got = train_stage(inits, SeedStack([self.datasets[0], absent, self.datasets[2]],
                                           self.shuffle_seeds), cfg, transitions)
        for result in got[2:4]:
            assert isinstance(result, ValidationError) and "class absent" in str(result)
        self.assert_alone(got[:2] + got[4:], inits[:2] + inits[4:],
                          transitions[:2] + transitions[4:], [0, 0, 2, 2], cfg)

    def test_stack_checks_its_seeds(self):
        cfg = TrainConfig(epochs=1, batch_size=8)
        inits = self.inits(0.7, 2)
        shorter = seed_dataset([6, 6, 6], 4)
        with pytest.raises(ValidationError, match="rows"):
            train_stage(inits, SeedStack([self.datasets[0], shorter], [0, 1]), cfg,
                        [None, None])
        with pytest.raises(ValidationError, match="as many members"):  # 3 members, 2 seeds
            train_stage(self.inits(0.7, 3), SeedStack(self.datasets[:2], [0, 1]), cfg,
                        [None] * 3)
        with pytest.raises(ValidationError, match="one transition per member"):
            train_stage(inits, SeedStack(self.datasets[:2], [0, 1]), cfg, [None])
        with pytest.raises(ValidationError, match="one config"):
            train_stage([inits[0], init_params(replace(inits[1].config, hidden_sizes=[5]))],
                        self.datasets[0], cfg, [None, None])


def with_far_row(ds):
    """``ds`` plus a class-0 row far out on feature 3: a member with huge
    feature-3 weights overflows there, and every other member saturates,
    its labeled-class score clamped to 0 where it predicts another class."""
    return Dataset(ids=[*ds.ids, "far"], group_ids=[*ds.group_ids, "g0"],
                   X=np.vstack([ds.X, [0.0, 0.0, 0.0, 1e100]]), y=[*ds.y, 0],
                   num_classes=ds.num_classes)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestEpochLoss:
    """Each step leaves its examples' scores in an epoch buffer, and the
    logged ``mean_loss`` is finished from them once per epoch: it equals the
    per-batch sums of ``modulated_cross_entropy(...).per_example``, added
    batch by batch in step order, bit for bit."""

    # 28 rows each: batches of 8 leave a ragged last batch of 4, and batches of 3
    # ten batch sums, more than numpy's pairwise sum adds up in order
    datasets = [with_far_row(d) for d in TestCrossSeedStack.datasets]
    shuffle_seeds = TestCrossSeedStack.shuffle_seeds

    @pytest.mark.parametrize("pair_flip", [False, True])
    @pytest.mark.parametrize("batch_size", [8, 3])
    def test_three_seeds_of_two_members_with_clamped_rows_and_a_divergence(
            self, batch_size, pair_flip, monkeypatch):
        clamped = []  # per step, whether a labeled-class score sat under the clamp
        kernel = train.modulated_cross_entropy_rows

        def recorded(p, rows, w_over_b, s, *rest):
            grads = kernel(p, rows, w_over_b, s, *rest)
            clamped.append(bool((s <= LOG_EPS).any()))
            return grads

        monkeypatch.setattr(train, "modulated_cross_entropy_rows", recorded)
        cfg = TrainConfig(epochs=3, batch_size=batch_size)
        inits = TestCrossSeedStack().inits(0.7, 6)
        inits[3] = inits[3].copy()
        inits[3].weights[0][3] *= 1e250  # overflows on the far row's batch
        t = web_transitions(3, np.random.default_rng(3), pair_flip)
        transitions = [None, t[0], None, t[1], None, t[2]]
        got = train_stage(inits, SeedStack(self.datasets, self.shuffle_seeds), cfg,
                          transitions)
        assert any(clamped)
        for s, seed in enumerate(self.shuffle_seeds):
            want = reference_stage(inits[2 * s:2 * s + 2], self.datasets[s],
                                   replace(cfg, shuffle_seed=seed), transitions[2 * s:2 * s + 2])
            for result, expected in zip(got[2 * s:2 * s + 2], want):
                TestFusedStepMatchesReference().assert_matches(result, expected)
        assert isinstance(got[3], DivergenceError)
        last = f"batch {-(-len(self.datasets[0]) // batch_size) - 1}"
        assert "epoch 0" in str(got[3]) and last not in str(got[3])  # mid-epoch
        live = [r for r in got if not isinstance(r, WeblyError)]
        assert len(live) >= 4 and all(len(r.log) == cfg.epochs for r in live)


class TestCrossSeedRun:
    """``run_seeds`` stacks every stage over the seeds whose data share one
    size, and each seed's arms get the numbers of ``run_seeds`` on that seed
    alone."""

    # the run's web, clean and model configs; seed s adds s to their seeds
    configs = (TrainConfig(epochs=3, batch_size=16, shuffle_seed=7),
               TrainConfig(epochs=3, batch_size=8, shuffle_seed=8),
               ModelConfig(input_dim=4, hidden_sizes=[8], num_classes=3, init_seed=5))

    def seed(self, s, per_class=12, web=None):
        clean = make_clean_dataset(k=3, d=4, per_class=per_class, separation=3.0, sigma=1.0,
                                   seed=17 + s)
        return SeedInputs(clean, web or make_web(clean, seed=20 + s), s)

    def alone(self, seed, **kwargs):
        return run_seeds(ARMS, [seed], *self.configs, **kwargs)[0]

    def assert_same_seed(self, got, want, arms=ARMS):
        for arm in arms:
            result, expected = got[arm], want[arm]
            assert result.final_params.flat.tobytes() == expected.final_params.flat.tobytes()
            assert [s.params.flat.tobytes() for s in result.stages] == [
                s.params.flat.tobytes() for s in expected.stages]
            assert [without_timings(s.log) for s in result.stages] == [
                without_timings(s.log) for s in expected.stages]
            assert result.web_access_log == expected.web_access_log
            if arm == ARM_PROPOSED:
                assert result.transition.entries.tobytes() == expected.transition.entries.tobytes()
                assert result.transition.provenance == expected.transition.provenance
                assert (result.oracle is None) == (expected.oracle is None)
                if result.oracle is not None:
                    assert result.oracle.flat.tobytes() == expected.oracle.flat.tobytes()

    def record_stacks(self, monkeypatch):
        """Per ``train_stage`` call, its number of seeds and of members."""
        real, stacks = train.train_stage, []

        def recorded(init, ds, *args):
            stacks.append((len(ds.datasets), len(init)))
            return real(init, ds, *args)

        monkeypatch.setattr(train, "train_stage", recorded)
        return stacks

    @pytest.mark.parametrize("pair_flip", [False, True])
    def test_seeds_of_one_size_train_one_stack_per_stage(self, monkeypatch, pair_flip):
        seeds = [self.seed(s) for s in range(3)]
        given = (TransitionMatrix(entries=pair_flip_transition(3), provenance={})
                 if pair_flip else None)
        stacks = self.record_stacks(monkeypatch)
        got = run_seeds(ARMS, seeds, *self.configs, transition_override=given)
        monkeypatch.undo()
        assert stacks == [(3, 3), (3, 6), (3, 6)]  # the web arms form one stack
        for seed, outcome in zip(seeds, got):
            self.assert_same_seed(outcome, self.alone(seed, transition_override=given))

    def test_seeds_of_two_sizes_train_as_two_stacks(self, monkeypatch):
        seeds = [self.seed(0), self.seed(1, per_class=10), self.seed(2)]
        stacks = self.record_stacks(monkeypatch)
        got = run_seeds(ARMS, seeds, *self.configs)
        monkeypatch.undo()
        assert stacks == [(2, 2), (1, 1), (2, 4), (1, 2), (2, 4), (1, 2)]
        for seed, outcome in zip(seeds, got):
            self.assert_same_seed(outcome, self.alone(seed))

    def test_override_fills_each_seeds_cells_from_its_own_stages(self, monkeypatch):
        seeds = [self.seed(s) for s in range(3)]
        given = TransitionMatrix(entries=random_transition(3, np.random.default_rng(3)),
                                 provenance={})
        stacks = self.record_stacks(monkeypatch)
        got = run_seeds(ARMS, seeds, *self.configs, transition_override=given)
        monkeypatch.undo()
        assert stacks == [(3, 3), (3, 6), (3, 6)]  # the clean-only stage is BL1's alone
        for seed, outcome in zip(seeds, got):
            assert outcome[ARM_PROPOSED].oracle is None
            assert outcome[ARM_PROPOSED].transition is given
            self.assert_same_seed(outcome, self.alone(seed, transition_override=given))
            self.assert_same_seed(outcome, self.alone(seed), arms=[ARM_BL1])

    def test_one_corpus_for_every_seed_counts_each_seeds_reads(self):
        web = make_web(self.seed(0).clean_train)
        seeds = [self.seed(s, web=web) for s in range(3)]
        got = run_seeds(ARMS, seeds, *self.configs)
        assert web.access_count == 6  # each seed's two reads, each counted in its own log
        for seed, outcome in zip(seeds, got):
            self.assert_same_seed(outcome, self.alone(seed))

    def test_diverged_members_fail_only_their_own_cells(self):
        seeds = [self.seed(s) for s in range(3)]
        web = seeds[1].web  # a far member overflows the web stage of seed 1 only
        far = web.X.copy()
        far[0] = [1e308, -1e308, 1e308, -1e308]
        seeds[1].web = WebCorpus(query_ids=web.query_ids, labels=web.labels,
                                 offsets=web.offsets, member_ids=web.member_ids, X=far,
                                 num_classes=3)
        got = run_seeds(ARMS, seeds, *self.configs)
        assert isinstance(got[1][ARM_BL2], DivergenceError)
        assert "overflow the oracle" in str(got[1][ARM_PROPOSED])  # estimation names the member
        self.assert_same_seed(got[1], self.alone(seeds[1]), arms=[ARM_BL1])
        for s in (0, 2):
            self.assert_same_seed(got[s], self.alone(seeds[s]))

    def test_other_toolkit_error_of_a_stack_fails_only_its_seed(self, monkeypatch):
        seeds = [self.seed(s) for s in range(3)]
        clean = seeds[1].clean_train  # same size, but class 2 absent: its weights raise
        seeds[1].clean_train = Dataset(clean.ids, clean.group_ids, clean.X,
                                       np.where(clean.y == 2, 0, clean.y), 3)
        stacks = self.record_stacks(monkeypatch)
        got = run_seeds(ARMS, seeds, *self.configs)
        monkeypatch.undo()
        # seed 1's member of the clean-only stack fails in its slot; its BL2,
        # its oracle having failed, then stacks apart
        assert stacks == [(3, 3), (2, 4), (1, 1), (2, 4), (1, 1)]
        for arm in (ARM_BL1, ARM_PROPOSED, ARM_BL2):
            assert isinstance(got[1][arm], ValidationError)
            assert "class absent" in str(got[1][arm])
        for s in (0, 2):
            self.assert_same_seed(got[s], self.alone(seeds[s]))

    def test_failed_web_flatten_fails_only_its_seeds_web_arms(self, monkeypatch):
        seeds = [self.seed(s) for s in range(3)]
        real = train.flatten_web

        def seed_1_flatten_fails(corpus):
            if corpus is seeds[1].web:
                raise ValidationError("no flat corpus for seed 1")
            return real(corpus)

        monkeypatch.setattr(train, "flatten_web", seed_1_flatten_fails)
        got = run_seeds(ARMS, seeds, *self.configs)
        monkeypatch.undo()
        assert [str(got[1][arm]) for arm in (ARM_BL2, ARM_PROPOSED)] == [
            "no flat corpus for seed 1"] * 2
        self.assert_same_seed(got[1], self.alone(seeds[1]), arms=[ARM_BL1])
        for s in (0, 2):
            self.assert_same_seed(got[s], self.alone(seeds[s]))

    def test_each_seed_builds_one_initial_model_for_all_its_stages(self, monkeypatch):
        seeds = [self.seed(s) for s in range(3)]
        real, built = train.init_params, []

        def recorded(cfg):
            built.append(real(cfg))
            return built[-1]

        monkeypatch.setattr(train, "init_params", recorded)
        run_seeds(ARMS, seeds, *self.configs)
        monkeypatch.undo()
        assert [m.config.init_seed for m in built] == [self.configs[2].init_seed + s
                                                       for s in range(3)]
        # the clean-only and the web stage both started from it and left it as built
        for model in built:
            assert model.flat.tobytes() == init_params(model.config).flat.tobytes()
