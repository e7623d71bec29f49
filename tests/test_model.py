"""Tests for the feedforward classifier: forward/backward, dropout, checkpoints."""

import hashlib
import json
import math
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import fd_max_rel_error, make_clean_dataset
from webly.data import BackgroundSpec, Dataset, NoiseSpec, WebCorpus, synth_web_corpus
from webly.errors import CheckpointError, ValidationError
from webly.loss import modulated_cross_entropy
from webly.metrics import write_features_csv
from webly import model
from webly.model import (
    EVAL_BLOCK,
    MODEL_MAX_PARAMS,
    ForwardCache,
    ModelConfig,
    ModelParams,
    backward,
    fingerprint,
    forward,
    forward_layers,
    init_params,
    load_checkpoint,
    pcg64_states,
    penultimate_features,
    predict,
    rewind,
    save_checkpoint,
    softmax,
)


def zero_params(cfg: ModelConfig) -> ModelParams:
    return ModelParams(config=cfg,
                       weights=[np.zeros((i, o)) for i, o in cfg.layer_dims()],
                       biases=[np.zeros(o) for _, o in cfg.layer_dims()])


class TestInit:
    def test_shapes_chain_through_hidden_layers(self):
        cfg = ModelConfig(input_dim=4, hidden_sizes=[8], num_classes=3)
        params = init_params(cfg)
        assert params.weights[0].shape == (4, 8)
        assert params.weights[1].shape == (8, 3)
        assert params.biases[0].shape == (8,)
        assert params.biases[1].shape == (3,)

    def test_deterministic_given_seed(self):
        cfg = ModelConfig(input_dim=4, hidden_sizes=[8], num_classes=3,
                          init_seed=7)
        a, b = init_params(cfg), init_params(cfg)
        assert np.array_equal(a.flat, b.flat)

    def test_biases_start_at_zero(self):
        cfg = ModelConfig(input_dim=5, hidden_sizes=[6, 7], num_classes=2)
        params = init_params(cfg)
        for b in params.biases:
            assert np.array_equal(b, np.zeros_like(b))

    def test_layers_off_the_config_rejected(self):
        cfg = ModelConfig(input_dim=2, hidden_sizes=[3], num_classes=2)
        weights, biases = [np.zeros((2, 3)), np.zeros((3, 2))], [np.zeros(3), np.zeros(2)]
        with pytest.raises(ValidationError, match="^layer count does not match config$"):
            ModelParams(cfg, weights[:1], biases[:1])
        with pytest.raises(ValidationError,
                           match=re.escape("layer shapes (3, 2)/(3,) != (2,3)/(3,)")):
            ModelParams(cfg, [np.zeros((3, 2)), weights[1]], biases)

    def test_layers_are_views_of_one_flat_vector(self):
        cfg = ModelConfig(input_dim=5, hidden_sizes=[6, 7], num_classes=2)
        params = init_params(cfg)
        assert params.flat.shape == (cfg.param_count(),) == (6 * 6 + 7 * 7 + 8 * 2,)
        for w, b in zip(params.weights, params.biases):
            assert np.shares_memory(w, params.flat)
            assert np.shares_memory(b, params.flat)
        params.weights[1][2, 3] = 7.5
        assert params.flat[5 * 6 + 6 + 2 * 7 + 3] == 7.5
        assert not np.shares_memory(params.copy().flat, params.flat)

    def test_non_finite_parameter_rejected(self):
        cfg = ModelConfig(input_dim=2, hidden_sizes=[], num_classes=2)
        with pytest.raises(ValidationError, match="non-finite"):
            ModelParams(config=cfg, weights=[np.full((2, 2), np.nan)],
                        biases=[np.zeros(2)])

    def test_parameter_count_is_bounded_naming_hidden_sizes(self):
        # one weight and one bias per class: 2 * num_classes parameters
        half = MODEL_MAX_PARAMS // 2
        assert ModelConfig(input_dim=1, hidden_sizes=[], num_classes=half).param_count() \
            == MODEL_MAX_PARAMS
        with pytest.raises(ValidationError, match="hidden_sizes"):
            ModelConfig(input_dim=1, hidden_sizes=[], num_classes=half + 1)
        with pytest.raises(ValidationError, match="hidden_sizes"):
            ModelConfig(input_dim=8, hidden_sizes=[10 ** 20], num_classes=5)

    def test_weight_scale_follows_fan_in_rule(self):
        cfg = ModelConfig(input_dim=400, hidden_sizes=[300], num_classes=2,
                          init_seed=3)
        params = init_params(cfg)
        observed = params.weights[0].std()
        assert abs(observed - math.sqrt(2.0 / 400)) < 0.005


class TestForward:
    def test_zero_logits_give_uniform_posteriors(self):
        cfg = ModelConfig(input_dim=3, hidden_sizes=[4], num_classes=5)
        posteriors, _ = forward(zero_params(cfg), np.random.default_rng(0).normal(size=(6, 3)))
        np.testing.assert_allclose(posteriors, 1 / 5, atol=1e-15)

    def test_hand_evaluated_softmax(self):
        # logits (ln 3, 0) -> posteriors (0.75, 0.25)
        cfg = ModelConfig(input_dim=2, hidden_sizes=[], num_classes=2)
        params = zero_params(cfg)
        params.weights[0][0, 0] = math.log(3.0)
        posteriors, _ = forward(params, np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(posteriors, [[0.75, 0.25]], atol=1e-12)

    def test_keep_prob_one_makes_train_equal_eval(self):
        cfg = ModelConfig(input_dim=4, hidden_sizes=[8, 8], num_classes=3,
                          dropout_keep_prob=1.0)
        params = init_params(cfg)
        x = np.random.default_rng(1).normal(size=(10, 4))
        train_post, _ = forward(params, x, train=True, dropout_seed=5)
        eval_post, _ = forward(params, x, train=False)
        assert np.array_equal(train_post, eval_post)

    def test_dropout_is_seeded_and_deterministic(self):
        cfg = ModelConfig(input_dim=4, hidden_sizes=[16], num_classes=3,
                          dropout_keep_prob=0.5)
        params = init_params(cfg)
        x = np.random.default_rng(2).normal(size=(10, 4))
        a, _ = forward(params, x, train=True, dropout_seed=9)
        b, _ = forward(params, x, train=True, dropout_seed=9)
        c, _ = forward(params, x, train=True, dropout_seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_non_finite_input_rejected(self):
        cfg = ModelConfig(input_dim=2, hidden_sizes=[4], num_classes=2)
        params = init_params(cfg)
        bad = np.array([[1.0, np.nan]])
        with pytest.raises(ValidationError, match="non-finite"):
            forward(params, bad)

    def test_softmax_rows_sum_to_one_for_huge_logits(self):
        rng = np.random.default_rng(3)
        logits = rng.uniform(-1e3, 1e3, size=(50, 7))
        p = softmax(logits)
        assert np.all(np.isfinite(p))
        assert np.all(p >= 0) and np.all(p <= 1)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


def plain_softmax(logits):
    """The softmax as written out: max over the last axis, exp, row sum."""
    e = np.exp(logits - logits.max(-1, keepdims=True))
    return e / e.sum(-1, keepdims=True)


def special_rows(k, rng):
    """Twelve rows of k logits: tied maxima, a -0.0/+0.0 tie for the max,
    rows holding +inf, -inf or NaN, all -inf, and plain normal rows."""
    rows = rng.normal(size=(12, k))
    rows[0, [0, k - 1]] = rows[0].max() + 1.0  # a tie at the max, first and last
    rows[1] = -rng.uniform(1.0, 2.0, size=k)
    rows[1, 0], rows[1, k - 1] = -0.0, 0.0
    rows[2] = rows[1, ::-1]  # +0.0 first, then -0.0
    rows[3, 1] = np.inf
    rows[4, 0] = -np.inf
    rows[5] = -np.inf
    rows[6, k // 2] = np.nan
    rows[7, [0, 1]] = np.inf, np.nan
    rows[8, [0, 1]] = -np.inf, np.inf
    rows[9] = 0.0
    rows[9, ::2] = -0.0
    return rows


class TestSoftmaxRowMax:
    """``softmax`` takes the row max from a transposed copy; its output is
    bit-equal to the plain form's on every layout and on special values."""

    @pytest.mark.parametrize("k", [2, 5, 10, 17])
    @pytest.mark.parametrize("lead", [(), (12,), (3, 4), (2, 3, 2)])
    def test_bit_equal_to_the_plain_form(self, k, lead):
        rows = special_rows(k, np.random.default_rng(k))
        inputs = list(rows) if not lead else [rows.reshape(*lead, k)]
        with np.errstate(invalid="ignore"):  # inf - inf in the rows holding both
            for logits in inputs:
                want = plain_softmax(logits)
                out = np.empty_like(logits)
                for got in (softmax(logits), softmax(logits, out=out)):
                    assert got.shape == logits.shape
                    assert got.tobytes() == want.tobytes()
                assert out.tobytes() == want.tobytes()


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        cfg = ModelConfig(input_dim=3, hidden_sizes=[5], num_classes=4)
        params = init_params(cfg)
        x = np.random.default_rng(0).normal(size=(6, 3))
        _, cache = forward(params, x, train=True, dropout_seed=1)
        grad = backward(cache, np.zeros((6, 4)))
        assert grad.shape == params.flat.shape
        assert np.array_equal(grad, np.zeros_like(params.flat))

    def test_upstream_shape_mismatch_rejected(self):
        cfg = ModelConfig(input_dim=3, hidden_sizes=[5], num_classes=4)
        params = init_params(cfg)
        _, cache = forward(params, np.zeros((6, 3)))
        with pytest.raises(ValidationError):
            backward(cache, np.zeros((6, 3)))

    def test_gradients_match_finite_differences(self):
        cfg = ModelConfig(input_dim=6, hidden_sizes=[8, 8], num_classes=4)
        worst = fd_max_rel_error(cfg, batch_size=8, n_coords=100, h=1e-4,
                                 seed=0, keep_prob=0.8)
        assert worst < 1e-5

    def test_gradients_match_finite_differences_without_dropout(self):
        cfg = ModelConfig(input_dim=6, hidden_sizes=[8, 8], num_classes=4)
        worst = fd_max_rel_error(cfg, batch_size=8, n_coords=100, h=1e-4,
                                 seed=1, keep_prob=1.0)
        assert worst < 1e-5

    def test_batch_gradient_is_sum_of_per_example_contributions(self):
        cfg = ModelConfig(input_dim=5, hidden_sizes=[7], num_classes=3,
                          dropout_keep_prob=0.7)
        params = init_params(cfg)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 5))
        upstream = rng.normal(size=(6, 3))
        _, cache = forward(params, x, train=True, dropout_seed=2)
        full = backward(cache, upstream).copy()  # the next backward overwrites the workspace
        acc = np.zeros_like(full)
        for n in range(6):
            masked = np.zeros_like(upstream)
            masked[n] = upstream[n]
            acc += backward(cache, masked)
        np.testing.assert_allclose(acc, full, atol=1e-12)


class TestPredict:
    def test_deterministic_and_normalized(self):
        ds = make_clean_dataset(k=3, per_class=10)
        cfg = ModelConfig(input_dim=3, hidden_sizes=[8], num_classes=3,
                          init_seed=1)
        params = init_params(cfg)
        a = predict(params, ds)
        b = predict(params, ds)
        assert np.array_equal(a, b)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-9)

    def test_dim_mismatch_rejected(self):
        ds = make_clean_dataset(k=3, d=4)
        cfg = ModelConfig(input_dim=3, hidden_sizes=[8], num_classes=3)
        with pytest.raises(ValidationError):
            predict(init_params(cfg), ds)

    def test_non_finite_row_rejected(self):
        cfg = ModelConfig(input_dim=3, hidden_sizes=[8], num_classes=3)
        x = np.ones((4, 3))
        x[2, 1] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            predict(init_params(cfg), SimpleNamespace(X=x))


class TestPenultimateFeatures:
    def test_shape_is_last_hidden_size(self):
        ds = make_clean_dataset(k=3, per_class=4)
        cfg = ModelConfig(input_dim=3, hidden_sizes=[8, 6], num_classes=3)
        feats = penultimate_features(init_params(cfg), ds)
        assert feats.shape == (len(ds), 6)

    def test_requires_a_hidden_layer(self):
        ds = make_clean_dataset(k=3, per_class=4)
        cfg = ModelConfig(input_dim=3, hidden_sizes=[], num_classes=3)
        with pytest.raises(ValidationError, match="hidden"):
            penultimate_features(init_params(cfg), ds)

    def test_csv_export_round_trips_bit_exactly(self, tmp_path):
        ds = make_clean_dataset(k=3, per_class=4)
        cfg = ModelConfig(input_dim=3, hidden_sizes=[5], num_classes=3,
                          init_seed=2)
        feats = penultimate_features(init_params(cfg), ds)
        path = tmp_path / "features.csv"
        write_features_csv(ds.ids, feats, path)
        import csv as csv_mod
        with open(path) as fh:
            rows = list(csv_mod.reader(fh))
        loaded = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        assert np.array_equal(loaded, feats)


class TestStackedModels:
    """A stack of models of one config runs each member's numbers exactly."""

    def members(self):
        cfg = ModelConfig(input_dim=4, hidden_sizes=[6, 5], num_classes=3,
                          dropout_keep_prob=0.7)
        first = init_params(cfg)
        second = ModelParams(cfg, [w * 0.5 for w in first.weights],
                             [b + 0.1 for b in first.biases])
        return first, second

    def test_views_share_the_stacked_vector(self):
        stack = ModelParams.stack(self.members())
        assert stack.flat.shape[0] == 2
        for w, b in zip(stack.weights, stack.biases):
            assert w.shape[0] == b.shape[0] == 2
            assert np.shares_memory(w, stack.flat)
            assert np.shares_memory(b, stack.flat)
        for member, row in zip(self.members(), stack.flat):
            assert np.array_equal(member.flat, row)

    def test_forward_and_backward_match_each_member_bit_for_bit(self):
        members = self.members()
        stack = ModelParams.stack(members)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(7, 4))
        upstream = rng.normal(size=(2, 7, 3))
        for train in (False, True):
            posteriors, cache = forward(stack, x, train=train, dropout_seed=(1, 2))
            grads = backward(cache, upstream)
            for i, member in enumerate(members):
                p, c = forward(member, x, train=train, dropout_seed=(1, 2))
                assert np.array_equal(posteriors[i], p)
                assert np.array_equal(grads[i], backward(c, upstream[i]))

    def test_members_must_share_one_config(self):
        first, _ = self.members()
        other = init_params(ModelConfig(input_dim=4, hidden_sizes=[6, 5],
                                        num_classes=3, init_seed=1))
        with pytest.raises(ValidationError, match="one config"):
            ModelParams.stack([first, other])


def allocating_forward_backward(params, x, masks, upstream):
    """The forward and backward pass with a new array for every intermediate
    and the gradient packed by concatenation: the reference for a workspace."""
    keep = params.config.dropout_keep_prob
    inputs, pre_acts, a = [], [], x
    for l, mask in enumerate(masks):
        inputs.append(a)
        z = a @ params.weights[l]
        z += params.bias_rows[l]
        pre_acts.append(z)
        a = np.maximum(z, 0.0)
        if mask is not None:
            a *= mask
            a /= keep
    inputs.append(a)
    logits = a @ params.weights[-1]
    logits += params.bias_rows[-1]
    parts, dz = [], upstream
    for l in range(len(params.weights) - 1, -1, -1):
        if l < len(pre_acts):
            dz = dz @ params.weights_t[l + 1]
            if masks[l] is not None:
                dz *= masks[l]
                dz /= keep
            dz *= pre_acts[l] > 0
        parts.append(dz.sum(axis=-2))
        parts.append((inputs[l].swapaxes(-1, -2) @ dz).reshape(*params.flat.shape[:-1], -1))
    return softmax(logits), np.concatenate(parts[::-1], axis=-1)


class TestWorkspace:
    """A stage's workspace, reused over full batches, and a ragged last
    batch's own workspace give the bits of the allocating pass."""

    @pytest.mark.parametrize("hidden, keep", [([5, 3, 7], 0.7), ([5, 3, 7], 1.0), ([], 0.7)])
    def test_full_then_ragged_batches_equal_the_allocating_pass(self, hidden, keep):
        cfg = ModelConfig(input_dim=4, hidden_sizes=hidden, num_classes=3,
                          dropout_keep_prob=keep, init_seed=6)
        first = init_params(cfg)
        second = ModelParams(cfg, [w * -0.8 for w in first.weights],
                             [b + 0.3 for b in first.biases])
        rng = np.random.default_rng(5)
        for params in (first, ModelParams.stack([first, second])):
            full = ForwardCache(params, 8, train=True)
            ragged = [ForwardCache(params, rows, train=True) for rows in (1, 3)]
            for batch, cache in enumerate([full, full, *ragged]):
                rows = cache.logits.shape[-2]
                x = rng.normal(size=(rows, 4))
                upstream = rng.normal(size=cache.logits.shape)
                cache.draw_masks(np.random.default_rng((2, batch)))
                posteriors = forward_layers(cache, x)
                grad = backward(cache, upstream)
                masks = (per_layer_dropout_forward(params, x, (2, batch))[1] if keep < 1
                         else [None] * len(hidden))
                want_p, want_grad = allocating_forward_backward(params, x, masks, upstream)
                assert np.array_equal(posteriors, want_p)
                assert np.array_equal(grad, want_grad)
                assert np.shares_memory(grad, cache.grad)
                # the checked public calls run the same helpers on a new workspace
                p, fresh = forward(params, x, train=True, dropout_seed=(2, batch))
                assert np.array_equal(p, want_p)
                assert np.array_equal(backward(fresh, upstream), want_grad)

    def test_backward_on_a_forward_cache_writes_into_its_workspace(self):
        cfg = ModelConfig(input_dim=4, hidden_sizes=[5, 3], num_classes=3,
                          dropout_keep_prob=0.7, init_seed=6)
        params = init_params(cfg)
        rng = np.random.default_rng(8)
        x, upstream = rng.normal(size=(6, 4)), rng.normal(size=(6, 3))
        _, cache = forward(params, x, train=True, dropout_seed=3)
        grad = backward(cache, upstream)
        assert np.shares_memory(grad, cache.grad)
        masks = per_layer_dropout_forward(params, x, 3)[1]
        assert np.array_equal(grad, allocating_forward_backward(params, x, masks, upstream)[1])

    @pytest.mark.parametrize("keep", [0.7, 1.0])
    def test_seed_batches_and_masks_equal_each_member_alone(self, keep):
        # a stage over two seeds of two members each, viewed as (S, A, P):
        # each seed's members share its rows of a shuffled epoch and its masks
        cfg = ModelConfig(input_dim=4, hidden_sizes=[5, 3, 7], num_classes=3,
                          dropout_keep_prob=keep)
        members = [init_params(ModelConfig(**{**vars(cfg), "init_seed": s})) for s in range(4)]
        flat = ModelParams.stack(members).flat
        stack = ModelParams._from_flat(cfg, flat.reshape(2, 2, flat.shape[-1]))
        rng = np.random.default_rng(5)
        epoch = rng.normal(size=(2, 1, 20, 4))
        for lo, rows in ((0, 8), (8, 1), (9, 3)):
            cache = ForwardCache(stack, rows, train=True)
            x, upstream = epoch[..., lo:lo + rows, :], rng.normal(size=(2, 2, rows, 3))
            for seed in (1, 0):
                cache.draw_masks(np.random.default_rng((seed, rows)), seed)
            posteriors = forward_layers(cache, x)
            grad = backward(cache, upstream)
            for m, member in enumerate(members):
                seed, at = divmod(m, 2)
                p, alone = forward(member, x[seed, 0], train=True, dropout_seed=(seed, rows))
                assert np.array_equal(posteriors[seed, at], p)
                assert np.array_equal(grad[seed, at], backward(alone, upstream[seed, at]))

    def test_seed_axis_matmul_equals_each_members_product(self):
        # forward's x @ W and backward's x^T @ dz with each seed's (1, B, D)
        # slice of an epoch broadcast over its A members' (A, D, H) weights
        rng = np.random.default_rng(7)
        for _ in range(300):
            s, a, b, d, h, lo = (int(v) for v in rng.integers(1, [5, 5, 40, 20, 20, 5]))
            x = rng.normal(size=(s, 1, lo + b + 3, d))[..., lo:lo + b, :]
            w, dz = rng.normal(size=(s, a, d, h)), rng.normal(size=(s, a, b, h))
            product, grad = np.matmul(x, w), np.matmul(x.swapaxes(-1, -2), dz)
            for i in range(s):
                for j in range(a):
                    assert np.array_equal(product[i, j], x[i, 0] @ w[i, j])
                    assert np.array_equal(grad[i, j], x[i, 0].T @ dz[i, j])


class TestSignGates:
    """``backward`` gates each delta by ``np.sign`` of its activation, which
    gives the bits of gating by ``np.greater(activation, 0.0)``: an
    activation is +0.0, positive or NaN, and a NaN one sits in a row whose
    delta is all NaN before the gate."""

    @pytest.mark.parametrize("keep", [0.7, 1.0])
    def test_sign_gates_equal_greater_gates(self, keep):
        cfg = ModelConfig(input_dim=4, hidden_sizes=[5, 3, 4], num_classes=3,
                          dropout_keep_prob=keep, init_seed=2)
        first = init_params(cfg)  # biases +0.0
        second = ModelParams(cfg, [w * -0.8 for w in first.weights],
                             [b + 0.3 for b in first.biases])
        params = ModelParams.stack([first, second])
        x = np.random.default_rng(4).normal(size=(8, 4))
        x[1] = 0.0  # pre-activations of exactly +0.0 in the first member
        x[2] = [np.inf, 0.0, 0.0, 0.0]  # +inf and -inf, then inf or NaN further up
        x[3] = [np.nan, 0.0, 0.0, 0.0]  # a NaN row
        labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])
        cache = ForwardCache(params, 8, train=True)
        cache.draw_masks(np.random.default_rng(9))
        with np.errstate(over="ignore", invalid="ignore"):
            posteriors = forward_layers(cache, x)
            upstream = modulated_cross_entropy(posteriors, labels, np.stack([np.eye(3)] * 2),
                                               np.ones(3)).logit_grads
            grad = backward(cache, upstream).copy()
            z = cache.pre_activations
            assert (z[0][0, 1] == 0.0).all() and np.isposinf(z[0][:, 2]).any()
            assert np.isnan(z[0][:, 3]).all()
            # the same chain gated by activation > 0
            dz, parts = upstream, []
            for l in range(len(params.weights) - 1, -1, -1):
                if l < len(cache.gates):
                    delta, activation = dz @ params.weights_t[l + 1], cache.inputs[l + 1]
                    nan_rows = np.isnan(activation).any(axis=-1)
                    assert np.isnan(delta[nan_rows]).all()
                    greater = np.greater(activation, 0.0, out=np.empty_like(activation))
                    number = ~np.isnan(activation)
                    assert np.array_equal(cache.gates[l][number], greater[number])
                    assert not np.signbit(cache.gates[l][number]).any()
                    dz = delta * greater
                    if keep < 1:
                        dz /= keep
                parts += [np.add.reduce(dz, axis=-2),
                          (cache.inputs[l].swapaxes(-1, -2) @ dz).reshape(2, -1)]
        want = np.concatenate(parts[::-1], axis=-1)
        assert np.array_equal(grad.view(np.uint64), want.view(np.uint64))


class TestPcg64States:
    """``pcg64_states`` gives the PCG64 state ``np.random.default_rng`` starts
    from, for every seed of one call, whatever its entropy word count."""

    word = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**80),
                     st.integers(0, 2**32 - 1).map(np.uint32),
                     st.integers(0, 2**63 - 1).map(np.int64))
    seeds = st.one_of(word, st.lists(word, min_size=1, max_size=6).map(tuple))

    @staticmethod
    def state(row):
        hi, lo, inc_hi, inc_lo = (int(v) for v in row)
        return {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}

    @given(seeds=st.lists(seeds, max_size=8))
    def test_states_equal_default_rng(self, seeds):
        states = pcg64_states(seeds)
        assert states.shape == (len(seeds), 4) and states.dtype == np.uint64
        rng = np.random.Generator(np.random.PCG64())
        for seed, row in zip(seeds, states):
            want = np.random.default_rng(seed)
            assert self.state(row) == want.bit_generator.state["state"]
            assert rewind(rng, row).bit_generator.state == want.bit_generator.state
            assert np.array_equal(rng.random(3), want.random(3))

    def test_no_seeds_is_an_empty_table(self):
        assert pcg64_states([]).shape == (0, 4)

    def test_bad_seed_fails_as_default_rng_does(self):
        for seed in (-1, (1, -2)):
            with pytest.raises(ValueError):
                np.random.default_rng(seed)
            with pytest.raises(ValueError):
                pcg64_states([seed])

    def test_masks_drawn_into_a_buffer_equal_fresh_masks(self):
        cfg = ModelConfig(input_dim=4, hidden_sizes=[5, 3], num_classes=3,
                          dropout_keep_prob=0.6)
        params = init_params(cfg)
        for rows in (32, 3):
            _, cache = forward(params, np.zeros((rows, 4)), train=True, dropout_seed=(1, rows))
            reused = ForwardCache(params, rows, train=True)
            reused.kept[:] = 7.0
            reused.draw_masks(np.random.default_rng((1, rows)))
            assert all(np.array_equal(a, b)
                       for a, b in zip(cache.dropout_masks, reused.dropout_masks))
            assert all(np.shares_memory(m, reused.kept) for m in reused.dropout_masks)


def per_layer_dropout_forward(params, x, seed):
    """The training forward pass with each hidden layer's dropout mask drawn
    by a call of its own: the reference for one draw per step."""
    rng = np.random.default_rng(seed)
    keep = params.config.dropout_keep_prob
    a, masks = x, []
    for l in range(len(params.config.hidden_sizes)):
        h = np.maximum(a @ params.weights[l] + params.biases[l][..., None, :], 0.0)
        masks.append((rng.random(h.shape[-2:]) < keep).astype(np.float64))
        h *= masks[-1]
        h /= keep
        a = h
    logits = a @ params.weights[-1] + params.biases[-1][..., None, :]
    return softmax(logits), masks


class TestOneDropoutDraw:
    def members(self):
        cfg = ModelConfig(input_dim=4, hidden_sizes=[5, 3, 7], num_classes=3,
                          dropout_keep_prob=0.6, init_seed=4)
        first = init_params(cfg)
        second = ModelParams(cfg, [w * -0.7 for w in first.weights],
                             [b + 0.2 for b in first.biases])
        return first, second

    @pytest.mark.parametrize("rows", [32, 11, 1])  # full, tail, one-row batch
    def test_equals_one_draw_per_layer_solo_and_stacked(self, rows):
        first, second = self.members()
        x = np.random.default_rng(rows).normal(size=(rows, 4))
        for params in (first, ModelParams.stack([first, second])):
            seed = (3, 1, rows)
            posteriors, cache = forward(params, x, train=True, dropout_seed=seed)
            want, masks = per_layer_dropout_forward(params, x, seed)
            assert np.array_equal(posteriors, want)
            assert len(cache.dropout_masks) == len(masks)
            for got, mask in zip(cache.dropout_masks, masks):
                assert np.array_equal(got, mask)


class TestFingerprint:
    """``fingerprint`` hashes the documented stream, one ``update`` per part."""

    @staticmethod
    def per_part(parts):
        h = hashlib.sha256()
        for part in parts:
            h.update(np.ascontiguousarray(part, dtype="<f8") if isinstance(part, np.ndarray)
                     else str(part).encode())
        return h.hexdigest()[:16]

    def test_dataset_and_corpus_equal_per_part_hashing(self):
        # 600 dataset parts and 1,200 corpus parts: more than one joined chunk
        ds = make_clean_dataset(k=3, d=4, per_class=50, seed=5)
        web = synth_web_corpus(ds, NoiseSpec(cross_category_kernel=np.eye(3),
                                             cross_domain_rate=0.2, bag_size=3, seed=1),
                               BackgroundSpec())
        assert fingerprint(ds) == self.per_part(
            v for row in zip(ds.ids, ds.group_ids, ds.y.tolist(), ds.X) for v in row)
        members = iter(zip(web.member_ids, web.X))
        parts = []
        for query_id, label, size in zip(web.query_ids, web.labels.tolist(),
                                         np.diff(web.offsets).tolist()):
            parts += [query_id, label]
            for _ in range(size):
                parts += next(members)
        assert fingerprint(web) == self.per_part(parts)
        assert fingerprint(b"abc") == fingerprint("abc") == self.per_part(["abc"])
        empty = Dataset(ids=[], group_ids=[], X=np.empty((0, 4)), y=[], num_classes=2)
        assert fingerprint(empty) == self.per_part([])

    @pytest.mark.parametrize("sizes, d", [
        ([], 3),                                    # no bags
        ([0, 0, 0], 2),                             # only empty bags
        ([0, 3, 0, 0, 1, 40, 0, 2] * 9, 1),         # uneven bags over chunks, one feature
        ([33] + [0] * 31 + [1] * 40, 4),            # chunk edges at empty and one-member bags
    ])
    def test_corpus_of_uneven_bags_equals_per_part_hashing(self, sizes, d):
        m, b = sum(sizes), len(sizes)
        web = WebCorpus(query_ids=[f"q\u00e9{i}" for i in range(b)],
                        labels=[i % 3 for i in range(b)], offsets=np.cumsum([0, *sizes]),
                        member_ids=[f"m-\u00fc\U0001F600-{i}" for i in range(m)],
                        X=np.random.default_rng(m).normal(size=(m, d)), num_classes=3)
        members, parts = iter(zip(web.member_ids, web.X)), []
        for query_id, label, size in zip(web.query_ids, web.labels.tolist(), sizes):
            parts += [query_id, label]
            for _ in range(size):
                parts += next(members)
        assert fingerprint(web) == self.per_part(parts)


class TestRowBlocks:
    """``predict`` and ``penultimate_features`` score in row blocks and give
    the numbers of one forward over every row."""

    @pytest.mark.parametrize("rows", [0, 1, EVAL_BLOCK - 1, EVAL_BLOCK, EVAL_BLOCK + 1,
                                      2 * EVAL_BLOCK + 1, 3 * EVAL_BLOCK + 5])
    def test_equal_one_forward_solo_and_stacked(self, rows):
        cfg = ModelConfig(input_dim=8, hidden_sizes=[16, 16], num_classes=5,
                          init_seed=2)
        first = init_params(cfg)
        second = ModelParams(cfg, [w * 1.3 for w in first.weights],
                             [b - 0.1 for b in first.biases])
        ds = SimpleNamespace(X=np.random.default_rng(rows).normal(size=(rows, 8)))
        for params in (first, ModelParams.stack([first, second])):
            posteriors, cache = forward(params, ds.X, train=False)
            assert np.array_equal(predict(params, ds), posteriors)
            assert np.array_equal(penultimate_features(params, ds), cache.inputs[-1])

    def test_one_workspace_per_call(self, monkeypatch):
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return ForwardCache(*args, **kwargs)

        monkeypatch.setattr(model, "ForwardCache", counted)
        cfg = ModelConfig(input_dim=8, hidden_sizes=[16], num_classes=5)
        ds = SimpleNamespace(X=np.random.default_rng(0).normal(size=(3 * EVAL_BLOCK + 5, 8)))
        for score in (predict, penultimate_features):
            built.clear()
            score(init_params(cfg), ds)
            assert len(built) == 1


class TestCheckpoint:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        cfg = ModelConfig(input_dim=4, hidden_sizes=[6], num_classes=3,
                          init_seed=5)
        params = init_params(cfg)
        p1, p2 = tmp_path / "a.wslckpt", tmp_path / "b.wslckpt"
        save_checkpoint(params, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_is_value_exact(self, tmp_path):
        cfg = ModelConfig(input_dim=4, hidden_sizes=[6, 5], num_classes=3,
                          init_seed=6)
        params = init_params(cfg)
        path = tmp_path / "c.wslckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        assert np.array_equal(loaded.flat, params.flat)
        for w, b in zip(loaded.weights, loaded.biases):
            assert np.shares_memory(w, loaded.flat)
            assert np.shares_memory(b, loaded.flat)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.wslckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def saved_blob(self, tmp_path):
        cfg = ModelConfig(input_dim=2, hidden_sizes=[3], num_classes=2)
        path = tmp_path / "full.wslckpt"
        save_checkpoint(init_params(cfg), path)
        return path.read_bytes()

    def test_every_proper_prefix_rejected(self, tmp_path):
        blob = self.saved_blob(tmp_path)
        path = tmp_path / "cut.wslckpt"
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(CheckpointError, match=re.escape(str(path))):
                load_checkpoint(path)

    def test_header_not_json_names_the_path(self, tmp_path):
        blob = self.saved_blob(tmp_path)
        (header_len,) = struct.unpack("<Q", blob[8:16])
        path = tmp_path / "bad.wslckpt"
        path.write_bytes(blob[:16] + b"x" * header_len + blob[16 + header_len:])
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == (f"{path}: malformed header: "
                                   "Expecting value: line 1 column 1 (char 0)")

    def test_trailing_bytes_and_offsets_outside_payload_rejected(self, tmp_path):
        blob = self.saved_blob(tmp_path)
        path = tmp_path / "bad.wslckpt"
        path.write_bytes(blob + b"\x00")
        with pytest.raises(CheckpointError, match="payload"):
            load_checkpoint(path)

        (header_len,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16:16 + header_len])
        header["layers"][-1]["bias_offset"] += 8000
        text = json.dumps(header).encode()
        path.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text
                         + blob[16 + header_len:])
        with pytest.raises(CheckpointError, match="layout"):
            load_checkpoint(path)

        path.write_bytes(blob[:8] + struct.pack("<Q", 1 << 40) + blob[16:])
        with pytest.raises(CheckpointError, match="header length"):
            load_checkpoint(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_flipped_byte_loads_or_names_the_path(self, tmp_path, data):
        blob = bytearray(self.saved_blob(tmp_path))
        pos = data.draw(st.integers(0, len(blob) - 1))
        blob[pos] ^= data.draw(st.integers(1, 255))
        path = tmp_path / "flipped.wslckpt"
        path.write_bytes(bytes(blob))
        try:
            load_checkpoint(path)
        except CheckpointError as exc:
            assert str(path) in str(exc)
