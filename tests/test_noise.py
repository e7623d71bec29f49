"""Tests for representative mining and transition-matrix estimation."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import make_clean_dataset
from webly.data import (
    BackgroundSpec,
    NoiseSpec,
    WebCorpus,
    synth_web_corpus,
)
from webly.errors import ParseError, ValidationError, WeblyError
from webly.model import ModelConfig, ModelParams, forward, init_params
from webly.noise import (
    TransitionMatrix,
    estimate_transition,
    load_transition,
    save_transition,
    validate_transition,
)


def posterior_oracle(k: int, scale: float = 1.0) -> ModelParams:
    """Linear softmax with identity weights: given log-posterior features it
    reproduces the posteriors; with a large scale it saturates to one-hot."""
    cfg = ModelConfig(input_dim=k, hidden_sizes=[], num_classes=k)
    return ModelParams(config=cfg, weights=[scale * np.eye(k)],
                       biases=[np.zeros(k)])


def corpus_from_posteriors(rows, transferred_label=0) -> WebCorpus:
    """One bag whose members produce exactly these posteriors under the
    identity oracle (features are log-posteriors)."""
    rows = np.asarray(rows, dtype=np.float64)
    k = rows.shape[1]
    return WebCorpus(query_ids=["q0"], labels=[transferred_label],
                     offsets=[0, len(rows)],
                     member_ids=[f"m{i}" for i in range(len(rows))],
                     X=np.log(rows), num_classes=k)


def representatives(oracle: ModelParams, corpus: WebCorpus) -> dict:
    return estimate_transition(oracle, corpus).provenance["representatives"]


class TestMineRepresentatives:
    """Representative mining: the member ``estimate_transition`` picks per class."""

    def test_argmax_selects_highest_posterior_member(self):
        # class-0 posteriors across members: 0.2, 0.7, 0.5 -> second member
        corpus = corpus_from_posteriors([[0.2, 0.8], [0.7, 0.3], [0.5, 0.5]])
        assert representatives(posterior_oracle(2), corpus) == {"0": "m1", "1": "m0"}

    def test_ties_break_to_lowest_flattened_index(self):
        corpus = corpus_from_posteriors([[0.6, 0.4], [0.6, 0.4], [0.5, 0.5]])
        assert representatives(posterior_oracle(2), corpus)["0"] == "m0"

    def test_argmax_ignores_transferred_labels(self):
        # the best class-1 member sits in a bag transferred as class 0
        corpus = corpus_from_posteriors([[0.1, 0.9], [0.8, 0.2]],
                                        transferred_label=0)
        assert representatives(posterior_oracle(2), corpus)["1"] == "m0"

    def test_class_count_mismatch_rejected(self):
        corpus = corpus_from_posteriors([[0.5, 0.5]])
        with pytest.raises(ValidationError, match="classes"):
            estimate_transition(posterior_oracle(3), corpus)

    def test_mining_counts_as_web_access(self):
        corpus = corpus_from_posteriors([[0.5, 0.5]])
        estimate_transition(posterior_oracle(2), corpus)
        assert corpus.access_count == 1

    def test_blockwise_pass_matches_one_forward_over_all_members(self):
        # 1,025 members score in three blocks of 512 rows, the last (rows
        # 513 to 1024) overlapping the one before it, so no block is the
        # lone last row (with this seed it rounds differently scored alone,
        # by matrix-vector product)
        rng = np.random.default_rng(23)
        oracle = init_params(ModelConfig(input_dim=4, hidden_sizes=[7], num_classes=3,
                                         init_seed=5))
        x = rng.normal(size=(1025, 4))
        first, _ = forward(oracle, x, train=False)
        # bias-free ReLU layers scale with the input, so tripling a row
        # sharpens its posterior: class 0 gets an exact tie across the block
        # boundary, class 1 its best member last
        x[511] = x[512] = 3 * x[first[:, 0].argmax()]
        x[1024] = 3 * x[first[:, 1].argmax()]
        corpus = WebCorpus(query_ids=["q0", "q1"], labels=[0, 1], offsets=[0, 600, 1025],
                           member_ids=[f"m{i}" for i in range(1025)], X=x, num_classes=3)
        reference, _ = forward(oracle, x, train=False)
        reps = reference.argmax(axis=0)
        assert reps[0] == 511 and reference[512, 0] == reference[511, 0]
        assert reps[1] == 1024
        t = estimate_transition(oracle, corpus)
        assert np.array_equal(t.entries, reference[reps])
        assert t.provenance["representatives"] == {str(c): f"m{i}"
                                                   for c, i in enumerate(reps)}


class TestEstimateTransition:
    def test_rows_are_representative_posteriors(self):
        corpus = corpus_from_posteriors([[0.8, 0.2], [0.3, 0.7]])
        t = estimate_transition(posterior_oracle(2), corpus)
        np.testing.assert_allclose(t.entries, [[0.8, 0.2], [0.3, 0.7]],
                                   atol=1e-12)

    def test_perfect_oracle_on_noiseless_corpus_gives_exact_identity(self):
        # well separated one-hot class means, saturated oracle
        clean = make_clean_dataset(k=3, per_class=5, separation=1.0,
                                   sigma=0.01, seed=3)
        noise = NoiseSpec(cross_category_kernel=np.eye(3),
                          cross_domain_rate=0.0, bag_size=4, seed=8)
        web = synth_web_corpus(clean, noise, BackgroundSpec())
        oracle = posterior_oracle(3, scale=5000.0)
        t = estimate_transition(oracle, web)
        assert np.array_equal(t.entries, np.eye(3))

    def test_rows_always_sum_to_one(self):
        clean = make_clean_dataset(k=4, d=6, per_class=8, separation=2.0,
                                   sigma=1.0, seed=5)
        noise = NoiseSpec(cross_category_kernel=np.full((4, 4), 0.25),
                          cross_domain_rate=0.3, bag_size=5, seed=6)
        web = synth_web_corpus(clean, noise, BackgroundSpec())
        cfg = ModelConfig(input_dim=6, hidden_sizes=[8], num_classes=4,
                          init_seed=2)
        t = estimate_transition(init_params(cfg), web)
        np.testing.assert_allclose(t.entries.sum(axis=1), 1.0, atol=1e-9)

    def test_provenance_records_representatives(self):
        corpus = corpus_from_posteriors([[0.8, 0.2], [0.3, 0.7]])
        t = estimate_transition(posterior_oracle(2), corpus)
        assert t.provenance["representatives"] == {"0": "m0", "1": "m1"}
        assert "oracle" in t.provenance and "corpus" in t.provenance

    def test_member_overflowing_the_oracle_is_named(self):
        corpus = WebCorpus(query_ids=["q0", "q1"], labels=[0, 1], offsets=[0, 2, 3],
                           member_ids=["near", "far", "other"],
                           X=[[0.5, 0.1], [1e308, -1e308], [0.0, 0.3]], num_classes=2)
        with pytest.raises(ValidationError, match="web member 'far': its features overflow"):
            estimate_transition(posterior_oracle(2, scale=10.0), corpus)  # logits +-inf

    def test_permutation_equivariance(self):
        clean = make_clean_dataset(k=3, per_class=6, separation=3.0,
                                   sigma=1.0, seed=9)
        noise = NoiseSpec(cross_category_kernel=np.full((3, 3), 1 / 3),
                          cross_domain_rate=0.2, bag_size=4, seed=10)
        web = synth_web_corpus(clean, noise, BackgroundSpec())
        cfg = ModelConfig(input_dim=3, hidden_sizes=[6], num_classes=3,
                          init_seed=4)
        oracle = init_params(cfg)
        t = estimate_transition(oracle, web).entries

        perm = np.array([1, 2, 0])          # new index of each old class
        inverse = np.argsort(perm)
        permuted = oracle.copy()
        permuted.weights[-1][...] = oracle.weights[-1][:, inverse]
        permuted.biases[-1][...] = oracle.biases[-1][inverse]
        t_perm = estimate_transition(permuted, web).entries

        for i in range(3):
            for j in range(3):
                assert t_perm[perm[i], perm[j]] == pytest.approx(t[i, j],
                                                                 abs=1e-12)

    def test_invariant_to_bag_order(self):
        clean = make_clean_dataset(k=3, per_class=5, separation=2.0,
                                   sigma=1.0, seed=11)
        noise = NoiseSpec(cross_category_kernel=np.eye(3),
                          cross_domain_rate=0.1, bag_size=3, seed=12)
        web = synth_web_corpus(clean, noise, BackgroundSpec())
        bags = range(len(web.query_ids) - 1, -1, -1)
        members = np.concatenate([np.arange(web.offsets[b], web.offsets[b + 1])
                                  for b in bags])
        shuffled = WebCorpus(query_ids=web.query_ids[::-1],
                             labels=web.labels[::-1],
                             offsets=np.cumsum([0] + [3] * len(bags)),
                             member_ids=web.member_ids[members],
                             X=web.X[members], num_classes=3)
        cfg = ModelConfig(input_dim=3, hidden_sizes=[5], num_classes=3,
                          init_seed=1)
        oracle = init_params(cfg)
        assert representatives(oracle, web) == representatives(oracle, shuffled)


class TestValidateTransition:
    def test_identity_is_diagonally_dominant(self):
        t = TransitionMatrix(entries=np.eye(3), provenance={})
        diag = validate_transition(t)
        assert diag.all_rows_dominant
        np.testing.assert_allclose(diag.row_sums, 1.0)

    def test_uniform_rows_are_not_dominant(self):
        t = TransitionMatrix(entries=np.full((4, 4), 0.25), provenance={})
        diag = validate_transition(t)
        assert diag.diagonally_dominant == [False] * 4
        np.testing.assert_allclose(diag.row_sums, 1.0)

    def test_one_by_one_matrix_is_dominant(self):
        diag = validate_transition(TransitionMatrix(entries=[[1.0]], provenance={}))
        assert diag.diagonally_dominant == [True] and diag.all_rows_dominant

    def test_diagonal_tying_an_off_diagonal_entry_is_not_dominant(self):
        t = TransitionMatrix(entries=[[0.4, 0.4, 0.2], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]],
                             provenance={})
        diag = validate_transition(t)
        assert diag.diagonally_dominant == [False, True, True]
        assert all(type(d) is bool for d in diag.diagonally_dominant)
        assert not diag.all_rows_dominant


class TestTransitionInvariants:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValidationError, match="sum"):
            TransitionMatrix(entries=np.array([[0.9, 0.2], [0.5, 0.5]]),
                             provenance={})
        with pytest.raises(ValidationError):
            TransitionMatrix(entries=np.array([[1.2, -0.2], [0.5, 0.5]]),
                             provenance={})
        with pytest.raises(ValidationError, match="row-stochastic"):
            TransitionMatrix(entries=np.array([[np.nan, 1.0], [0.5, 0.5]]),
                             provenance={})


class TestTransitionJson:
    def test_round_trip_is_value_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        rows = rng.uniform(0.1, 1.0, size=(3, 3))
        rows /= rows.sum(axis=1, keepdims=True)
        t = TransitionMatrix(entries=rows, provenance={"oracle": "abc"})
        path = tmp_path / "t.json"
        save_transition(t, path)
        loaded = load_transition(path)
        assert np.array_equal(loaded.entries, t.entries)
        assert loaded.provenance == t.provenance

    def test_defects_raise_parse_error_naming_the_path(self, tmp_path):
        good = '{"k":2,"provenance":{},"rows":[[0.75,0.25],[0.5,0.5]]}'
        cases = {
            "truncated": '{"k":',
            "ragged": good.replace("[0.5,0.5]", "[0.5]"),
            "not-an-object": "[[1.0]]",
            "missing-rows": '{"k":2}',
            "wrong-k": good.replace('"k":2', '"k":3'),
            "not-stochastic": good.replace("0.25", "0.5"),
            "not-utf8": '{"k":2,"provenance":{"\xff":1}}',
            "k-boolean": '{"k":true,"provenance":{},"rows":[[1.0]]}',
            "k-float": good.replace('"k":2', '"k":2.0'),
            "provenance-list": good.replace('"provenance":{}', '"provenance":[]'),
            "rows-boolean": '{"k":2,"provenance":{},"rows":[[true,false],[false,true]]}',
            "rows-numeric-strings": '{"k":2,"provenance":{},"rows":[["1","0"],["0","1"]]}',
        }
        for name, text in cases.items():
            path = tmp_path / f"{name}.json"
            path.write_bytes(text.encode("latin-1"))
            with pytest.raises(ParseError, match=re.escape(str(path))):
                load_transition(path)

    def test_rows_not_stochastic_name_the_path(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"k":2,"provenance":{},"rows":[[0.5,0.6],[0.5,0.5]]}')
        with pytest.raises(ParseError) as info:
            load_transition(path)
        assert str(info.value) == (f"{path}: transition must be row-stochastic: square, "
                                   "entries in [0, 1], each row summing to 1 within 1e-9")

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_truncated_or_bit_flipped_file_loads_or_raises_webly_error(
            self, tmp_path, data):
        path = tmp_path / "t.json"
        save_transition(TransitionMatrix(entries=[[0.75, 0.25], [1e-05, 0.99999]],
                                         provenance={"oracle": "abc"}), path)
        blob = path.read_bytes()
        at = data.draw(st.integers(0, len(blob) - 1), label="at")
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[:at]
        else:
            bit = data.draw(st.integers(0, 7), label="bit")
            blob = blob[:at] + bytes([blob[at] ^ (1 << bit)]) + blob[at + 1:]
        path.write_bytes(blob)
        try:
            load_transition(path)
        except WeblyError:
            pass

    def test_rewrite_is_byte_identical(self, tmp_path):
        corpus = corpus_from_posteriors([[0.8, 0.2], [0.3, 0.7]])
        t = estimate_transition(posterior_oracle(2), corpus)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_transition(t, p1)
        save_transition(load_transition(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
