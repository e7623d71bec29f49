"""Tests for the metrics suite: confusion, accuracy, kappa, AUC, evaluate."""

import csv
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import csv_floats, csv_outcome, csv_texts, make_clean_dataset
from webly.data import Dataset
from webly.errors import ValidationError
from webly.metrics import (
    EvalReport,
    _midranks,
    accuracy,
    cohens_kappa,
    confusion_matrix,
    evaluate,
    macro_recall,
    roc_auc_one_vs_rest,
    write_eval_csv,
    write_eval_json,
    write_features_csv,
)
from webly.model import ModelConfig, ModelParams, init_params, predict


def zero_model(d: int, k: int) -> ModelParams:
    cfg = ModelConfig(input_dim=d, hidden_sizes=[], num_classes=k)
    return ModelParams(config=cfg, weights=[np.zeros((d, k))],
                       biases=[np.zeros(k)])


def brute_force_auc(scores, is_positive):
    """Pair counting with ties worth half a win."""
    pos = [s for s, p in zip(scores, is_positive) if p]
    neg = [s for s, p in zip(scores, is_positive) if not p]
    wins = sum(1.0 if sp > sn else 0.5 if sp == sn else 0.0
               for sp in pos for sn in neg)
    return wins / (len(pos) * len(neg))


def loop_midranks(values):
    """Ranks by walking the stably sorted values one tie group at a time."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


class TestConfusionMatrix:
    def test_perfect_predictions_are_diagonal(self):
        true = [0, 0, 1, 2, 2, 2]
        conf = confusion_matrix(true, true, 3)
        assert np.array_equal(conf, np.diag([2, 1, 3]))

    def test_hand_counted_example(self):
        conf = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], 2)
        assert conf.tolist() == [[1, 1], [0, 2]]

    def test_row_sums_are_true_class_counts(self):
        rng = np.random.default_rng(0)
        true = rng.integers(0, 4, size=200)
        pred = rng.integers(0, 4, size=200)
        conf = confusion_matrix(true, pred, 4)
        assert np.array_equal(conf.sum(axis=1), np.bincount(true, minlength=4))

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValidationError, match="range"):
            confusion_matrix([0, 3], [0, 1], 3)


class TestAccuracy:
    def test_hand_arithmetic(self):
        assert accuracy(np.array([[1, 1], [0, 2]])) == 0.75

    def test_diagonal_is_perfect(self):
        assert accuracy(np.diag([3, 4, 5])) == 1.0

    def test_all_off_diagonal_is_zero(self):
        assert accuracy(np.array([[0, 4], [5, 0]])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            accuracy(np.zeros((2, 2), dtype=int))


class TestCohensKappa:
    def test_perfect_agreement(self):
        assert cohens_kappa(np.array([[2, 0], [0, 2]])) == 1.0

    def test_chance_level(self):
        assert cohens_kappa(np.array([[1, 1], [1, 1]])) == 0.0

    def test_hand_computed_value(self):
        # p_o = 0.7, p_e = (5*6 + 5*4) / 100 = 0.5 -> kappa = 0.4
        assert abs(cohens_kappa(np.array([[4, 1], [2, 3]])) - 0.4) < 1e-12

    def test_degenerate_single_cell(self):
        assert cohens_kappa(np.array([[7]])) == 1.0
        assert cohens_kappa(np.array([[5, 0], [0, 0]])) == 1.0

    def test_kappa_is_one_iff_diagonal(self):
        assert cohens_kappa(np.diag([3, 1, 2])) == 1.0
        assert cohens_kappa(np.array([[3, 1], [0, 2]])) < 1.0

    def test_zero_for_rows_proportional_to_column_marginals(self):
        # outer product counts: every row proportional to the column marginal
        conf = np.outer([1, 2, 3], [2, 3, 5])
        assert cohens_kappa(conf) == 0.0


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc_one_vs_rest([0.9, 0.8, 0.3, 0.1],
                                   [True, True, False, False]) == 1.0

    def test_all_tied_scores_give_half(self):
        assert roc_auc_one_vs_rest([0.4] * 6,
                                   [True, False, True, False, True, False]) == 0.5

    def test_hand_counted_pairs(self):
        assert roc_auc_one_vs_rest([0.9, 0.4, 0.6, 0.1],
                                   [True, False, True, False]) == 1.0
        assert roc_auc_one_vs_rest([0.9, 0.4, 0.3, 0.1],
                                   [True, False, True, False]) == 0.75

    def test_rank_statistic_equals_brute_force_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            n = int(rng.integers(2, 51))
            # coarse grid of score values forces plenty of ties
            scores = rng.integers(0, 8, size=n) / 8.0
            is_positive = rng.random(n) < 0.5
            if is_positive.all() or not is_positive.any():
                is_positive[0] = True
                is_positive[-1] = False
            got = roc_auc_one_vs_rest(scores, is_positive)
            assert got == brute_force_auc(scores.tolist(), is_positive.tolist())

    def test_single_class_input_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            roc_auc_one_vs_rest([0.4, 0.5], [True, True])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([-0.0, 0.0, 5e-324, 0.25, 0.5, 1.0 - 2 ** -53, 1.0]),
                    min_size=1, max_size=60))
    def test_midranks_equal_the_tie_group_loop_bit_for_bit(self, values):
        values = np.array(values)
        got = _midranks(values)
        assert got.dtype == np.float64 and np.array_equal(got, loop_midranks(values))


class TestEvaluate:
    def test_posterior_overflow_is_rejected_naming_the_row(self):
        ds = make_clean_dataset(k=3, per_class=4, seed=2)
        cfg = ModelConfig(input_dim=3, hidden_sizes=[16, 16], num_classes=3)
        params = init_params(cfg)
        huge = ModelParams(cfg, [w * 1e120 for w in params.weights], params.biases)
        with pytest.raises(ValidationError,
                           match=f"row {ds.ids[0]!r}: its features overflow the model"):
            evaluate(huge, ds)

    def test_empty_dataset_rejected(self):
        empty = Dataset(ids=[], group_ids=[], X=np.empty((0, 3)), y=[], num_classes=3)
        params = init_params(ModelConfig(input_dim=3, hidden_sizes=[2], num_classes=3))
        with pytest.raises(ValidationError, match="^cannot evaluate on an empty dataset$"):
            evaluate(params, empty)

    def test_perfect_model(self):
        # saturated linear model on near-one-hot features
        ds = make_clean_dataset(k=3, per_class=10, separation=1.0, sigma=0.01,
                                seed=2)
        cfg = ModelConfig(input_dim=3, hidden_sizes=[], num_classes=3)
        params = ModelParams(config=cfg, weights=[50.0 * np.eye(3)],
                             biases=[np.zeros(3)])
        report = evaluate(params, ds)
        assert report.accuracy == 1.0
        assert report.kappa == 1.0
        assert report.auc_per_class == [1.0, 1.0, 1.0]
        assert report.auc_mean == 1.0

    def test_uniform_posterior_model(self):
        ds = make_clean_dataset(k=3, per_class=10, seed=3)
        report = evaluate(zero_model(3, 3), ds)
        # argmax ties resolve to class 0, so accuracy is class 0's frequency
        assert report.accuracy == pytest.approx(10 / 30)
        assert report.kappa == 0.0
        assert report.auc_per_class == [0.5, 0.5, 0.5]

    def test_report_totals_equal_dataset_size(self):
        ds = make_clean_dataset(k=4, d=5, per_class=7, seed=4)
        cfg = ModelConfig(input_dim=5, hidden_sizes=[6], num_classes=4,
                          init_seed=5)
        report = evaluate(init_params(cfg), ds)
        assert report.total == len(ds)
        assert report.per_class_counts.sum() == len(ds)

    def test_metrics_invariant_to_example_order(self):
        ds = make_clean_dataset(k=3, per_class=8, seed=6)
        rng = np.random.default_rng(7)
        shuffled = ds.take(rng.permutation(len(ds)), "shuffled")
        cfg = ModelConfig(input_dim=3, hidden_sizes=[5], num_classes=3,
                          init_seed=8)
        params = init_params(cfg)
        a, b = evaluate(params, ds), evaluate(params, shuffled)
        assert a.accuracy == b.accuracy
        assert a.kappa == b.kappa
        assert a.auc_per_class == b.auc_per_class
        assert np.array_equal(a.confusion, b.confusion)

    def test_class_permutation_equivariance(self):
        ds = make_clean_dataset(k=3, per_class=8, separation=2.0, sigma=1.0,
                                seed=9)
        cfg = ModelConfig(input_dim=3, hidden_sizes=[16], num_classes=3,
                          init_seed=10)
        params = init_params(cfg)
        # equivariance holds only without argmax ties (ties resolve to the
        # lowest index, which permutation moves)
        posteriors = np.sort(predict(params, ds), axis=1)
        assert (posteriors[:, -1] > posteriors[:, -2]).all()
        base = evaluate(params, ds)

        perm = np.array([2, 0, 1])
        inverse = np.argsort(perm)
        permuted_params = params.copy()
        permuted_params.weights[-1][...] = params.weights[-1][:, inverse]
        permuted_params.biases[-1][...] = params.biases[-1][inverse]
        relabeled = Dataset(ids=ds.ids, group_ids=ds.group_ids, X=ds.X,
                            y=perm[ds.y], num_classes=3, name="relabeled")
        moved = evaluate(permuted_params, relabeled)

        assert moved.accuracy == pytest.approx(base.accuracy, abs=1e-12)
        assert moved.kappa == pytest.approx(base.kappa, abs=1e-12)
        for c in range(3):
            assert moved.auc_per_class[perm[c]] == pytest.approx(
                base.auc_per_class[c], abs=1e-12)
            np.testing.assert_array_equal(
                moved.confusion[perm[c]][perm], base.confusion[c])

    def test_absent_class_auc_marked_absent(self):
        ds = make_clean_dataset(k=3, per_class=6, seed=11)
        reduced = ds.take(ds.y != 2, "no-class-2")
        cfg = ModelConfig(input_dim=3, hidden_sizes=[4], num_classes=3,
                          init_seed=12)
        report = evaluate(init_params(cfg), reduced)
        assert report.auc_per_class[2] is None
        assert report.auc_notes[2] == "class absent from dataset"
        defined = [a for a in report.auc_per_class if a is not None]
        assert report.auc_mean == pytest.approx(np.mean(defined))


def reference_write_eval_csv(report, path):
    """The eval.csv writer that wrote each class's row with ``csv.writer``."""
    row_sums = report.confusion.sum(axis=1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "count", "recall", "auc"])
        for c in range(report.confusion.shape[0]):
            recall = (repr(float(report.confusion[c, c] / row_sums[c]))
                      if row_sums[c] > 0 else "")
            auc = report.auc_per_class[c]
            writer.writerow([c, int(row_sums[c]), recall,
                             "" if auc is None else repr(float(auc))])


class TestReportFiles:
    def make_report(self):
        ds = make_clean_dataset(k=3, per_class=6, seed=13)
        cfg = ModelConfig(input_dim=3, hidden_sizes=[4], num_classes=3,
                          init_seed=14)
        return evaluate(init_params(cfg), ds)

    def test_eval_json_round_trips_metrics(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "eval.json"
        write_eval_json(report, path, timestamp="2026-01-01T00:00:00+00:00")
        doc = json.loads(path.read_text())
        assert doc["accuracy"] == report.accuracy
        assert doc["kappa"] == report.kappa
        assert doc["confusion"] == report.confusion.tolist()
        assert doc["timestamp"] == "2026-01-01T00:00:00+00:00"

    def test_eval_csv_has_one_row_per_class(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "eval.csv"
        write_eval_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 3
        assert lines[0] == "class,count,recall,auc"

    def test_one_class_dataset_has_no_auc(self, tmp_path):
        ds = make_clean_dataset(k=2, per_class=5, seed=15)
        report = evaluate(init_params(ModelConfig(input_dim=2, hidden_sizes=[3], num_classes=2)),
                          ds.take(ds.y == 0, "class-0-only"))
        assert report.auc_notes == {0: "no negative examples", 1: "class absent from dataset"}
        assert report.auc_per_class == [None, None] and report.auc_mean is None
        write_eval_csv(report, tmp_path / "eval.csv")
        assert (tmp_path / "eval.csv").read_text().splitlines()[1:] == [
            f"0,5,{report.confusion[0, 0] / 5:.1f},", "1,0,,"]

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_eval_csv_as_csv_writer_writes_it(self, tmp_path, data):
        k = data.draw(st.integers(1, 5))
        confusion = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 3), min_size=k, max_size=k), min_size=k, max_size=k)))
        aucs = data.draw(st.lists(st.none() | csv_floats, min_size=k, max_size=k))
        report = EvalReport(confusion=confusion, accuracy=0.0, macro_recall=0.0, kappa=0.0,
                            auc_per_class=aucs, auc_notes={}, auc_mean=None,
                            per_class_counts=confusion.sum(axis=1), metadata={})
        assert (csv_outcome(write_eval_csv, tmp_path / "new.csv", report)
                == csv_outcome(reference_write_eval_csv, tmp_path / "old.csv", report))


class TestMacroRecall:
    def test_mean_of_per_class_recall(self):
        conf = np.array([[8, 2], [5, 5]])
        assert macro_recall(conf) == pytest.approx((0.8 + 0.5) / 2)

    def test_absent_classes_excluded(self):
        conf = np.array([[4, 0, 0], [2, 2, 0], [0, 0, 0]])
        assert macro_recall(conf) == pytest.approx((1.0 + 0.5) / 2)


def reference_write_features_csv(ids, features, path):
    """The features writer that formatted every value with ``repr(float(v))``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"f{i}" for i in range(features.shape[1])])
        for ex_id, row in zip(ids, features):
            writer.writerow([ex_id] + [repr(float(v)) for v in row])


class TestFeaturesCsv:
    """``write_features_csv`` writes the bytes of its per-value reference."""

    IDS = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "na\u00efve"]
    FLOATS = [0.1, 1e-05, 1e+16, -0.0, 5e-324, 1.7976931348623157e+308, 3.0]

    def assert_same_bytes(self, tmp_path, ids, features):
        """The same bytes, or the same csv.Error (Python 3.10's for a NUL)."""
        assert (csv_outcome(write_features_csv, tmp_path / "new.csv", ids, features)
                == csv_outcome(reference_write_features_csv, tmp_path / "old.csv", ids, features))

    @pytest.mark.parametrize("values, dtype", [
        (FLOATS, np.float64),
        ([0.1, 1e-05, -0.0, 1e-45, 3.0], np.float32),
        ([-3, 0, 2], np.int64),
    ], ids=["float64", "float32", "int64"])
    def test_ids_that_need_quoting_and_odd_values(self, tmp_path, values, dtype):
        features = np.resize(np.array(values, dtype=dtype), (len(self.IDS), 5))
        self.assert_same_bytes(tmp_path, self.IDS, features)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_small_random_tables(self, tmp_path, data):
        n, d = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 3))
        ids = data.draw(st.lists(st.text(max_size=4), min_size=n, max_size=n))
        values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=n * d, max_size=n * d))
        self.assert_same_bytes(tmp_path, ids, np.reshape(values, (n, d)))

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_text_and_float_as_csv_writer_writes_them(self, tmp_path, data):
        n, d = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 3))
        ids = data.draw(st.lists(csv_texts, min_size=n, max_size=n))
        features = np.reshape(data.draw(st.lists(csv_floats, min_size=n * d,
                                                 max_size=n * d)), (n, d))
        assert (csv_outcome(write_features_csv, tmp_path / "new.csv", ids, features)
                == csv_outcome(reference_write_features_csv, tmp_path / "old.csv", ids, features))
