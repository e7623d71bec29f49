"""Tests for dataset ingestion, grouped splitting, and the synthetic generators."""

import csv
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from webly.data import (
    BackgroundSpec,
    CleanSpec,
    CROSS_DOMAIN,
    Dataset,
    NoiseSpec,
    WebCorpus,
    flatten_web,
    grouped_split,
    load_dataset,
    load_web_corpus,
    save_web_corpus,
    synth_clean,
    synth_web_corpus,
    write_dataset_csv,
)
from webly.errors import ParseError, ValidationError, WeblyError


def write_csv(path, rows, header="id,group_id,label,f0,f1"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


class TestLoadDataset:
    def test_infers_num_classes_from_labels(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["a,g1,0,1.0,2.0", "b,g1,1,0.5,0.5",
                      "c,g2,1,0.0,1.0", "d,g2,2,3.0,4.0"])
        ds = load_dataset(p)
        assert len(ds) == 4
        assert ds.num_classes == 3
        assert ds.feature_dim == 2
        assert ds.ids.tolist() == ["a", "b", "c", "d"]

    def test_header_only_is_an_error(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [])
        with pytest.raises(ValidationError, match="no examples"):
            load_dataset(p)

    def test_wrong_column_count_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["a,g1,0,1.0,2.0", "b,g1,1,0.5,0.5,9.0"])
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(p)

    def test_non_numeric_feature_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["a,g1,0,1.0,oops"])
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(p)

    def test_negative_label_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["a,g1,-1,1.0,2.0"])
        with pytest.raises(ParseError, match="negative label"):
            load_dataset(p)

    def test_label_beyond_int64_names_path_and_line(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["a,g1,0,1.0,2.0", "b,g1,99999999999999999999,1.0,2.0"])
        with pytest.raises(ParseError, match=re.escape(f"{p}: line 3") + ".*int64"):
            load_dataset(p)

    def test_inferred_class_count_above_row_count_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["a,g1,0,1.0,2.0", "b,g1,1000000000,1.0,2.0"])
        with pytest.raises(ParseError, match=re.escape(f"{p}: line 3") + ".*classes"):
            load_dataset(p)
        # an explicit class count is the caller's to check against the labels
        assert load_dataset(p, num_classes=1000000001).num_classes == 1000000001

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["a,g1,0,1.0,2.0", "a,g2,1,0.5,0.5"])
        with pytest.raises(ValidationError, match="duplicate"):
            load_dataset(p)

    def test_num_classes_override(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["a,g1,0,1.0,2.0", "b,g2,1,0.5,0.5"])
        assert load_dataset(p, num_classes=5).num_classes == 5
        with pytest.raises(ValidationError):
            load_dataset(p, num_classes=1)

    def test_non_utf8_text_raises_parse_error_naming_path(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"id,group_id,label,f0,f1\na,g1,0,1.0,\xff\n")
        with pytest.raises(ParseError, match=re.escape(f"{p}: not UTF-8")):
            load_dataset(p)

    def test_csv_syntax_error_raises_parse_error_naming_path(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["a,g1,0,1.0," + "1" * (csv.field_size_limit() + 1)])
        with pytest.raises(ParseError, match=re.escape(f"{p}: line 2: field larger")):
            load_dataset(p)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_truncated_or_bit_flipped_file_loads_or_raises_webly_error(
            self, tmp_path, data):
        p = tmp_path / "d.csv"
        write_csv(p, ["a,g1,0,1.5,-2.25", "b,g1,1,0.5,1e-05", "c,g2,2,3.0,4.0"])
        blob = p.read_bytes()
        at = data.draw(st.integers(0, len(blob) - 1), label="at")
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[:at]
        else:
            bit = data.draw(st.integers(0, 7), label="bit")
            blob = blob[:at] + bytes([blob[at] ^ (1 << bit)]) + blob[at + 1:]
        p.write_bytes(blob)
        try:
            load_dataset(p)
        except WeblyError:
            pass

    def test_write_then_load_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(ids=[f"e{i}" for i in range(10)],
                     group_ids=[f"g{i % 3}" for i in range(10)],
                     X=rng.normal(size=(10, 4)), y=np.arange(10) % 2,
                     num_classes=2, name="rt")
        p = tmp_path / "rt.csv"
        write_dataset_csv(ds, p)
        loaded = load_dataset(p)
        assert np.array_equal(loaded.X, ds.X)
        assert np.array_equal(loaded.y, ds.y)


class TestGroupedSplit:
    def make(self, groups, per_group=2):
        gi = np.repeat(np.arange(len(groups)), per_group)
        return Dataset(ids=[f"{groups[g]}-{j % per_group}" for j, g in enumerate(gi)],
                       group_ids=[groups[g] for g in gi],
                       X=gi[:, None].astype(float), y=gi % 2, num_classes=2)

    def test_four_equal_groups_split_two_two(self):
        ds = self.make(["g0", "g1", "g2", "g3"])
        train, test = grouped_split(ds, 0.5, seed=0)
        assert len(set(train.group_ids)) == 2
        assert len(set(test.group_ids)) == 2

    def test_group_sets_disjoint_and_cover_all(self):
        ds = self.make([f"g{i}" for i in range(7)], per_group=3)
        for seed in range(20):
            train, test = grouped_split(ds, 0.4, seed=seed)
            tg = set(train.group_ids)
            sg = set(test.group_ids)
            assert tg.isdisjoint(sg)
            assert tg | sg == set(ds.group_ids)

    def test_deterministic_given_seed(self):
        ds = self.make([f"g{i}" for i in range(9)])
        a = grouped_split(ds, 0.5, seed=42)
        b = grouped_split(ds, 0.5, seed=42)
        assert a[0].ids.tolist() == b[0].ids.tolist()
        assert a[1].ids.tolist() == b[1].ids.tolist()

    def test_single_group_rejected(self):
        ds = self.make(["only"])
        with pytest.raises(ValidationError, match="one group"):
            grouped_split(ds, 0.5, seed=0)

    def test_bad_fraction_rejected(self):
        ds = self.make(["g0", "g1"])
        for frac in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                grouped_split(ds, frac, seed=0)


class TestSynthClean:
    def spec(self, **overrides):
        base = dict(num_classes=2, feature_dim=3,
                    class_means=np.array([[3.0, 0.0, 0.0], [-3.0, 0.0, 0.0]]),
                    sigma=0.5, class_counts=[50, 50], groups_per_class=5, seed=1)
        base.update(overrides)
        return CleanSpec(**base)

    def test_separable_two_class_construction(self):
        ds = synth_clean(self.spec())
        x = ds.X
        y = ds.y
        # means are 6 sigma either side of zero on axis 0
        assert (x[y == 0, 0] > 0).all()
        assert (x[y == 1, 0] < 0).all()

    def test_class_counts_become_frequencies(self):
        ds = synth_clean(self.spec(class_counts=[100, 10]))
        counts = ds.label_counts()
        assert counts.tolist() == [100, 10]
        freqs = counts / counts.sum()
        np.testing.assert_allclose(freqs, [100 / 110, 10 / 110])

    def test_deterministic_given_seed(self):
        a = synth_clean(self.spec())
        b = synth_clean(self.spec())
        assert np.array_equal(a.X, b.X)
        assert a.ids.tolist() == b.ids.tolist()

    def test_groups_cycle_within_class(self):
        ds = synth_clean(self.spec(groups_per_class=4))
        class0 = ds.group_ids[ds.y == 0].tolist()
        assert class0[:5] == ["g0", "g1", "g2", "g3", "g0"]

    def test_degenerate_specs_rejected(self):
        with pytest.raises(ValidationError):
            self.spec(num_classes=1, class_means=np.zeros((1, 3)),
                      class_counts=[5])
        with pytest.raises(ValidationError):
            self.spec(class_counts=[50, 0])
        with pytest.raises(ValidationError):
            self.spec(sigma=0.0)


def make_clean(k=3, per_class=20, sep=8.0, sigma=0.5, seed=0, d=None):
    d = k if d is None else d
    means = np.zeros((k, d))
    for c in range(k):
        means[c, c % d] = sep
    spec = CleanSpec(num_classes=k, feature_dim=d, class_means=means,
                     sigma=sigma, class_counts=[per_class] * k,
                     groups_per_class=4, seed=seed)
    return synth_clean(spec)


class TestSynthWebCorpus:
    def test_identity_kernel_no_outliers_means_no_noise(self):
        clean = make_clean()
        noise = NoiseSpec(cross_category_kernel=np.eye(3),
                          cross_domain_rate=0.0, bag_size=5, seed=2)
        web = synth_web_corpus(clean, noise, BackgroundSpec())
        assert np.array_equal(web.true_labels_hidden, web.member_labels())

    def test_rate_one_flags_every_member_cross_domain(self):
        clean = make_clean()
        noise = NoiseSpec(cross_category_kernel=np.eye(3),
                          cross_domain_rate=1.0, bag_size=4, seed=3)
        web = synth_web_corpus(clean, noise, BackgroundSpec())
        assert (web.true_labels_hidden == CROSS_DOMAIN).all()

    def test_kernel_row_frequencies_monte_carlo(self):
        # Huge bags; in the class-0 bag the hidden-label fraction for class 0
        # must sit within 0.70 +/- 0.02 of the kernel row (0.7, 0.3).
        clean = make_clean(k=2, per_class=1, seed=5)
        noise = NoiseSpec(cross_category_kernel=np.array([[0.7, 0.3],
                                                          [0.3, 0.7]]),
                          cross_domain_rate=0.0, bag_size=10_000, seed=6)
        web = synth_web_corpus(clean, noise, BackgroundSpec())
        b = int(np.argmax(web.labels == 0))
        hidden = web.true_labels_hidden[web.offsets[b]:web.offsets[b + 1]]
        frac0 = (hidden == 0).mean()
        assert abs(frac0 - 0.7) < 0.02

    def test_members_carry_transferred_label_only(self):
        clean = make_clean()
        noise = NoiseSpec(cross_category_kernel=np.full((3, 3), 1 / 3),
                          cross_domain_rate=0.5, bag_size=6, seed=7)
        web = synth_web_corpus(clean, noise, BackgroundSpec())
        flat = flatten_web(web)
        for b, label in enumerate(web.labels):
            assert (flat.y[web.offsets[b]:web.offsets[b + 1]] == label).all()
        assert flat.group_ids.tolist() == [q for q in web.query_ids for _ in range(6)]

    def test_deterministic_given_seed(self):
        clean = make_clean()
        noise = NoiseSpec(cross_category_kernel=np.eye(3),
                          cross_domain_rate=0.3, bag_size=4, seed=11)
        a = synth_web_corpus(clean, noise, BackgroundSpec())
        b = synth_web_corpus(clean, noise, BackgroundSpec())
        assert np.array_equal(flatten_web(a).X, flatten_web(b).X)
        assert np.array_equal(a.true_labels_hidden, b.true_labels_hidden)

    def test_nonpositive_background_scale_rejected(self):
        with pytest.raises(ValidationError, match="scale"):
            BackgroundSpec(mean_offset=1.0, scale=0.0)

    def test_bad_noise_specs_rejected(self):
        with pytest.raises(ValidationError):
            NoiseSpec(cross_category_kernel=np.array([[0.5, 0.6], [0.5, 0.5]]),
                      cross_domain_rate=0.0, bag_size=1, seed=0)
        with pytest.raises(ValidationError):
            NoiseSpec(cross_category_kernel=np.eye(2), cross_domain_rate=1.5,
                      bag_size=1, seed=0)
        with pytest.raises(ValidationError):
            NoiseSpec(cross_category_kernel=np.eye(2), cross_domain_rate=0.0,
                      bag_size=0, seed=0)


class TestFlattenWeb:
    def build(self, bag_size=5):
        # three queries (one per class), one bag each
        clean = make_clean(per_class=1)
        noise = NoiseSpec(cross_category_kernel=np.eye(3),
                          cross_domain_rate=0.0, bag_size=bag_size, seed=1)
        return synth_web_corpus(clean, noise, BackgroundSpec())

    def test_counts_multiply(self):
        web = self.build(bag_size=5)
        assert len(web.query_ids) == 3
        assert len(flatten_web(web)) == 15

    def test_labels_repeat_transferred_labels(self):
        web = self.build()
        flat = flatten_web(web)
        assert flat.y.tolist() == [label for label in web.labels.tolist()
                                   for _ in range(5)]

    def test_features_preserved_bit_exactly(self):
        web = self.build()
        before = web.X.copy()
        flat = flatten_web(web)
        assert np.shares_memory(flat.X, web.X)
        assert np.array_equal(flat.X, before)
        assert flat.ids is web.member_ids

    def test_empty_corpus_rejected(self):
        empty = WebCorpus(query_ids=[], labels=[], offsets=[0], member_ids=[],
                          X=np.empty((0, 3)), num_classes=3)
        with pytest.raises(ValidationError, match="empty corpus"):
            flatten_web(empty)

    def test_flatten_counts_as_web_access(self):
        web = self.build()
        assert web.access_count == 0
        flatten_web(web)
        assert web.access_count == 1


# Two bags (2 and 1 members) of a 2-class, 2-feature corpus, as written.
SMALL_WEB_JSON = (
    '{"bags":[{"members":[{"features":[0.5,-1.25],"id":"q0-w0"},'
    '{"features":[2.0,3.5],"id":"q0-w1"}],"query_id":"q0",'
    '"transferred_label":0,"true_labels_hidden":[0,-1]},'
    '{"members":[{"features":[0.001,4.0],"id":"q1-w0"}],"query_id":"q1",'
    '"transferred_label":1,"true_labels_hidden":[1]}],'
    '"feature_dim":2,"num_classes":2}'
)


class TestWebCorpusJson:
    def test_round_trip_preserves_everything(self, tmp_path):
        clean = make_clean()
        noise = NoiseSpec(cross_category_kernel=np.full((3, 3), 1 / 3),
                          cross_domain_rate=0.4, bag_size=3, seed=9)
        web = synth_web_corpus(clean, noise, BackgroundSpec())
        p = tmp_path / "web.json"
        save_web_corpus(web, p)
        loaded = load_web_corpus(p)
        assert loaded.num_classes == web.num_classes
        assert loaded.query_ids.tolist() == web.query_ids.tolist()
        assert np.array_equal(loaded.labels, web.labels)
        assert np.array_equal(loaded.offsets, web.offsets)
        assert loaded.member_ids.tolist() == web.member_ids.tolist()
        assert np.array_equal(loaded.X, web.X)
        assert np.array_equal(loaded.true_labels_hidden, web.true_labels_hidden)

    def test_sentinel_is_minus_one_in_the_document(self, tmp_path):
        clean = make_clean()
        noise = NoiseSpec(cross_category_kernel=np.eye(3),
                          cross_domain_rate=1.0, bag_size=2, seed=4)
        web = synth_web_corpus(clean, noise, BackgroundSpec())
        p = tmp_path / "web.json"
        save_web_corpus(web, p)
        doc = json.loads(p.read_text())
        assert doc["bags"][0]["true_labels_hidden"] == [-1, -1]

    def test_corpus_without_hidden_labels_round_trips(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        doc = json.loads(SMALL_WEB_JSON)
        for bag in doc["bags"]:
            bag["true_labels_hidden"] = None
        p1.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        loaded = load_web_corpus(p1)
        assert loaded.true_labels_hidden is None
        save_web_corpus(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_defects_raise_parse_error_naming_the_path(self, tmp_path):
        text = SMALL_WEB_JSON
        cases = {
            "truncated": text[:len(text) // 2],
            "non-numeric": text.replace("[0.5,", '["x",'),
            "ragged": text.replace("[0.5,-1.25]", "[0.5]"),
            "non-finite": text.replace("0.5", "Infinity"),
            "hidden-on-some-bags": text.replace("[0,-1]", "null"),
            "numeric-id": text.replace('"q0-w1"', "7"),
        }
        for name, bad_text in cases.items():
            path = tmp_path / f"{name}.json"
            path.write_text(bad_text)
            with pytest.raises(ParseError, match=re.escape(str(path))):
                load_web_corpus(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_document_loads_or_raises_webly_error(self, tmp_path, data):
        blob = SMALL_WEB_JSON.encode()
        at = data.draw(st.integers(0, len(blob)), label="at")
        edit = data.draw(st.sampled_from(["truncate", "replace", "insert"]))
        if edit == "truncate":
            blob = blob[:at]
        else:
            piece = data.draw(st.one_of(
                st.binary(max_size=3),
                st.sampled_from(["null", "true", "NaN", "-Infinity", '"x"', "[]",
                                 "{}", "1e999", "-7", "99999999999999999999",
                                 ",", "]", "}"]).map(str.encode)), label="piece")
            blob = blob[:at] + piece + blob[at + (edit == "replace"):]
        path = tmp_path / "web.json"
        path.write_bytes(blob)
        try:
            load_web_corpus(path)
        except WeblyError:
            pass


def one_bag(hidden=None, member_ids=("m",), X=None, label=0):
    """A corpus of one bag, query "q", with the given member columns."""
    X = np.zeros((len(member_ids), 2)) if X is None else X
    return WebCorpus(query_ids=["q"], labels=[label],
                     offsets=[0, len(member_ids)], member_ids=list(member_ids),
                     X=X, num_classes=2, true_labels_hidden=hidden)


class TestBagInvariants:
    def test_hidden_length_must_match_members(self):
        with pytest.raises(ValidationError, match="length"):
            one_bag(hidden=[0, 1])

    def test_hidden_entries_must_be_classes_or_sentinel(self):
        with pytest.raises(ValidationError, match="member m: hidden label 7.*sentinel"):
            one_bag(hidden=[7])

    def test_checks_name_the_offending_row(self):
        with pytest.raises(ValidationError, match="bag q: transferred label 2"):
            one_bag(label=2)
        with pytest.raises(ValidationError, match="duplicate member id 'm'"):
            one_bag(member_ids=("m", "n", "m"))
        X = np.zeros((2, 2))
        X[1, 0] = np.inf
        with pytest.raises(ValidationError, match="member n: non-finite"):
            one_bag(member_ids=("m", "n"), X=X)
        with pytest.raises(ValidationError, match="example b: label 3"):
            Dataset(ids=["a", "b"], group_ids=["g", "g"], X=np.zeros((2, 1)),
                    y=[0, 3], num_classes=2)
