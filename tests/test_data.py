"""Tests for dataset ingestion, grouped splitting, and the synthetic generators."""

import csv
import json
import re
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import webly.data
from conftest import csv_floats, csv_outcome, csv_texts
from webly.data import (
    BackgroundSpec,
    CleanSpec,
    CROSS_DOMAIN,
    Dataset,
    NoiseSpec,
    WebCorpus,
    _class_models,
    canonical_json,
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


def reference_load_dataset(path, num_classes=None, name=None):
    """The reader that parsed and checked the CSV row by row as it read it."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file, header required")
            d = len(header) - 3
            if d < 1 or header != ["id", "group_id", "label"] + [f"f{i}" for i in range(d)]:
                raise ParseError(f"{path}: line 1: bad header {header!r}")
            ids, group_ids, labels, rows = [], [], [], []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != d + 3:
                    raise ParseError(f"{path}: line {lineno}: expected {d + 3} columns, "
                                     f"got {len(row)}")
                try:
                    label = int(row[2])
                except ValueError:
                    raise ParseError(f"{path}: line {lineno}: label {row[2]!r} "
                                     "is not a base-10 integer") from None
                if label < 0:
                    raise ParseError(f"{path}: line {lineno}: negative label {label}")
                if label > np.iinfo(np.int64).max:
                    raise ParseError(f"{path}: line {lineno}: label {label} does not "
                                     "fit int64")
                try:
                    rows.append([float(v) for v in row[3:]])
                except ValueError:
                    raise ParseError(f"{path}: line {lineno}: non-numeric feature") from None
                numbers = "".join(row[2:])
                if not numbers.isascii() or "_" in numbers:
                    raise ParseError(f"{path}: line {lineno}: label and features must be "
                                     "ASCII numbers without '_'")
                ids.append(row[0])
                group_ids.append(row[1])
                labels.append(label)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if not ids:
        raise ValidationError(f"{path}: no examples")
    X = np.array(rows, dtype=np.float64)
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise ParseError(f"{path}: line {np.argmin(finite) + 2}: non-finite feature")
    inferred_k = max(labels) + 1
    if num_classes is None and inferred_k > len(labels):
        raise ParseError(f"{path}: line {labels.index(inferred_k - 1) + 2}: label "
                         f"{inferred_k - 1} implies {inferred_k} classes but there are "
                         f"only {len(labels)} rows, so a class would be absent")
    k = num_classes if num_classes is not None else inferred_k
    if inferred_k > k:
        raise ValidationError(f"{path}: label {inferred_k - 1} exceeds num_classes={k}")
    try:
        return Dataset(ids=ids, group_ids=group_ids, X=X, y=labels, num_classes=k,
                       name=name if name is not None else path.stem)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def load_outcome(read, path, num_classes):
    """Every column ``read`` gives for ``path``, or the WeblyError it raises."""
    try:
        ds = read(path, num_classes=num_classes)
    except WeblyError as exc:
        return type(exc).__name__, str(exc)
    return (ds.ids.tolist(), ds.group_ids.tolist(), ds.X.shape, ds.X.tobytes(),
            ds.X.flags.c_contiguous, ds.y.tolist(), ds.num_classes, ds.name)


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

    @pytest.mark.parametrize("row", [
        "b,g1,1_0,1.0,2.0",            # int() reads it as 10
        "b,g1,\u0661,1.0,2.0",         # an Arabic-Indic 1
        "b,g1,\uff11,1.0,2.0",         # a fullwidth 1
        "b,g1,1,1_0,2.0",              # float() reads it as 10.0
        "b,g1,1,1.0,\u0662.5",         # an Arabic-Indic 2.5
        "b,g1,1,1.0,2.0\u00a0",        # a no-break space
    ])
    def test_label_or_feature_beyond_ascii_digits_names_line(self, tmp_path, row):
        p = tmp_path / "d.csv"
        write_csv(p, ["a,g1,0,1.0,2.0", row])
        with pytest.raises(ParseError, match=re.escape(f"{p}: line 3: ") + ".*ASCII"):
            load_dataset(p)

    def test_sign_and_surrounding_spaces_keep_their_value(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["a,g1, +1 , +1.5 ,-2e-1", "b,g1,0,1.0,2.0"])
        ds = load_dataset(p)
        assert ds.y.tolist() == [1, 0]
        assert ds.X.tolist() == [[1.5, -0.2], [1.0, 2.0]]

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

    def test_duplicate_id_message_names_the_path(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["a,g1,0,1.0,2.0", "a,g2,1,0.5,0.5"])
        with pytest.raises(ValidationError) as info:
            load_dataset(p)
        assert str(info.value) == f"{p}: duplicate example id 'a'"

    def test_non_utf8_byte_after_rows_read_raises_the_read_error(self, tmp_path):
        # the rows read before the bad byte are checked first, and all are good
        p = tmp_path / "late_bad.csv"
        p.write_bytes(b"id,group_id,label,f0,f1\n"
                      + b"".join(b"r%d,g,0,1.0,2.0\n" % i for i in range(2000)) + b"\xff\n")
        with pytest.raises(ParseError) as info:
            load_dataset(p)
        assert str(info.value) == f"{p}: not UTF-8 text: invalid start byte"

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

    LONG_FIELD = b'"' + b"1" * (csv.field_size_limit() + 1)

    @pytest.mark.parametrize("bad, line, want", [
        (b"\xff", 600, "line 3: non-numeric feature"),  # in a later chunk of the decoder
        (b"\xff", 100, "not UTF-8 text"),               # in its first chunk
        (LONG_FIELD, 600, "line 3: non-numeric feature"),
        (LONG_FIELD, 2, "line 2: field larger than field limit"),
    ], ids=["late-utf8", "first-chunk-utf8", "late-csv", "early-csv"])
    def test_bad_row_before_a_read_error_is_named_first(self, tmp_path, bad, line, want):
        """A read error stops the reader where the text decoder (8 KB at a time)
        or csv meets it: the rows before that are checked first, and a bad one
        among them is named, whatever follows it."""
        p = tmp_path / "d.csv"
        write_csv(p, ["a,g1,0,1.0,2.0", "b,g1,1,1.0,oops"]
                  + [f"r{i},g2,1,0.5,0.5" for i in range(600)])
        lines = p.read_bytes().split(b"\n")
        lines[line - 1] = bad + lines[line - 1]
        p.write_bytes(b"\n".join(lines))
        with pytest.raises(ParseError, match=re.escape(f"{p}: {want}")):
            load_dataset(p)
        assert load_outcome(load_dataset, p, None) == load_outcome(
            reference_load_dataset, p, None)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_edited_files_read_as_the_row_by_row_reader_reads_them(self, tmp_path, data):
        """Columns, or the same error naming the same line, as the reference reader
        gives; the long file spans several chunks of the text decoder, so a read
        error there can come after rows that are read and checked first."""
        p = tmp_path / "d.csv"
        n = data.draw(st.sampled_from([6, 600]), label="rows")
        odd = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "na\u00efve"]
        write_dataset_csv(Dataset(ids=[f"{odd[i % 6]}-{i}" for i in range(n)],
                                  group_ids=[f"g{i % 3}" for i in range(n)],
                                  X=np.resize(ODD_FLOATS, (n, 2)), y=np.arange(n) % 3,
                                  num_classes=3), p)
        blob = p.read_bytes()
        for _ in range(data.draw(st.integers(1, 3), label="edits")):
            at = data.draw(st.integers(0, len(blob)), label="at")
            edit = data.draw(st.sampled_from(["truncate", "replace", "insert"]), label="edit")
            if edit == "truncate":
                blob = blob[:at]
                continue
            piece = data.draw(st.one_of(st.binary(max_size=3), st.sampled_from(
                [",", '"', "\r\n", "\n", "\x00", "_", "-1", "x", " ", "1e999", "nan",
                 "\u0661", "99999999999999999999", "1" * 200, "\xff"]).map(
                    lambda t: t.encode("latin-1" if t == "\xff" else "utf-8"))), label="piece")
            blob = blob[:at] + piece + blob[at + (edit == "replace"):]
        p.write_bytes(blob)
        num_classes = data.draw(st.sampled_from([None, 3]), label="num_classes")
        assert (load_outcome(load_dataset, p, num_classes)
                == load_outcome(reference_load_dataset, p, num_classes))

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

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError, match="^cannot split an empty dataset$"):
            grouped_split(self.make([]), 0.5, seed=0)

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
    def test_empty_clean_train_rejected(self):
        empty = make_clean().take(slice(0, 0), "empty")
        noise = NoiseSpec(cross_category_kernel=np.eye(3), cross_domain_rate=0.0,
                          bag_size=5, seed=2)
        with pytest.raises(ValidationError, match="^clean_train is empty$"):
            synth_web_corpus(empty, noise, BackgroundSpec())

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

    def test_clean_split_lacking_a_class_rejected(self):
        clean = make_clean()
        noise = NoiseSpec(cross_category_kernel=np.eye(3),
                          cross_domain_rate=0.0, bag_size=2, seed=0)
        with pytest.raises(ValidationError, match="class 2 absent from clean corpus"):
            synth_web_corpus(clean.take(clean.y != 2, "no-class-2"), noise, BackgroundSpec())

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


def reference_synth_web_corpus(clean_train, noise, background):
    """The per-bag form of ``synth_web_corpus``: each bag's members are drawn
    and computed together, one bag after another."""
    k = clean_train.num_classes
    means, stds = _class_models(clean_train)
    center = clean_train.X.mean(axis=0) + np.asarray(background.mean_offset)
    rng = np.random.default_rng(noise.seed)
    m, n = noise.bag_size, len(clean_train)
    kernel_cum = np.cumsum(noise.cross_category_kernel, axis=1)
    X = np.empty((n * m, clean_train.feature_dim))
    hidden = np.empty(n * m, dtype=np.int64)
    for b, y in enumerate(clean_train.y.tolist()):
        outlier = rng.random(m) < noise.cross_domain_rate
        classes = np.searchsorted(kernel_cum[y], rng.random(m)).clip(max=k - 1)
        unit = rng.standard_normal((m, clean_train.feature_dim))
        loc = np.where(outlier[:, None], center, means[classes])
        scale = np.where(outlier, background.scale, stds[classes])
        X[b * m:(b + 1) * m] = loc + unit * scale[:, None]
        hidden[b * m:(b + 1) * m] = np.where(outlier, CROSS_DOMAIN, classes)
    member_ids = [f"{q}-w{i}" for q in clean_train.ids for i in range(m)]
    return X, hidden, member_ids


PAIR_FLIP = [[0.6, 0.4, 0.0], [0.0, 0.6, 0.4], [0.4, 0.0, 0.6]]


class TestSynthReference:
    """The all-members-at-once synth against its per-bag form: the same
    feature bytes, hidden labels and member ids."""

    @pytest.mark.parametrize("k, d, kernel, rate, bag_size, background", [
        (3, 3, np.full((3, 3), 1 / 3), 0.3, 1, BackgroundSpec()),
        (3, 3, np.full((3, 3), 1 / 3), 0.0, 5, BackgroundSpec()),
        (3, 3, np.full((3, 3), 1 / 3), 1.0, 5, BackgroundSpec(scale=0.5)),
        (3, 3, PAIR_FLIP, 0.2, 4, BackgroundSpec()),
        (2, 2, [[0.7, 0.3], [0.2, 0.8]], 0.25, 6, BackgroundSpec(mean_offset=-3.0)),
        (3, 1, PAIR_FLIP, 0.2, 3, BackgroundSpec(scale=2)),
        (3, 3, PAIR_FLIP, 0.4, 3, BackgroundSpec(mean_offset=[1.0, -2.0, 0.5], scale=0.7)),
    ], ids=["bag-size-1", "rate-0", "rate-1", "pair-flip", "two-classes",
            "one-feature", "vector-offset"])
    def test_matches_the_per_bag_loop(self, k, d, kernel, rate, bag_size, background):
        clean = make_clean(k=k, per_class=15, d=d, seed=k + d)
        clean = clean.take(np.random.default_rng(d).permutation(len(clean)), "mixed")
        noise = NoiseSpec(cross_category_kernel=kernel, cross_domain_rate=rate,
                          bag_size=bag_size, seed=13)
        web = synth_web_corpus(clean, noise, background)
        X, hidden, member_ids = reference_synth_web_corpus(clean, noise, background)
        assert web.X.tobytes() == X.tobytes()
        assert web.true_labels_hidden.tolist() == hidden.tolist()
        assert web.member_ids.tolist() == member_ids
        if rate in (0.0, 1.0):
            assert ((hidden == CROSS_DOMAIN).all() if rate else (hidden >= 0).all())

    def test_transient_memory_stays_below_twice_the_features(self):
        clean = make_clean(k=5, per_class=340, d=8)
        noise = NoiseSpec(cross_category_kernel=np.full((5, 5), 0.2),
                          cross_domain_rate=0.2, bag_size=20, seed=3)
        tracemalloc.start()
        try:
            web = synth_web_corpus(clean, noise, BackgroundSpec(mean_offset=6.0, scale=1.5))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(web.member_ids) == 34_000
        assert peak - held <= 2 * web.X.nbytes


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
            "ragged-to-the-same-total": text.replace("[0.5,-1.25]", "[0.5]").replace(
                "[2.0,3.5]", "[2.0,3.5,7.0]"),
            "non-finite": text.replace("0.5", "Infinity"),
            "hidden-on-some-bags": text.replace("[0,-1]", "null"),
            "numeric-id": text.replace('"q0-w1"', "7"),
            "boolean-first": text.replace("[0.5,", "[true,"),
            "boolean-last": text.replace("4.0]", "false]"),
            "label-float": text.replace('"transferred_label":1', '"transferred_label":1.9'),
            "label-boolean": text.replace('"transferred_label":1', '"transferred_label":true'),
            "label-string": text.replace('"transferred_label":1', '"transferred_label":"1"'),
            "hidden-float": text.replace('"true_labels_hidden":[1]', '"true_labels_hidden":[0.7]'),
            "classes-float": text.replace('"num_classes":2', '"num_classes":3.9'),
            "classes-boolean": text.replace('"transferred_label":1', '"transferred_label":0')
                                   .replace("[1]}", "[0]}").replace('"num_classes":2',
                                                                    '"num_classes":true'),
            "features-float": text.replace('"feature_dim":2', '"feature_dim":2.0'),
            "bags-twice": text.replace('"feature_dim"',
                                       text[1:text.index('],"f') + 1] + ',"feature_dim"'),
            "bags-twice-first-empty": text.replace('{"bags":[', '{"bags":[],"bags":['),
            "bags-not-an-array": '{"bags":{},"feature_dim":2,"num_classes":2}',
            "member-id-lone-surrogate": text.replace('"q0-w1"', '"\\ud800"'),
            "query-id-lone-surrogate": text.replace('"q1"', '"q1-\\udfff"'),
            "member-id-swapped-surrogate-pair": text.replace('"q1-w0"', '"\\ude00\\ud83d"'),
        }
        for name, bad_text in cases.items():
            path = tmp_path / f"{name}.json"
            path.write_text(bad_text)
            with pytest.raises(ParseError, match=re.escape(str(path))):
                load_web_corpus(path)

    @pytest.mark.parametrize("features", ['"0.5"', '""', '{"a":0.5}', "{}", "0.5", "null",
                                          '["0.5",-1.25]', "[0.5,true]"])
    def test_features_not_a_list_of_numbers_raise_parse_error_naming_the_path(
            self, tmp_path, features):
        path = tmp_path / "web.json"
        path.write_text(SMALL_WEB_JSON.replace("[0.5,-1.25]", features))
        with pytest.raises(ParseError, match=re.escape(str(path))):
            load_web_corpus(path)

    def test_syntax_error_names_the_path_and_its_character(self, tmp_path):
        path = tmp_path / "web.json"
        path.write_text('{"bags": [}')
        with pytest.raises(ParseError) as info:
            load_web_corpus(path)
        assert str(info.value) == (f"{path}: malformed web corpus document: "
                                   "Expecting value (character 10)")

    def test_label_past_int64_names_the_path(self, tmp_path):
        path = tmp_path / "web.json"
        path.write_text(SMALL_WEB_JSON.replace('"transferred_label":1',
                                               f'"transferred_label":{2 ** 63}'))
        with pytest.raises(OverflowError) as overflow:  # numpy's own words for it
            np.asarray([2 ** 63], dtype=np.int64)
        with pytest.raises(ParseError) as info:
            load_web_corpus(path)
        assert str(info.value) == f"{path}: {overflow.value}"

    def test_escaped_surrogate_pair_is_one_character_of_an_id(self, tmp_path):
        path = tmp_path / "web.json"
        path.write_text(SMALL_WEB_JSON.replace('"q0-w1"', '"\\ud83d\\ude00"'))
        assert load_web_corpus(path).member_ids.tolist() == ["q0-w0", "\U0001F600", "q1-w0"]

    def test_reader_peak_memory_stays_below_three_times_the_file(self, tmp_path):
        noise = NoiseSpec(cross_category_kernel=np.eye(5), cross_domain_rate=0.2,
                          bag_size=20, seed=3)
        web = synth_web_corpus(make_clean(k=5, d=8), noise, BackgroundSpec())
        p = tmp_path / "web.json"
        save_web_corpus(web, p)
        assert len(web.member_ids) == 2000
        tracemalloc.start()
        try:
            load_web_corpus(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * p.stat().st_size

    def test_any_layout_of_the_same_document_loads_to_the_same_columns(self, tmp_path):
        doc = json.loads(SMALL_WEB_JSON)
        for bag in doc["bags"]:  # keys out of order, and an extra key holding an object
            bag["members"] = [{"rank": {"at": i}, "id": m["id"], "features": m["features"]}
                              for i, m in enumerate(bag["members"])]
        doc = {"num_classes": 2, "feature_dim": 2,
               "bags": [dict(reversed(bag.items())) for bag in doc["bags"]]}
        p1, p2 = tmp_path / "compact.json", tmp_path / "indented.json"
        p1.write_text(SMALL_WEB_JSON)
        p2.write_text(json.dumps(doc, indent=2))
        a, b = load_web_corpus(p1), load_web_corpus(p2)
        for column in ("query_ids", "labels", "offsets", "member_ids", "X",
                       "true_labels_hidden"):
            assert np.array_equal(getattr(a, column), getattr(b, column)), column
        assert a.X.dtype == b.X.dtype == np.float64

        empty = {**doc, "bags": [{**bag, "members": [], "true_labels_hidden": []}
                                 for bag in doc["bags"]]}
        p2.write_text(json.dumps(empty))
        assert load_web_corpus(p2).X.shape == (0, 2)

    @pytest.mark.parametrize("misplaced", ["on-a-bag", "member-without", "inside-a-member"])
    def test_features_only_on_member_objects(self, tmp_path, misplaced):
        doc = json.loads(SMALL_WEB_JSON)
        bag, member = doc["bags"][1], doc["bags"][1]["members"][0]
        if misplaced == "on-a-bag":
            bag["features"] = [1.0, 2.0]
        elif misplaced == "member-without":
            del member["features"]
        else:  # a member-shaped object nested in a member, with another member short
            member["extra"] = {"features": [1.0, 2.0], "id": "x"}
            del doc["bags"][0]["members"][0]["features"]
        path = tmp_path / "web.json"
        path.write_text(json.dumps(doc))
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


def reference_save_web_corpus(corpus, path):
    """The per-bag writer that built each bag as member dicts and wrote its
    ``canonical_json``."""
    offsets = corpus.offsets.tolist()
    labels = corpus.labels.tolist()
    hidden = corpus.true_labels_hidden
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"bags":[')
        for b, query_id in enumerate(corpus.query_ids):
            lo, hi = offsets[b], offsets[b + 1]
            members = [{"features": row, "id": member_id} for member_id, row
                       in zip(corpus.member_ids[lo:hi], corpus.X[lo:hi].tolist())]
            fh.write(("," if b else "") + canonical_json({
                "members": members,
                "query_id": query_id,
                "transferred_label": labels[b],
                "true_labels_hidden": None if hidden is None else hidden[lo:hi].tolist(),
            }))
        fh.write(f'],"feature_dim":{corpus.X.shape[1]},'
                 f'"num_classes":{corpus.num_classes}}}')


def reference_write_dataset_csv(ds, path):
    """The CSV writer that formatted every float with ``repr`` itself."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "group_id", "label"] + [f"f{i}" for i in range(ds.feature_dim)])
        writer.writerows([ex_id, group_id, str(label)] + [repr(v) for v in row]
                         for ex_id, group_id, label, row
                         in zip(ds.ids, ds.group_ids, ds.y.tolist(), ds.X.tolist()))


# Text that JSON escapes or CSV quotes, and floats whose repr takes every form
ODD_IDS = ["plain", "na\u00efve-\u00fc", "smile-\U0001F600", 'say "hi"', "back\\slash",
           "ctl-\x00\x1f\x7f", "a,b", "two\nlines", "cr\rhere", "line\u2028sep"]
ODD_FLOATS = [0.1, 1e-05, 1e+16, -0.0, 5e-324, 1.7976931348623157e+308, 3.0]


def odd_corpus(hidden: bool) -> WebCorpus:
    """Five bags of 3, 0, 4, 1 and 2 members over ids and floats of every form."""
    sizes = [3, 0, 4, 1, 2]
    m, b = sum(sizes), len(sizes)
    return WebCorpus(query_ids=ODD_IDS[::-1][:b], labels=[i % 3 for i in range(b)],
                     offsets=np.cumsum([0, *sizes]), member_ids=ODD_IDS[:m],
                     X=np.resize(ODD_FLOATS, (m, 5)), num_classes=3,
                     true_labels_hidden=[(-1, 0, 2)[i % 3] for i in range(m)] if hidden
                     else None)


@st.composite
def small_corpora(draw):
    k, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(0, 3), max_size=4))
    m, b = sum(sizes), len(sizes)
    return WebCorpus(
        query_ids=draw(st.lists(st.text(max_size=4), min_size=b, max_size=b)),
        labels=draw(st.lists(st.integers(0, k - 1), min_size=b, max_size=b)),
        offsets=np.cumsum([0, *sizes]),
        member_ids=draw(st.lists(st.text(max_size=4), min_size=m, max_size=m, unique=True)),
        X=np.reshape(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                   min_size=m * d, max_size=m * d)), (m, d)),
        num_classes=k,
        true_labels_hidden=draw(st.none() | st.lists(st.integers(-1, k - 1),
                                                     min_size=m, max_size=m)))


@st.composite
def small_datasets(draw):
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    return Dataset(ids=draw(st.lists(st.text(max_size=4), min_size=n, max_size=n, unique=True)),
                   group_ids=draw(st.lists(st.text(max_size=4), min_size=n, max_size=n)),
                   X=np.reshape(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                              min_size=n * d, max_size=n * d)), (n, d)),
                   y=draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), num_classes=3)


def reference_load_web_corpus(path):
    """The reader that decoded the whole text with ``json.load``, with counts
    and labels required to be integers that are not booleans."""
    member_ids, features, widths, member = [], array("d"), set(), object()

    def pack(obj):
        if "features" not in obj:
            return obj
        row = obj["features"]
        if bool in map(type, row):
            raise TypeError("a member feature is a boolean")
        features.extend(row)
        widths.add(len(row))
        member_ids.append(obj["id"])
        return member

    def integer(v):
        if type(v) is not int:
            raise TypeError(f"{v!r} is not an integer")
        return v

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_hook=pack)
        k, d, bags = integer(doc["num_classes"]), integer(doc["feature_dim"]), list(doc["bags"])
        sizes = [len(bag["members"]) for bag in bags]
        packed = sum(bag["members"].count(member) for bag in bags)
        if not packed == sum(sizes) == len(member_ids):
            raise ValueError("a member object lacks features, or another object has them")
        hidden = [bag.get("true_labels_hidden") for bag in bags]
        columns = dict(query_ids=[bag["query_id"] for bag in bags],
                       labels=[integer(bag["transferred_label"]) for bag in bags],
                       offsets=np.cumsum([0] + sizes))
        if bags and None not in hidden:
            columns["true_labels_hidden"] = [integer(t) for labels in hidden for t in labels]
    except (OSError, KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed web corpus document: {exc}") from None
    if not {*map(type, columns["query_ids"]), *map(type, member_ids)} <= {str}:
        raise ParseError(f"{path}: query and member ids must be strings")
    try:
        "".join(columns["query_ids"] + member_ids).encode()
    except UnicodeEncodeError:
        raise ParseError(f"{path}: query and member ids must be UTF-8 text") from None
    if d < 1 or not widths <= {d}:
        raise ParseError(f"{path}: every member needs {d} numeric features")
    if hidden.count(None) not in (0, len(hidden)) or ("true_labels_hidden" in columns
                                                      and list(map(len, hidden)) != sizes):
        raise ParseError(f"{path}: true_labels_hidden must be null in every bag or "
                         "hold one label per member in every bag")
    X = np.frombuffer(features, dtype=np.float64).reshape(len(member_ids), d)
    try:
        return WebCorpus(num_classes=k, member_ids=member_ids, X=X, **columns)
    except (ValidationError, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def read_outcome(read, path):
    """Every column ``read`` gives for ``path``, or None if it raises ParseError."""
    try:
        corpus = read(path)
    except ParseError:
        return None
    hidden = corpus.true_labels_hidden
    return (corpus.num_classes, corpus.query_ids.tolist(), corpus.labels.tolist(),
            corpus.offsets.tolist(), corpus.member_ids.tolist(), corpus.X.shape,
            corpus.X.tobytes(), None if hidden is None else hidden.tolist())


class TestWindowedReader:
    """``load_web_corpus`` reads the text a window at a time and gives what the
    whole-text reader kept above as a reference gives, columns or ParseError."""

    @pytest.mark.parametrize("window", [1, 7])
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_documents_read_as_the_whole_text_reader_reads_them(
            self, tmp_path, monkeypatch, window, data):
        monkeypatch.setattr(webly.data, "JSON_WINDOW", window)
        path = tmp_path / "web.json"
        base = data.draw(st.sampled_from(["small", "indented", "odd", "odd-without-hidden"]))
        if base.startswith("odd"):
            save_web_corpus(odd_corpus(hidden=base == "odd"), path)
        else:
            path.write_text(SMALL_WEB_JSON if base == "small"
                            else json.dumps(json.loads(SMALL_WEB_JSON), indent=1))
        blob = path.read_bytes()
        for _ in range(data.draw(st.integers(1, 2), label="edits")):
            at = data.draw(st.integers(0, len(blob)), label="at")
            edit = data.draw(st.sampled_from(["truncate", "replace", "insert"]), label="edit")
            if edit == "truncate":
                blob = blob[:at]
                continue
            piece = data.draw(st.one_of(
                st.binary(max_size=3),
                st.sampled_from(["null", "true", "NaN", '"x"', "[]", "{}", "1e999", "-7", "1.",
                                 "2.0", "e5", " ", "\n", ",", ":", "]", "}", '"',
                                 '"bags":']).map(str.encode)), label="piece")
            blob = blob[:at] + piece + blob[at + (edit == "replace"):]
        path.write_bytes(blob)
        assert (read_outcome(load_web_corpus, path)
                == read_outcome(reference_load_web_corpus, path))

    def test_one_large_bag_is_read_in_doubling_slices(self, tmp_path, monkeypatch):
        m = 5000
        corpus = WebCorpus(query_ids=["q"], labels=[0], offsets=[0, m],
                           member_ids=[f"m{i}" for i in range(m)],
                           X=np.random.default_rng(0).normal(size=(m, 2)), num_classes=2)
        path = tmp_path / "web.json"
        save_web_corpus(corpus, path)
        reads = []

        def counted_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            read = fh.read
            fh.read = lambda size: reads.append(size) or read(size)
            return fh

        monkeypatch.setattr(webly.data, "JSON_WINDOW", 64)
        monkeypatch.setattr(webly.data, "open", counted_open, raising=False)
        assert read_outcome(load_web_corpus, path) == read_outcome(
            reference_load_web_corpus, path)
        # each retry of the bag reads as much again as the window holds: 14 reads for
        # about 335,000 characters, where reads of 64 characters would take about 5,200
        assert path.stat().st_size > 300_000
        assert len(reads) <= 16

    def test_reader_peak_memory_stays_below_1_4_times_a_large_file(self, tmp_path):
        noise = NoiseSpec(cross_category_kernel=np.eye(5), cross_domain_rate=0.2,
                          bag_size=20, seed=3)
        web = synth_web_corpus(make_clean(k=5, d=8, per_class=100), noise, BackgroundSpec())
        p = tmp_path / "web.json"
        save_web_corpus(web, p)
        assert len(web.member_ids) == 10_000
        tracemalloc.start()
        try:
            load_web_corpus(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.4 * p.stat().st_size


class TestWritersMatchTheirReferences:
    """The column writers write the bytes of the per-row and per-bag forms
    they replaced, kept above as references."""

    def assert_same_bytes(self, tmp_path, write, reference, data):
        """The same bytes, or the same csv.Error (Python 3.10's for a NUL)."""
        assert (csv_outcome(write, tmp_path / "new", data)
                == csv_outcome(reference, tmp_path / "old", data))

    @pytest.mark.parametrize("hidden", [False, True])
    def test_web_corpus_with_odd_ids_floats_and_an_empty_bag(self, tmp_path, hidden):
        corpus = odd_corpus(hidden)
        self.assert_same_bytes(tmp_path, save_web_corpus, reference_save_web_corpus, corpus)
        assert load_web_corpus(tmp_path / "new").member_ids.tolist() == ODD_IDS

    @pytest.mark.parametrize("hidden", [None, []])
    def test_web_corpus_without_bags(self, tmp_path, hidden):
        corpus = WebCorpus(query_ids=[], labels=[], offsets=[0], member_ids=[],
                           X=np.empty((0, 2)), num_classes=2, true_labels_hidden=hidden)
        self.assert_same_bytes(tmp_path, save_web_corpus, reference_save_web_corpus, corpus)

    def test_dataset_csv_with_ids_that_need_quoting(self, tmp_path):
        n = len(ODD_IDS)
        ds = Dataset(ids=ODD_IDS, group_ids=ODD_IDS[::-1], X=np.resize(ODD_FLOATS, (n, 5)),
                     y=np.arange(n) % 3, num_classes=3)
        self.assert_same_bytes(tmp_path, write_dataset_csv, reference_write_dataset_csv, ds)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(corpus=small_corpora())
    def test_small_random_corpora(self, tmp_path, corpus):
        self.assert_same_bytes(tmp_path, save_web_corpus, reference_save_web_corpus, corpus)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ds=small_datasets())
    def test_small_random_datasets(self, tmp_path, ds):
        self.assert_same_bytes(tmp_path, write_dataset_csv, reference_write_dataset_csv, ds)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_dataset_csv_of_any_text_and_float(self, tmp_path, data):
        n, d = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 3))
        ds = Dataset(ids=data.draw(st.lists(csv_texts, min_size=n, max_size=n, unique=True)),
                     group_ids=data.draw(st.lists(csv_texts, min_size=n, max_size=n)),
                     X=np.reshape(data.draw(st.lists(csv_floats, min_size=n * d,
                                                     max_size=n * d)), (n, d)),
                     y=data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
                     num_classes=3)
        assert (csv_outcome(write_dataset_csv, tmp_path / "new", ds)
                == csv_outcome(reference_write_dataset_csv, tmp_path / "old", ds))


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
