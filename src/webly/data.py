"""Datasets, web corpora, file ingestion, grouped splitting, and synthetic generators.

Data is held in columns.  The clean corpus is a ``Dataset``: ids, group ids,
an (N, D) feature matrix and a label vector.  The web corpus holds per-query
bags as columns (query id, transferred label) and bag offsets into one flat
member table (ids, features, and for synthetic bags each member's true class
or the cross-domain sentinel, an evaluation-only column training never reads).
Every member inherits its query's label, the only label training sees.
Invariants are checked once, vectorised, when a dataset or corpus is built.
The synthetic crawl draws its random numbers bag by bag, then computes all
members at once.  The file formats are those of the former per-row model, byte
for byte.  Every CSV goes out through ``write_csv``, a row as its texts and one join of
its floats' ``repr``, and every indented JSON document through ``write_json``; a CSV
file is read whole, then checked; ``web.json`` is written and read one
bag at a time, the reader keeping the columns and about one window of the text
(1.2 times the file at 34,000 members).  The README says where the time goes.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass, field
from itertools import chain, filterfalse
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import MALFORMED, ParseError, ValidationError, clipped, named, shown

INT64_MAX = np.iinfo(np.int64).max

# Reserved hidden-truth marker for bag members that belong to no target class.
CROSS_DOMAIN = -1

# What a member object of web.json decodes to once load_web_corpus holds its columns
_MEMBER = object()
JSON_WINDOW = 1 << 18  # characters of web.json that load_web_corpus reads at a time


def _reject(bad: np.ndarray, ids: np.ndarray, message: str, values=None) -> None:
    """Raise ValidationError for the first row flagged in ``bad``; ``message``
    is formatted with that row's ``id`` and, if given, its entry of ``values``,
    ``{id!r}`` as ``shown`` quotes it and ``{id}`` as its plain text ``clipped``."""
    if np.any(bad):
        i = int(np.argmax(bad))
        value = None if values is None else values[i]
        raise ValidationError(message.format(id=_Shown(ids[i]), value=_Shown(value)))


class _Shown:
    """A ``_reject`` field: ``{x!r}`` formats it by ``shown``, ``{x}`` as its text ``clipped``."""

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return shown(self.value)

    def __format__(self, spec):
        return clipped(format(self.value, spec))


def _is_real(v) -> bool:
    """A finite int or float, not a bool; an int too large for a float fails."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def integer(low: int) -> tuple:
    """Field rule for ``check_fields``: an integer (not a bool) >= ``low``."""
    return ((lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool)
             and v >= low), f"an integer >= {low}")


def real(test, text: str) -> tuple:
    """Field rule for ``check_fields``: a finite number (not a bool) that
    passes ``test``, described by ``text``."""
    return (lambda v: _is_real(v) and test(v)), f"a number {text}"


def integers(low: int) -> tuple:
    """Field rule for ``check_fields``: a list of integers (not bools) >= ``low``."""
    return ((lambda v: isinstance(v, (list, tuple)) and all(integer(low)[0](x) for x in v)),
            f"a list of integers >= {low}")


def reals(ndims: tuple, text: str, null: bool = False) -> tuple:
    """Field rule for ``check_fields``: finite numbers (not bools) in equal-length
    lists nested to a depth in ``ndims`` (0: a bare number), or None if ``null``."""
    def ok(v):
        nest = np.array(v, dtype=object)
        return null and v is None or nest.ndim in ndims and all(map(_is_real, nest.flat))
    return ok, text


def check_fields(values: dict, rules: dict, prefix: str = "") -> None:
    """Raise ValidationError naming ``prefix`` + key for the first value in
    ``values`` that breaks its rule, a (test, description) pair; keys without
    a rule are not checked."""
    for key, (ok, text) in rules.items():
        if key in values and not ok(values[key]):
            raise ValidationError(f"{prefix}{key} must be {text}, got {shown(values[key])}")


def check_row_stochastic(m: np.ndarray, name: str) -> None:
    """Raise ValidationError unless ``m`` is a square matrix (or a stack of
    them) with entries in [0, 1] whose rows sum to 1 within 1e-9; NaN entries
    fail."""
    if not (m.ndim >= 2 and m.shape[-1] == m.shape[-2]
            and np.all((m >= 0) & (m <= 1))
            and np.all(np.abs(m.sum(axis=-1) - 1.0) <= 1e-9)):
        raise ValidationError(f"{name} must be row-stochastic: square, entries in "
                              "[0, 1], each row summing to 1 within 1e-9")


def _repeats(ids: np.ndarray) -> np.ndarray:
    """Mask of the ids that already occurred earlier in the column."""
    if len(set(ids)) == len(ids):  # distinct ids, the usual case, need only one set
        return np.zeros(len(ids), dtype=bool)
    seen: set[str] = set()
    return np.array([i in seen or seen.add(i) for i in ids], dtype=bool)


@dataclass
class Dataset:
    """Labeled feature rows as columns: ids, group ids, X (N, D) and y (N,)."""

    ids: np.ndarray
    group_ids: np.ndarray
    X: np.ndarray
    y: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=object)
        self.group_ids = np.asarray(self.group_ids, dtype=object)
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.num_classes < 1:
            raise ValidationError("num_classes must be >= 1")
        n = len(self.ids)
        if (self.X.ndim != 2 or self.X.shape[0] != n
                or self.group_ids.shape != (n,) or self.y.shape != (n,)):
            raise ValidationError(f"{self.name}: column shapes disagree: ids ({n},), "
                                  f"group_ids {self.group_ids.shape}, X {self.X.shape}, "
                                  f"y {self.y.shape}")
        _reject(~np.isfinite(self.X).all(axis=1), self.ids,
                "example {id}: non-finite feature")
        _reject((self.y < 0) | (self.y >= self.num_classes), self.ids,
                f"example {{id}}: label {{value}} outside [0, {self.num_classes})", self.y)
        _reject(_repeats(self.ids), self.ids, "duplicate example id {id!r}")

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def feature_dim(self) -> int:
        return self.X.shape[1]

    def label_counts(self) -> np.ndarray:
        return np.bincount(self.y, minlength=self.num_classes)

    def take(self, index, name: str) -> "Dataset":
        """The rows selected by ``index`` (a mask or positions), as a new dataset."""
        return Dataset(ids=self.ids[index], group_ids=self.group_ids[index],
                       X=self.X[index], y=self.y[index],
                       num_classes=self.num_classes, name=name)


@dataclass
class WebCorpus:
    """All web bags of one crawl: per-bag columns plus one flat member table.

    Bag b (``query_ids[b]``, transferred label ``labels[b]``) owns member rows
    ``offsets[b]:offsets[b + 1]`` of ``member_ids`` and ``X``.  The optional,
    evaluation-only ``true_labels_hidden`` holds each member's true class, or
    CROSS_DOMAIN for background outliers; training code must never read it.

    ``access_count`` ticks every time toolkit code reads the bags for training
    or estimation, which both go through ``flatten_web``; it lets experiments
    assert that clean-only stages never touch web data.
    """

    query_ids: np.ndarray
    labels: np.ndarray
    offsets: np.ndarray
    member_ids: np.ndarray
    X: np.ndarray
    num_classes: int
    true_labels_hidden: np.ndarray | None = None
    access_count: int = field(default=0, init=False, compare=False)

    def __post_init__(self):
        self.query_ids = np.asarray(self.query_ids, dtype=object)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.member_ids = np.asarray(self.member_ids, dtype=object)
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.num_classes < 1:
            raise ValidationError("num_classes must be >= 1")
        b, m = len(self.query_ids), len(self.member_ids)
        if (self.labels.shape != (b,) or self.offsets.shape != (b + 1,)
                or self.offsets[0] != 0 or self.offsets[-1] != m
                or np.any(np.diff(self.offsets) < 0) or self.X.ndim != 2
                or self.X.shape[0] != m):
            raise ValidationError(
                f"corpus columns disagree: {b} query ids, labels {self.labels.shape}, "
                f"offsets {self.offsets.shape} rising from 0 to {m} members, "
                f"member features {self.X.shape}")
        _reject((self.labels < 0) | (self.labels >= self.num_classes), self.query_ids,
                f"bag {{id}}: transferred label {{value}} outside [0, {self.num_classes})",
                self.labels)
        _reject(~np.isfinite(self.X).all(axis=1), self.member_ids,
                "member {id}: non-finite feature")
        _reject(_repeats(self.member_ids), self.member_ids, "duplicate member id {id!r}")
        if self.true_labels_hidden is not None:
            hidden = self.true_labels_hidden = np.asarray(self.true_labels_hidden,
                                                          dtype=np.int64)
            if hidden.shape != (m,):
                raise ValidationError(f"hidden labels length {len(hidden)} != members {m}")
            _reject((hidden != CROSS_DOMAIN) & ((hidden < 0) | (hidden >= self.num_classes)),
                    self.member_ids, "member {id}: hidden label {value} is neither a "
                    "class index nor the cross-domain sentinel", hidden)

    def member_labels(self) -> np.ndarray:
        """Each member's transferred label: its bag's label, repeated."""
        return np.repeat(self.labels, np.diff(self.offsets))


# Rules of the synthetic-data specs, which name fields by their place in data.synth
CLEAN_RULES = {
    "num_classes": integer(2),
    "feature_dim": integer(1),
    "sigma": real(lambda v: v > 0, "> 0"),
    "class_counts": integers(1),
    "groups_per_class": integer(1),
    "seed": integer(0),
}
NOISE_RULES = {
    "cross_domain_rate": real(lambda v: 0 <= v <= 1, "in [0, 1]"),
    "bag_size": integer(1),
    "seed": integer(0),
}
BACKGROUND_RULES = {
    "mean_offset": reals((0, 1), "a number or a list of numbers"),
    "scale": real(lambda v: v > 0, "> 0"),
}


@dataclass
class NoiseSpec:
    """Ground-truth noise model for the synthetic web crawl.

    ``cross_category_kernel`` row i gives the distribution of a member's true
    class when the query's class is i; ``cross_domain_rate`` is the probability
    a member is a background outlier instead.  This is simulator ground truth,
    distinct from any transition matrix estimated later.
    """

    cross_category_kernel: np.ndarray
    cross_domain_rate: float
    bag_size: int
    seed: int

    def __post_init__(self):
        check_fields(vars(self), NOISE_RULES, "noise.")
        self.cross_category_kernel = np.asarray(self.cross_category_kernel, dtype=np.float64)
        check_row_stochastic(self.cross_category_kernel, "noise.cross_category_kernel")


@dataclass
class BackgroundSpec:
    """Outlier distribution for cross-domain members: an isotropic Gaussian
    centered at the clean corpus mean shifted by ``mean_offset``."""

    mean_offset: float | np.ndarray = 10.0
    scale: float = 1.0

    def __post_init__(self):
        check_fields(vars(self), BACKGROUND_RULES, "background.")


@dataclass
class CleanSpec:
    """Class-mixture spec for the synthetic clean corpus.

    Each example of class c is drawn from an isotropic Gaussian centered at
    ``class_means[c]`` with per-coordinate standard deviation ``sigma``.
    Group ids cycle through a shared pool within each class, so every group
    contains examples of every class and whole-group splits keep all classes
    on both sides.
    """

    num_classes: int
    feature_dim: int
    class_means: np.ndarray
    sigma: float
    class_counts: list[int]
    groups_per_class: int
    seed: int
    name: str = "synth"

    def __post_init__(self):
        check_fields(vars(self), CLEAN_RULES)
        self.class_means = np.asarray(self.class_means, dtype=np.float64)
        k, d = self.num_classes, self.feature_dim
        if self.class_means.shape != (k, d):
            raise ValidationError(f"class_means must be num_classes x feature_dim = "
                                  f"{k} x {d}, got shape {self.class_means.shape}")
        if len(self.class_counts) != k:
            raise ValidationError(f"class_counts must hold num_classes = {k} counts, "
                                  f"got {shown(self.class_counts)}")


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _expected_header(feature_dim: int) -> list[str]:
    return ["id", "group_id", "label"] + [f"f{i}" for i in range(feature_dim)]


def _check_rows(path: Path, rows: list, d: int) -> None:
    """Raise ParseError naming the first of ``rows`` (lines 2 on) that is not an id, a
    group id, a base-10 label in int64 and ``d`` numbers, those in ASCII without '_'."""
    for lineno, row in enumerate(rows, start=2):
        if len(row) != d + 3:
            raise ParseError(f"{path}: line {lineno}: expected {d + 3} columns, got {len(row)}")
        try:
            label = int(row[2])
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: label {shown(row[2])} "
                             "is not a base-10 integer") from None
        if label < 0:
            raise ParseError(f"{path}: line {lineno}: negative label {shown(label)}")
        if label > INT64_MAX:
            raise ParseError(f"{path}: line {lineno}: label {shown(label)} does not fit int64")
        try:
            [*map(float, row[3:])]
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-numeric feature") from None
        numbers = "".join(row[2:])  # int() and float() also read "_" and non-ASCII digits
        if not numbers.isascii() or "_" in numbers:
            raise ParseError(f"{path}: line {lineno}: label and features must be "
                             "ASCII numbers without '_'")


def load_dataset(path: str | Path, num_classes: int | None = None) -> Dataset:
    """Load a dataset from CSV with header ``id,group_id,label,f0,...,f{D-1}``.

    The number of classes is inferred as max label + 1 unless ``num_classes``
    overrides it.  Row order is preserved.  Malformed rows raise ParseError
    naming the offending line, as do text that is not UTF-8 and CSV syntax
    errors; duplicate ids raise ValidationError naming the path.
    """
    path = Path(path)
    rows, error = [], None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file, header required")
            d = len(header) - 3
            if d < 1 or header != _expected_header(d):
                raise ParseError(f"{path}: line 1: bad header {shown(header)}")
            rows.extend(reader)  # the rows read before a read error are checked first
    except UnicodeDecodeError as exc:
        error = ParseError(f"{path}: not UTF-8 text: {exc.reason}")
    except csv.Error as exc:
        error = ParseError(f"{path}: line {reader.line_num}: {exc}")
    if not rows:
        raise error or ValidationError(f"{path}: no examples")
    try:  # every row at once: only a file with a bad row is walked, to name its line
        ids, group_ids, texts, *columns = zip(*rows)
        labels, numbers = list(map(int, texts)), "".join(chain(texts, *columns))
        X = np.fromiter(map(float, chain(*columns)), np.float64, len(rows) * d)
        if (error or set(map(len, rows)) != {d + 3} or not numbers.isascii()
                or "_" in numbers or min(labels) < 0 or max(labels) > INT64_MAX):
            raise ValueError
    except ValueError:
        _check_rows(path, rows, d)
        raise error  # _check_rows names a bad row; with none, the read error failed
    X = X.reshape(d, -1).T.copy()
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
    with named(f"{path}: "):  # a duplicate id
        return Dataset(ids=ids, group_ids=group_ids, X=X, y=labels, num_classes=k,
                       name=path.stem)


def write_dataset_csv(ds: Dataset, path: str | Path) -> None:
    """Write a dataset in the CSV schema; floats use shortest exact repr."""
    write_csv(path, _expected_header(ds.feature_dim),
              [ds.ids, ds.group_ids, map(str, ds.y.tolist())], ds.X)


def write_csv(path: str | Path, header: list[str], texts: list, x: np.ndarray) -> None:
    """Write ``header`` and per row of ``x`` its texts in ``texts``, then its floats'
    shortest exact ``repr`` in one join, as the default ``csv.writer`` dialect does: a
    column with no comma, quote, CR, LF or NUL as it is, else each text as that writes it."""
    columns, line = [], csv.writer(SimpleNamespace(write=str)).writerow  # returns its line
    for column in map(list, texts):
        rare = any(c in "".join(column) for c in ',"\r\n\x00')  # NUL: csv.Error on 3.10
        columns.append([t and line([t])[:-2] for t in column] if rare else column)
    if x.shape[1]:
        columns.append([",".join(map(repr, row)) for row in x.tolist()])
    if len(columns) == 1:  # a row of one empty field is written '""'
        columns[0] = [t or '""' for t in columns[0]]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join([",".join(header), *map(",".join, zip(*columns)), ""]))


# ---------------------------------------------------------------------------
# Grouped splitting
# ---------------------------------------------------------------------------

def grouped_split(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Partition whole groups into train/test by a seeded greedy fill.

    Groups are randomly permuted (seeded) and assigned to the train side in
    order until it first reaches at least ``train_fraction`` of the examples;
    the remaining groups form the test side.  No group appears on both sides.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValidationError("train_fraction must lie strictly between 0 and 1")
    if len(ds) == 0:
        raise ValidationError("cannot split an empty dataset")
    # unique groups (sorted), each one's first row, each row's group, group sizes
    _, first, group_of_row, sizes = np.unique(
        ds.group_ids, return_index=True, return_inverse=True, return_counts=True)
    if len(first) < 2:
        raise ValidationError("cannot split one group")

    # permute the groups in order of first appearance, then fill greedily
    order = np.argsort(first)[np.random.default_rng(seed).permutation(len(first))]
    n_train = int(np.argmax(np.cumsum(sizes[order]) >= train_fraction * len(ds))) + 1
    if n_train == len(first):
        raise ValidationError(f"train_fraction leaves no test groups at split seed {seed}")
    in_train = np.isin(group_of_row, order[:n_train])
    return (ds.take(in_train, f"{ds.name}-train"),
            ds.take(~in_train, f"{ds.name}-test"))


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------

def synth_clean(spec: CleanSpec) -> Dataset:
    """Draw a clean corpus from the class mixture; deterministic given seed."""
    rng = np.random.default_rng(spec.seed)
    counts = spec.class_counts
    X = np.concatenate([
        rng.normal(loc=spec.class_means[c], scale=spec.sigma,
                   size=(counts[c], spec.feature_dim))
        for c in range(spec.num_classes)
    ])
    ids = [f"{spec.name}-c{c}-{i}" for c in range(spec.num_classes)
           for i in range(counts[c])]
    group_ids = [f"g{i % spec.groups_per_class}" for c in range(spec.num_classes)
                 for i in range(counts[c])]
    return Dataset(ids=ids, group_ids=group_ids, X=X,
                   y=np.repeat(np.arange(spec.num_classes), counts),
                   num_classes=spec.num_classes, name=spec.name)


def _class_models(clean: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Empirical per-class mean and pooled isotropic std from a clean corpus."""
    means = np.zeros((clean.num_classes, clean.feature_dim))
    stds = np.zeros(clean.num_classes)
    for c in range(clean.num_classes):
        Xc = clean.X[clean.y == c]
        if len(Xc) == 0:
            raise ValidationError(f"class {c} absent from clean corpus")
        means[c] = Xc.mean(axis=0)
        stds[c] = float(np.sqrt(Xc.var(axis=0).mean())) if len(Xc) > 1 else 0.0
    return means, stds


def check_crawl_fits(noise: NoiseSpec, background: BackgroundSpec, k: int, d: int) -> None:
    """Raise ValidationError unless the crawl specs fit K classes of D features."""
    if noise.cross_category_kernel.shape != (k, k):
        raise ValidationError(f"noise.cross_category_kernel must be {k} x {k} for {k} classes")
    if np.shape(background.mean_offset) not in ((), (d,)):
        raise ValidationError(f"background.mean_offset must be a number or {d} numbers "
                              f"for {d} features")


def synth_web_corpus(clean_train: Dataset, noise: NoiseSpec,
                     background: BackgroundSpec) -> WebCorpus:
    """Simulate a web crawl: one bag of ``bag_size`` members per clean query.

    Each member is independently a cross-domain outlier with probability
    ``cross_domain_rate`` (features from the background Gaussian), otherwise
    its true class is drawn from the kernel row of the query's label and its
    features from that class's empirical Gaussian model.  Members carry only
    the transferred label; true classes go to ``true_labels_hidden``.  Draws
    are made bag by bag in query order, so the corpus depends on the seed and
    the query order alone; all members' features are then computed at once.
    """
    if len(clean_train) == 0:
        raise ValidationError("clean_train is empty")
    k = clean_train.num_classes
    check_crawl_fits(noise, background, k, clean_train.feature_dim)
    means, stds = _class_models(clean_train)
    center = clean_train.X.mean(axis=0) + np.asarray(background.mean_offset)

    rng = np.random.default_rng(noise.seed)
    m, n = noise.bag_size, len(clean_train)
    X = np.empty((n * m, clean_train.feature_dim))
    row = np.empty((n, m), dtype=np.int64)  # each member's row of the tables below
    draws, outlier = row.view(np.float64), np.empty((n, m))  # row first holds class draws
    for b in range(n):  # per bag: the outlier draws, the class draws, the unit normals
        rng.random(out=outlier[b])
        rng.random(out=draws[b])
        rng.standard_normal(out=X[b * m:(b + 1) * m])
    outlier = (outlier < noise.cross_domain_rate).ravel()
    kernel_cum = np.cumsum(noise.cross_category_kernel, axis=1)
    for y in range(k):  # one kernel-row lookup per transferred label
        bags = clean_train.y == y
        row[bags] = np.searchsorted(kernel_cum[y], draws[bags])
    row = row.clip(max=k - 1, out=row).ravel()
    row[outlier] = k  # row k of the tables: the background's
    scales, locs = np.append(stds, background.scale), np.vstack([means, center])
    for at in (slice(lo, lo + 1024) for lo in range(0, n * m, 1024)):  # bounded temporaries
        X[at] *= scales[row[at], None]
        X[at] += locs[row[at]]
    row[outlier] = CROSS_DOMAIN  # the rows are now the hidden labels
    member_ids = np.add.outer(clean_train.ids, np.array([f"-w{i}" for i in range(m)], object))
    return WebCorpus(query_ids=clean_train.ids, labels=clean_train.y,
                     offsets=np.arange(n + 1) * m, member_ids=member_ids.ravel(), X=X,
                     num_classes=k, true_labels_hidden=row)


def flatten_web(corpus: WebCorpus) -> Dataset:
    """All bag members as one dataset labeled by transferred labels.

    The result is a view: its ``X`` and ``ids`` are the corpus's own arrays,
    and the corpus's construction-time checks stand in for the dataset's.
    """
    if len(corpus.member_ids) == 0:
        raise ValidationError(f"empty corpus: {len(corpus.query_ids)} bags and no member")
    corpus.access_count += 1
    flat = object.__new__(Dataset)
    flat.__dict__.update(
        ids=corpus.member_ids,
        group_ids=np.repeat(corpus.query_ids, np.diff(corpus.offsets)),
        X=corpus.X, y=corpus.member_labels(),
        num_classes=corpus.num_classes, name="web-flat")
    return flat


# ---------------------------------------------------------------------------
# Web-corpus JSON interchange
# ---------------------------------------------------------------------------
# Layout (keys sorted, no whitespace): {"bags":[{"members":[{"features":[...],
# "id":...},...],"query_id":...,"transferred_label":...,"true_labels_hidden":
# [...] or null},...],"feature_dim":D,"num_classes":K}.

def canonical_json(doc) -> str:
    """Compact JSON with sorted keys: the toolkit's one stable serialization."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def write_json(doc, path: str | Path) -> None:
    """Write ``doc`` as JSON with sorted keys, indented by 2, and a final newline."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def save_web_corpus(corpus: WebCorpus, path: str | Path) -> None:
    """Write the corpus one bag at a time, so no second copy of it is built; a
    bag's text is its ``canonical_json``, built directly with no member dicts."""
    offsets, labels = corpus.offsets.tolist(), corpus.labels.tolist()
    hidden = corpus.true_labels_hidden
    string = json.encoder.encode_basestring_ascii
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"bags":[')
        for b, query_id in enumerate(corpus.query_ids):
            lo, hi = offsets[b], offsets[b + 1]
            members = ['{"features":[', "", '],"id":', "", "},"] * (hi - lo)  # repr = JSON
            members[1::5] = [",".join(map(repr, row)) for row in corpus.X[lo:hi].tolist()]
            members[3::5] = map(string, corpus.member_ids[lo:hi])
            tail = "null" if hidden is None else f"[{','.join(map(str, hidden[lo:hi].tolist()))}]"
            fh.write(f'{"," if b else ""}{{"members":[{"".join(members)[:-1]}],"query_id":'
                     f'{string(query_id)},"transferred_label":{labels[b]},'
                     f'"true_labels_hidden":{tail}}}')
        fh.write(f'],"feature_dim":{corpus.X.shape[1]},'
                 f'"num_classes":{corpus.num_classes}}}')


def load_web_corpus(path: str | Path) -> WebCorpus:
    """Read a corpus written by ``save_web_corpus``; any defect of the document,
    a boolean feature or a count or label that is not an integer too, raises
    ParseError naming the path.  The document is walked over a window of
    ``JSON_WINDOW`` characters, each bag decoded and reduced to its columns in
    turn (a hook packs each member's id and features as it is parsed), so at
    its peak the reader holds the columns and about one window of text."""
    member_ids, features, widths = [], array("d"), set()

    def pack(obj: dict):
        if "features" not in obj:
            return obj
        row = obj["features"]
        if bool in map(type, row):
            raise TypeError("a member feature is a boolean")
        features.fromlist(row)  # a list in one resize; anything else is a TypeError
        widths.add(len(row))
        member_ids.append(obj["id"])
        return _MEMBER

    decode, space = json.JSONDecoder(object_hook=pack).raw_decode, json.decoder.WHITESPACE.match
    doc, query_ids, labels, sizes, packed, hidden, hidden_sizes = {}, [], [], [], [], [], []
    with named(f"{path}: malformed web corpus document: ", ParseError, (OSError, *MALFORMED)):
        with open(path, encoding="utf-8") as fh:
            text, pos, eof, start = "", 0, False, 0  # start: text[0]'s place in the file
            def fill():  # keep the text from pos on, and read as much again, at least a window
                nonlocal text, pos, eof, start
                text, start, size = text[pos:], start + pos, max(JSON_WINDOW, len(text) - pos)
                chunk = fh.read(size)
                text, pos, eof = text + chunk, 0, len(chunk) < size
            def token() -> str:  # the next character after whitespace, "" at the end
                nonlocal pos
                while (pos := space(text, pos).end()) == len(text) and not eof:
                    fill()
                return text[pos:pos + 1]
            def sep(allowed: tuple) -> str:  # the next character, one of ``allowed``
                nonlocal pos
                if token() not in allowed:
                    raise ValueError(f"Expecting {'/'.join(allowed)} (character {start + pos})")
                pos += 1
                return text[pos - 1]
            def value(after: tuple):  # the value at pos, and the separator after it
                nonlocal pos
                n, m = len(member_ids), len(features)
                if len(text) - pos < JSON_WINDOW // 8 and not eof:  # read on before the edge
                    fill()
                while True:
                    try:  # a value cut off by the window fails, or is a number without ``after``
                        obj, end = decode(text, space(text, pos).end())
                        end = space(text, end).end()
                        if text[end:end + 1] in after:
                            pos = end + 1
                            return obj, text[end]
                        raise json.JSONDecodeError(f"Expecting {'/'.join(after)}", text, end)
                    except json.JSONDecodeError as exc:  # placed in the file, not in the window
                        if eof:
                            raise ValueError(f"{exc.msg} (character {start + exc.pos})") from None
                    del member_ids[n:], features[m:]  # undo what the hook packed, and read on
                    fill()

            c = sep(("{",))
            while c != "}":
                key, _ = value((":",))
                if type(key) is not str or key == "bags" and key in doc:
                    raise ValueError(f"a key that is not a string or is repeated: {shown(key)}")
                if key != "bags":
                    doc[key], c = value((",", "}"))
                    continue
                sep(("[",))
                doc[key], c = (), sep(("]",)) if token() == "]" else ","  # walked, not held
                while c == ",":  # each bag goes into the columns, and its dict is dropped
                    bag, c = value((",", "]"))
                    members, tail = bag["members"], bag.get("true_labels_hidden")
                    sizes.append(len(members))
                    packed.append(members.count(_MEMBER))
                    query_ids.append(bag["query_id"])
                    labels.append(bag["transferred_label"])
                    hidden_sizes.append(None if tail is None else len(tail))
                    hidden.extend(tail or ())
                c = sep((",", "}"))
            if token():
                raise ValueError(f"Extra data (character {start + pos})")
            text = ""  # drop the last window before the columns are built
        k, d, _ = doc["num_classes"], doc["feature_dim"], doc["bags"]
        check_fields(doc, {"num_classes": integer(1), "feature_dim": integer(1)})
        if not sum(packed) == sum(sizes) == len(member_ids):  # members only in members lists
            raise ValueError("a member object lacks features, or another object has them")
        columns = dict(query_ids=query_ids, labels=labels, offsets=np.cumsum([0] + sizes))
        if sizes and None not in hidden_sizes:
            columns["true_labels_hidden"] = hidden

    if not {*map(type, query_ids), *map(type, member_ids)} <= {str}:
        raise ParseError(f"{path}: query and member ids must be strings")
    try:  # a lone surrogate, escaped as \ud800 to \udfff, is not text: encode each id not ASCII
        for text in filterfalse(str.isascii, chain(query_ids, member_ids)):
            text.encode()
    except UnicodeEncodeError as exc:
        raise ParseError(f"{path}: query and member ids must be UTF-8 text, not "
                         f"{shown(exc.object)}") from None
    if not {*map(type, labels), *map(type, hidden)} <= {int}:
        raise ParseError(f"{path}: transferred and hidden labels must be integers")
    if not widths <= {d}:
        raise ParseError(f"{path}: every member needs {d} numeric features")
    if hidden_sizes != sizes and hidden_sizes != [None] * len(sizes):
        raise ParseError(f"{path}: true_labels_hidden must be null in every bag or "
                         "hold one label per member in every bag")
    X = np.frombuffer(features, dtype=np.float64).reshape(len(member_ids), d)
    with named(f"{path}: ", ParseError, MALFORMED):  # OverflowError: int64 columns
        return WebCorpus(num_classes=k, member_ids=member_ids, X=X, **columns)
