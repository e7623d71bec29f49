"""Datasets, web corpora, file ingestion, grouped splitting, and synthetic generators.

Data is held in columns.  The clean corpus is a ``Dataset``: ids, group ids,
an (N, D) feature matrix and a label vector.  The web corpus is a collection
of per-query bags stored as per-bag columns (query id, transferred label) and
bag offsets into one flat member table (ids, features, and for synthetic bags
each member's true class or the cross-domain sentinel, an evaluation-only
column that training never reads).  Every member inherits its query's label,
the only label visible to training.  Invariants are checked once, vectorised,
when a dataset or corpus is built; the CSV and JSON file formats are those of
the former per-row model, byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

INT64_MAX = np.iinfo(np.int64).max

# Reserved hidden-truth marker for bag members that belong to no target class.
CROSS_DOMAIN = -1


def _reject(bad: np.ndarray, ids: np.ndarray, message: str, values=None) -> None:
    """Raise ValidationError for the first row flagged in ``bad``; ``message``
    is formatted with that row's ``id`` and, if given, its entry of ``values``."""
    if np.any(bad):
        i = int(np.argmax(bad))
        value = None if values is None else values[i]
        raise ValidationError(message.format(id=ids[i], value=value))


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


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
    return (lambda v: _is_int(v) and v >= low), f"an integer >= {low}"


def real(test, text: str) -> tuple:
    """Field rule for ``check_fields``: a finite number (not a bool) that
    passes ``test``, described by ``text``."""
    return (lambda v: _is_real(v) and test(v)), f"a number {text}"


def check_fields(values: dict, rules: dict, prefix: str = "") -> None:
    """Raise ValidationError naming ``prefix`` + key for the first value in
    ``values`` that breaks its rule, a (test, description) pair; keys without
    a rule are not checked."""
    for key, (ok, text) in rules.items():
        if key in values and not ok(values[key]):
            raise ValidationError(f"{prefix}{key} must be {text}, got {values[key]!r}")


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
    or estimation (flatten_web, representative mining); it lets experiments
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
        self.cross_category_kernel = np.asarray(self.cross_category_kernel, dtype=np.float64)
        check_row_stochastic(self.cross_category_kernel, "cross_category_kernel")
        if not 0.0 <= self.cross_domain_rate <= 1.0:
            raise ValidationError("cross_domain_rate must lie in [0, 1]")
        if self.bag_size < 1:
            raise ValidationError("bag_size must be >= 1")


@dataclass
class BackgroundSpec:
    """Outlier distribution for cross-domain members: an isotropic Gaussian
    centered at the clean corpus mean shifted by ``mean_offset``."""

    mean_offset: float | np.ndarray = 10.0
    scale: float = 1.0

    def __post_init__(self):
        if self.scale <= 0:
            raise ValidationError("background scale must be positive")


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
        self.class_means = np.asarray(self.class_means, dtype=np.float64)
        if self.num_classes < 2:
            raise ValidationError("need at least 2 classes")
        if self.class_means.shape != (self.num_classes, self.feature_dim):
            raise ValidationError(
                f"class_means shape {self.class_means.shape} != "
                f"({self.num_classes}, {self.feature_dim})"
            )
        if self.sigma <= 0:
            raise ValidationError("sigma must be positive")
        if len(self.class_counts) != self.num_classes:
            raise ValidationError("class_counts length must equal num_classes")
        if any(c < 1 for c in self.class_counts):
            raise ValidationError("every class count must be >= 1")
        if self.groups_per_class < 1:
            raise ValidationError("groups_per_class must be >= 1")


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _expected_header(feature_dim: int) -> list[str]:
    return ["id", "group_id", "label"] + [f"f{i}" for i in range(feature_dim)]


def load_dataset(path: str | Path, num_classes: int | None = None,
                 name: str | None = None) -> Dataset:
    """Load a dataset from CSV with header ``id,group_id,label,f0,...,f{D-1}``.

    The number of classes is inferred as max label + 1 unless ``num_classes``
    overrides it.  Row order is preserved.  Malformed rows raise ParseError
    naming the offending line, as do text that is not UTF-8 and CSV syntax
    errors; duplicate ids raise ValidationError.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file, header required")
            d = len(header) - 3
            if d < 1 or header != _expected_header(d):
                raise ParseError(f"{path}: line 1: bad header {header!r}")

            ids, group_ids, labels, rows = [], [], [], []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != d + 3:
                    raise ParseError(
                        f"{path}: line {lineno}: expected {d + 3} columns, got {len(row)}"
                    )
                label_str = row[2]
                try:
                    label = int(label_str)
                except ValueError:
                    raise ParseError(f"{path}: line {lineno}: label {label_str!r} "
                                     "is not a base-10 integer") from None
                if label < 0:
                    raise ParseError(f"{path}: line {lineno}: negative label {label}")
                if label > INT64_MAX:
                    raise ParseError(f"{path}: line {lineno}: label {label} does not "
                                     "fit int64")
                try:
                    rows.append([float(v) for v in row[3:]])
                except ValueError:
                    raise ParseError(f"{path}: line {lineno}: non-numeric feature") from None
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
        raise ValidationError(
            f"{path}: label {inferred_k - 1} exceeds num_classes={k}"
        )
    return Dataset(ids=ids, group_ids=group_ids, X=X, y=labels, num_classes=k,
                   name=name if name is not None else path.stem)


def write_dataset_csv(ds: Dataset, path: str | Path) -> None:
    """Write a dataset in the CSV schema; floats use shortest exact repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_expected_header(ds.feature_dim))
        writer.writerows([ex_id, group_id, str(label)] + [repr(v) for v in row]
                         for ex_id, group_id, label, row
                         in zip(ds.ids, ds.group_ids, ds.y.tolist(), ds.X.tolist()))


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
        raise ValidationError("train_fraction leaves no test groups")
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


def synth_web_corpus(clean_train: Dataset, noise: NoiseSpec,
                     background: BackgroundSpec) -> WebCorpus:
    """Simulate a web crawl: one bag of ``bag_size`` members per clean query.

    Each member is independently a cross-domain outlier with probability
    ``cross_domain_rate`` (features from the background Gaussian), otherwise
    its true class is drawn from the kernel row of the query's label and its
    features from that class's empirical Gaussian model.  Members carry only
    the transferred label; true classes go to ``true_labels_hidden``.  Draws
    are made bag by bag in query order, so the corpus depends on the seed and
    the query order alone.
    """
    if len(clean_train) == 0:
        raise ValidationError("clean_train is empty")
    k = clean_train.num_classes
    if noise.cross_category_kernel.shape != (k, k):
        raise ValidationError(
            f"kernel is {noise.cross_category_kernel.shape}, expected ({k}, {k})"
        )
    means, stds = _class_models(clean_train)
    center = clean_train.X.mean(axis=0) + np.asarray(background.mean_offset)
    if center.shape != (clean_train.feature_dim,):
        raise ValidationError("background mean_offset must be scalar or length-D")

    rng = np.random.default_rng(noise.seed)
    m = noise.bag_size
    n = len(clean_train)
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
    return WebCorpus(query_ids=clean_train.ids, labels=clean_train.y,
                     offsets=np.arange(n + 1) * m, member_ids=member_ids, X=X,
                     num_classes=k, true_labels_hidden=hidden)


def flatten_web(corpus: WebCorpus) -> Dataset:
    """All bag members as one dataset labeled by transferred labels.

    The result is a view: its ``X`` and ``ids`` are the corpus's own arrays,
    and the corpus's construction-time checks stand in for the dataset's.
    """
    if len(corpus.query_ids) == 0:
        raise ValidationError("empty corpus")
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


def save_web_corpus(corpus: WebCorpus, path: str | Path) -> None:
    """Write the corpus one bag at a time, so no second copy of it is built."""
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


def load_web_corpus(path: str | Path) -> WebCorpus:
    """Read a corpus written by ``save_web_corpus``; any defect of the
    document raises ParseError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        k, d, bags = int(doc["num_classes"]), int(doc["feature_dim"]), list(doc["bags"])
        members = [member for bag in bags for member in bag["members"]]
        columns = dict(
            query_ids=[bag["query_id"] for bag in bags],
            labels=[int(bag["transferred_label"]) for bag in bags],
            offsets=np.cumsum([0] + [len(bag["members"]) for bag in bags]),
            member_ids=[member["id"] for member in members],
            X=(np.array([member["features"] for member in members]) if members
               else np.empty((0, max(d, 0)))))
        hidden = [bag.get("true_labels_hidden") for bag in bags]
        if bags and None not in hidden:
            columns["true_labels_hidden"] = [int(t) for labels in hidden for t in labels]
    except (OSError, KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and ragged rows
        raise ParseError(f"{path}: malformed web corpus document: {exc}") from None

    X = columns["X"]
    if not all(isinstance(i, str) for i in columns["query_ids"] + columns["member_ids"]):
        raise ParseError(f"{path}: query and member ids must be strings")
    if X.dtype.kind not in "fiu" or d < 1 or X.shape != (len(members), d):
        raise ParseError(f"{path}: every member needs {d} numeric features")
    if hidden.count(None) not in (0, len(hidden)) or ("true_labels_hidden" in columns and [
            len(labels) for labels in hidden] != np.diff(columns["offsets"]).tolist()):
        raise ParseError(f"{path}: true_labels_hidden must be null in every bag or "
                         "hold one label per member in every bag")
    try:
        return WebCorpus(num_classes=k, **columns)
    except (ValidationError, OverflowError) as exc:   # OverflowError: int64 columns
        raise ParseError(f"{path}: {exc}") from None
