"""Noise-transition estimation from an oracle model's predictions on web data.

For each class the most representative web member is the one maximizing the
oracle's posterior for that class, searched over every member in the corpus
regardless of transferred label.  The estimated transition matrix takes the
oracle's full posterior vector on class i's representative as its row i, so
rows are posterior vectors and the matrix is row-stochastic by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import WebCorpus, canonical_json, check_row_stochastic, flatten_web
from .errors import ParseError, ValidationError
from .model import ModelParams, fingerprint, forward


@dataclass
class TransitionMatrix:
    """K x K row-stochastic matrix of estimated class-confusion probabilities,
    or an (M, K, K) stack of them, one per member of a lockstep stage."""

    entries: np.ndarray
    provenance: dict

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.float64)
        check_row_stochastic(self.entries, "transition")

    @property
    def k(self) -> int:
        return self.entries.shape[-1]


@dataclass
class Representative:
    """The web member whose oracle posterior for ``class_index`` is maximal."""

    class_index: int
    example_id: str
    posterior: np.ndarray


@dataclass
class TransitionDiagnostics:
    row_sums: np.ndarray
    diagonally_dominant: list[bool]
    all_rows_dominant: bool
    entries: np.ndarray


def mine_representatives(oracle: ModelParams, corpus: WebCorpus) -> list[Representative]:
    """Pick, per class, the member with the highest oracle posterior for it.

    The argmax runs over all members in flattened corpus order; exact ties go
    to the lowest flattened index.
    """
    if oracle.config.num_classes != corpus.num_classes:
        raise ValidationError(
            f"oracle has {oracle.config.num_classes} classes, corpus has "
            f"{corpus.num_classes}"
        )
    flat = flatten_web(corpus)
    posteriors, _ = forward(oracle, flat.X, train=False)
    reps = []
    for c in range(corpus.num_classes):
        idx = int(np.argmax(posteriors[:, c]))
        reps.append(Representative(class_index=c,
                                   example_id=flat.ids[idx],
                                   posterior=posteriors[idx].copy()))
    return reps


def estimate_transition(oracle: ModelParams, corpus: WebCorpus) -> TransitionMatrix:
    """Stack the representatives' posterior vectors into the transition matrix.

    Row i is the oracle's full posterior on class i's representative.  The
    matrix is estimated once, globally; callers hold it fixed during training.
    """
    reps = mine_representatives(oracle, corpus)
    entries = np.stack([r.posterior for r in reps])
    provenance = {
        "oracle": fingerprint(oracle),
        "corpus": fingerprint(corpus),
        "representatives": {str(r.class_index): r.example_id for r in reps},
    }
    return TransitionMatrix(entries=entries, provenance=provenance)


def validate_transition(t: TransitionMatrix) -> TransitionDiagnostics:
    """Row sums and per-row diagonal dominance, for inspection; no mutation.

    A row is diagonally dominant when its diagonal entry strictly exceeds every
    off-diagonal entry in that row.
    """
    entries = t.entries
    k = t.k
    dominant = []
    for i in range(k):
        off = np.delete(entries[i], i)
        dominant.append(bool(entries[i, i] > off.max()) if k > 1 else True)
    return TransitionDiagnostics(row_sums=entries.sum(axis=1),
                                 diagonally_dominant=dominant,
                                 all_rows_dominant=all(dominant),
                                 entries=entries)


# ---------------------------------------------------------------------------
# JSON export: {k, rows, provenance}; floats carry 17 significant digits so
# the file round-trips to the exact same float64 values.
# ---------------------------------------------------------------------------

def _format_rows(entries: np.ndarray) -> str:
    return "[" + ",".join(
        "[" + ",".join(f"{v:.17g}" for v in row) + "]" for row in entries
    ) + "]"


def save_transition(t: TransitionMatrix, path: str | Path) -> None:
    provenance = canonical_json(t.provenance)
    doc = f'{{"k":{t.k},"provenance":{provenance},"rows":{_format_rows(t.entries)}}}'
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc)


def load_transition(path: str | Path) -> TransitionMatrix:
    """Read a ``save_transition`` file; any defect raises ParseError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        k = doc["k"]
        entries = np.array(doc["rows"], dtype=np.float64)
        provenance = doc.get("provenance", {})
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and ragged rows
        raise ParseError(f"{path}: malformed transition document: {exc!r}") from None
    if entries.shape != (k, k):
        raise ParseError(f"{path}: rows shape {entries.shape} != k={k!r}")
    try:
        return TransitionMatrix(entries=entries, provenance=provenance)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from None
