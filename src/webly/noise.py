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

from .data import (WebCorpus, _reject, canonical_json, check_fields, check_row_stochastic,
                   flatten_web, integer, reals)
from .errors import ParseError, ValidationError, named
from .model import ModelParams, check_fit, fingerprint, predict


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
class TransitionDiagnostics:
    row_sums: np.ndarray
    diagonally_dominant: list[bool]
    all_rows_dominant: bool


def estimate_transition(oracle: ModelParams, corpus: WebCorpus,
                        corpus_fingerprint: str | None = None) -> TransitionMatrix:
    """Stack the oracle's posteriors on the class representatives as rows.

    One ``predict`` pass scores every member in flattened corpus order; exact
    ties go to the lowest flattened index.  The matrix is estimated once,
    globally; callers hold it fixed during training.  A caller that already
    holds ``fingerprint(corpus)`` passes it, so the corpus is not hashed again.
    A corpus that does not fit the oracle (``check_fit``) raises
    ValidationError, as does a member whose posterior is not finite, naming it.
    """
    check_fit(oracle.config, corpus)  # before flatten_web, which ticks access_count
    flat = flatten_web(corpus)
    posteriors = predict(oracle, flat)
    _reject(~np.isfinite(posteriors).all(axis=1), flat.ids,
            "web member {id!r}: its features overflow the oracle (non-finite posterior)")
    reps = posteriors.argmax(axis=0)
    provenance = {
        "oracle": fingerprint(oracle),
        "corpus": corpus_fingerprint or fingerprint(corpus),
        "representatives": {str(c): flat.ids[i] for c, i in enumerate(reps.tolist())},
    }
    return TransitionMatrix(entries=posteriors[reps], provenance=provenance)


def validate_transition(t: TransitionMatrix) -> TransitionDiagnostics:
    """Row sums and per-row diagonal dominance, for inspection; no mutation.

    A row is diagonally dominant when its diagonal entry strictly exceeds every
    off-diagonal entry in that row (vacuously so for a 1 x 1 matrix).
    """
    entries = t.entries
    off = np.where(np.eye(t.k, dtype=bool), -np.inf, entries)
    dominant = (np.diagonal(entries) > off.max(axis=1)).tolist()
    return TransitionDiagnostics(row_sums=entries.sum(axis=1),
                                 diagonally_dominant=dominant,
                                 all_rows_dominant=all(dominant))


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
        check_fields(doc, {"k": integer(1), "rows": reals((2,), "equal-length lists of numbers"),
                           "provenance": (lambda v: isinstance(v, dict), "an object")})
    except (KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and ragged rows
        raise ParseError(f"{path}: malformed transition document: {exc!r}") from None
    if entries.shape != (k, k):
        raise ParseError(f"{path}: rows shape {entries.shape} != k={k!r}")
    with named(f"{path}: ", ParseError):
        return TransitionMatrix(entries=entries, provenance=provenance)
