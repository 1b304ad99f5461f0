"""The similarity score of word pairs and the threshold judgement.

Every method scores a candidate pair the same way: the cosine between the
vectors that represent its two lexemes. The methods differ only in which
vector a lexeme gets:

* word similarity: the lexeme's own embedding;
* definition similarity: the summed embeddings of its first definition;
* definition content similarity: the same definition sum after stop-word
  filtering.

``score_ids`` is the one scorer: lexeme ids in, a value array and a reason
array out. ``is_compound`` is the one decision rule: a score strictly below
the threshold, the mark of non-compositionality, is a compound.
Many ``LexemePair`` objects are scored as
``score_ids(method, table, lexicon, stopwords, *lexeme_ids(pairs))``;
``score_pair``, ``ScoreOutcome`` and ``classify`` wrap the two for one pair.
"""

from __future__ import annotations

import enum
import logging
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from . import definitions
from .definitions import (
    DEFINITION_REASONS,
    DefinitionLexicon,
    DefinitionRows,
    definition_sums,
    resolve_definitions,
)
from .definitions import definition_embedding  # noqa: F401  bound here for perfbench's hook
from .embeddings import EmbeddingTable, row_cosines
from .embeddings import cosine  # noqa: F401  bound here for perfbench's scoring.cosine hook
from .errors import ConfigError
from .pairs import LexemePair

logger = logging.getLogger(__name__)

LEFT_OOV = "left-oov"
RIGHT_OOV = "right-oov"
ZERO_NORM = "zero-norm"
NON_FINITE = "non-finite"

# The reasons a pair may be unscorable. In a reason array, 0 means scored
# and k names UNSCORABLE_REASONS[k - 1].
UNSCORABLE_REASONS = (*DEFINITION_REASONS, LEFT_OOV, RIGHT_OOV, ZERO_NORM, NON_FINITE)


class ScoreMethod(enum.Enum):
    WORD_SIMILARITY = "word"
    DEFINITION_SIMILARITY = "definition"
    DEFINITION_CONTENT_SIMILARITY = "definition-content"


class Judgement(enum.Enum):
    COMPOUND = "compound"
    NOT_COMPOUND = "not-compound"
    UNSCORABLE = "unscorable"


@dataclass(frozen=True)
class ScoreOutcome:
    """Either a similarity value in [-1, 1] or a reason it could not be computed."""

    value: float | None = None
    unscorable_reason: str | None = None

    def __post_init__(self) -> None:
        if (self.value is None) == (self.unscorable_reason is None):
            raise ValueError("exactly one of value / unscorable_reason must be set")
        if self.value is not None and not -1.0 <= self.value <= 1.0:
            raise ValueError(f"similarity value {self.value} outside [-1, 1]")
        if self.unscorable_reason is not None and self.unscorable_reason not in UNSCORABLE_REASONS:
            raise ValueError(f"unknown unscorable reason: {self.unscorable_reason!r}")

    @classmethod
    def scored(cls, value: float) -> ScoreOutcome:
        return cls(value=value)

    @classmethod
    def unscorable(cls, reason: str) -> ScoreOutcome:
        return cls(unscorable_reason=reason)

    @property
    def is_scorable(self) -> bool:
        return self.value is not None


def lexeme_ids(pairs: Iterable[LexemePair]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The distinct lexemes of ``pairs``, first seen first, and each pair's two ids."""
    ids: dict[str, int] = {}
    sides = [(ids.setdefault(p.left, len(ids)), ids.setdefault(p.right, len(ids))) for p in pairs]
    left, right = np.array(sides, np.intp).reshape(-1, 2).T
    return list(ids), left, right


def score_ids(
    method: ScoreMethod,
    table: EmbeddingTable,
    lexicon: DefinitionLexicon | None,
    stopwords: frozenset[str] | set[str] | None,
    lexemes: Sequence[str],
    left: np.ndarray,
    right: np.ndarray,
    resolved: DefinitionRows | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Cosine of the two lexemes' vectors under ``method``, for each pair of ids.

    Pair i is ``(lexemes[left[i]], lexemes[right[i]])``. Returns float64
    values in [-1, 1], NaN where the pair is unscorable, and int8 reason
    codes into ``UNSCORABLE_REASONS``, 0 where it is scored. Each lexeme's
    vector is a row of one matrix: the table's own for word similarity,
    ``definition_sums`` otherwise, from ``resolved`` when given. Pairs are
    scored in blocks of ``definitions.BLOCK_ROWS`` rows, read at the call,
    by ``row_cosines``, bit-identical to ``cosine``. A side without a vector
    gives that side's reason, the left side's first; then come
    ``zero-norm`` and ``non-finite``.
    ``stopwords`` is used only for definition content similarity; without a
    set it is identical to definition similarity, and one warning says so.
    """
    if method is not ScoreMethod.WORD_SIMILARITY and lexicon is None:
        raise ConfigError(f"method {method.value!r} needs a definition lexicon")
    code = {reason: k for k, reason in enumerate(UNSCORABLE_REASONS, start=1)}
    # Each lexeme's row of ``matrix``, or minus the code of why it has none.
    if method is ScoreMethod.WORD_SIMILARITY:
        matrix = table.matrix
        rows = np.fromiter(
            (table.index.get(lexeme.lower(), -code[LEFT_OOV]) for lexeme in lexemes),
            np.intp,
            len(lexemes),
        )
    else:
        content = method is ScoreMethod.DEFINITION_CONTENT_SIMILARITY
        if content and stopwords is None:
            logger.warning("definition-content without a stop-word set scores as definition")
        if resolved is None:
            resolved = resolve_definitions(lexicon, table, lexemes, stopwords if content else None)
        # A definition sum that overflows is reported below as non-finite,
        # so numpy's overflow warning is noise.
        with np.errstate(over="ignore"):
            matrix, rows = definition_sums(resolved, table, content)

    left_rows, right_rows = rows[left], rows[right]
    right_reasons = np.where(right_rows < 0, -right_rows, 0)
    right_reasons[right_reasons == code[LEFT_OOV]] = code[RIGHT_OOV]
    reasons = np.where(left_rows < 0, -left_rows, right_reasons).astype(np.int8)
    values = np.full(len(reasons), np.nan)
    scorable = np.flatnonzero(reasons == 0)
    block_rows = definitions.BLOCK_ROWS
    for start in range(0, len(scorable), block_rows):
        block = scorable[start : start + block_rows]
        values[block], zero_norm = row_cosines(
            matrix[left_rows[block]], matrix[right_rows[block]]
        )
        reasons[block[np.isnan(values[block])]] = code[NON_FINITE]
        reasons[block[zero_norm]] = code[ZERO_NORM]
    return values, reasons


def score_pair(
    method: ScoreMethod,
    table: EmbeddingTable,
    lexicon: DefinitionLexicon | None,
    stopwords: frozenset[str] | set[str] | None,
    pair: LexemePair,
) -> ScoreOutcome:
    """``score_ids`` of one pair, as a ScoreOutcome."""
    values, reasons = score_ids(method, table, lexicon, stopwords, *lexeme_ids((pair,)))
    reason = int(reasons[0])
    if reason:
        return ScoreOutcome.unscorable(UNSCORABLE_REASONS[reason - 1])
    return ScoreOutcome.scored(float(values[0]))


def is_compound(values: np.ndarray, threshold: float) -> np.ndarray:
    """Strictly-below-threshold rule: True where value < threshold.

    The boundary value itself is not a compound, and neither is NaN, the
    value of an unscorable pair. Any finite threshold is accepted, including
    one outside [-1, 1] from a degenerate calibration, which judges every
    scored pair alike.
    """
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    return np.asarray(values, dtype=np.float64) < threshold


def classify(outcome: ScoreOutcome, threshold: float) -> Judgement:
    """``is_compound`` of one outcome; an absent value is UNSCORABLE."""
    compound = is_compound(np.nan if outcome.value is None else outcome.value, threshold)
    if outcome.value is None:
        return Judgement.UNSCORABLE
    return Judgement.COMPOUND if compound else Judgement.NOT_COMPOUND


__all__ = [
    "ScoreMethod",
    "Judgement",
    "ScoreOutcome",
    "lexeme_ids",
    "score_ids",
    "score_pair",
    "is_compound",
    "classify",
    "LEFT_OOV",
    "RIGHT_OOV",
    "ZERO_NORM",
    "NON_FINITE",
    "UNSCORABLE_REASONS",
]
