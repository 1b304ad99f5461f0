"""The per-pair similarity score and the threshold judgement.

Every method scores a candidate pair the same way: the cosine between the
vectors that represent its two lexemes. The methods differ only in which
vector a lexeme gets:

* word similarity: the lexeme's own embedding;
* definition similarity: the summed embeddings of its first definition;
* definition content similarity: the same definition sum after stop-word
  filtering.

``score_pairs`` gets each distinct lexeme's vector once and scores a batch
of pairs by row-wise cosine; ``score_pair`` is its one-pair case.

Low similarity signals non-compositionality, so a score strictly below the
threshold is judged a compound.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .definitions import (
    ALL_OOV,
    ALL_STOPWORDS,
    BLOCK_ROWS,
    NO_DEFINITION,
    DefinitionLexicon,
    definition_embeddings,
)
from .definitions import definition_embedding  # noqa: F401  bound here for perfbench's hook
from .embeddings import EmbeddingTable, row_cosines
from .embeddings import cosine  # noqa: F401  bound here for perfbench's scoring.cosine hook
from .pairs import LexemePair

LEFT_OOV = "left-oov"
RIGHT_OOV = "right-oov"
ZERO_NORM = "zero-norm"
NON_FINITE = "non-finite"

UNSCORABLE_REASONS = frozenset(
    {LEFT_OOV, RIGHT_OOV, NO_DEFINITION, ALL_OOV, ALL_STOPWORDS, ZERO_NORM, NON_FINITE}
)


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


def score_pairs(
    method: ScoreMethod,
    table: EmbeddingTable,
    lexicon: DefinitionLexicon | None,
    stopwords: frozenset[str] | set[str] | None,
    pairs: Sequence[LexemePair],
) -> list[ScoreOutcome]:
    """Cosine of the two lexemes' vectors under ``method``, for each pair.

    Each distinct lexeme's vector is a row of one matrix: the table's own
    for word similarity, the sums of ``definition_embeddings`` otherwise. The
    pairs are then scored in blocks of ``BLOCK_ROWS`` gathered rows by
    ``row_cosines``, so every score is bit-identical to ``cosine`` of the
    two vectors. A side without a vector makes the pair unscorable with that
    side's reason, the left side's first; then come ``zero-norm`` and
    ``non-finite``. ``lexicon`` is required for the definition-based
    methods. ``stopwords`` is used only for definition content similarity; a
    missing set filters nothing, which makes it identical to definition
    similarity.
    """
    if method is not ScoreMethod.WORD_SIMILARITY and lexicon is None:
        raise ValueError(f"method {method.value!r} needs a definition lexicon")
    if method is not ScoreMethod.DEFINITION_CONTENT_SIMILARITY:
        stopwords = None

    lexemes = list(dict.fromkeys(lexeme for pair in pairs for lexeme in (pair.left, pair.right)))
    # Each lexeme's row of ``matrix``, or why it has none: a reason, or None
    # for a word missing from the table, whose reason depends on its side.
    if method is ScoreMethod.WORD_SIMILARITY:
        matrix = table.matrix
        where = [table.index.get(lexeme.lower()) for lexeme in lexemes]
    else:
        # A definition sum that overflows is reported below as non-finite,
        # so numpy's overflow warning is noise.
        with np.errstate(over="ignore"):
            matrix, where = definition_embeddings(lexicon, table, lexemes, stopwords)
    index = dict(zip(lexemes, where))

    outcomes: list[ScoreOutcome | None] = []
    scorable, left_rows, right_rows = [], [], []
    for position, pair in enumerate(pairs):
        left, right = index[pair.left], index[pair.right]
        if not isinstance(left, int):
            outcomes.append(ScoreOutcome.unscorable(left or LEFT_OOV))
        elif not isinstance(right, int):
            outcomes.append(ScoreOutcome.unscorable(right or RIGHT_OOV))
        else:
            outcomes.append(None)
            scorable.append(position)
            left_rows.append(left)
            right_rows.append(right)

    for start in range(0, len(scorable), BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        values, zero_norm = row_cosines(matrix[left_rows[block]], matrix[right_rows[block]])
        for position, value, zero in zip(scorable[block], values.tolist(), zero_norm.tolist()):
            if zero:
                outcomes[position] = ScoreOutcome.unscorable(ZERO_NORM)
            elif math.isnan(value):
                outcomes[position] = ScoreOutcome.unscorable(NON_FINITE)
            else:
                outcomes[position] = ScoreOutcome.scored(value)
    return outcomes


def score_pair(
    method: ScoreMethod,
    table: EmbeddingTable,
    lexicon: DefinitionLexicon | None,
    stopwords: frozenset[str] | set[str] | None,
    pair: LexemePair,
) -> ScoreOutcome:
    """``score_pairs`` of one pair."""
    return score_pairs(method, table, lexicon, stopwords, (pair,))[0]


def classify(outcome: ScoreOutcome, threshold: float) -> Judgement:
    """Strictly-below-threshold rule: value < threshold means compound.

    The boundary value itself is NOT_COMPOUND; an absent value is
    UNSCORABLE. Any finite threshold is accepted, including one outside
    [-1, 1] from a degenerate calibration, which judges every scored pair
    alike.
    """
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    if outcome.value is None:
        return Judgement.UNSCORABLE
    return Judgement.COMPOUND if outcome.value < threshold else Judgement.NOT_COMPOUND


__all__ = [
    "ScoreMethod",
    "Judgement",
    "ScoreOutcome",
    "score_pairs",
    "score_pair",
    "classify",
    "LEFT_OOV",
    "RIGHT_OOV",
    "ZERO_NORM",
    "NON_FINITE",
    "UNSCORABLE_REASONS",
]
