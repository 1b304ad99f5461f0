"""The per-pair similarity score and the threshold judgement.

Every method scores a candidate pair the same way: the cosine between the
vectors that represent its two lexemes. The methods differ only in which
vector a lexeme gets:

* word similarity: the lexeme's own embedding;
* definition similarity: the summed embeddings of its first definition;
* definition content similarity: the same definition sum after stop-word
  filtering.

Low similarity signals non-compositionality, so a score strictly below the
threshold is judged a compound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .definitions import ALL_OOV, ALL_STOPWORDS, NO_DEFINITION, DefinitionLexicon, definition_embedding
from .embeddings import EmbeddingTable, cosine
from .errors import ZeroNormError
from .pairs import LexemePair

LEFT_OOV = "left-oov"
RIGHT_OOV = "right-oov"
ZERO_NORM = "zero-norm"

UNSCORABLE_REASONS = frozenset(
    {LEFT_OOV, RIGHT_OOV, NO_DEFINITION, ALL_OOV, ALL_STOPWORDS, ZERO_NORM}
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


def score_pair(
    method: ScoreMethod,
    table: EmbeddingTable,
    lexicon: DefinitionLexicon | None,
    stopwords: frozenset[str] | set[str] | None,
    pair: LexemePair,
) -> ScoreOutcome:
    """Cosine of the two lexemes' vectors under ``method``.

    A side without a vector makes the pair unscorable with that side's
    reason, the left side's first. ``lexicon`` is required for the
    definition-based methods. ``stopwords`` is used only for definition
    content similarity; a missing set filters nothing, which makes it
    identical to definition similarity.
    """
    if method is not ScoreMethod.WORD_SIMILARITY and lexicon is None:
        raise ValueError(f"method {method.value!r} needs a definition lexicon")
    if method is not ScoreMethod.DEFINITION_CONTENT_SIMILARITY:
        stopwords = None

    vectors = []
    for lexeme, oov_reason in ((pair.left, LEFT_OOV), (pair.right, RIGHT_OOV)):
        if method is ScoreMethod.WORD_SIMILARITY:
            vector, reason = table.lookup(lexeme), oov_reason
        else:
            vector, reason = definition_embedding(lexicon, table, lexeme, stopwords)
        if vector is None:
            return ScoreOutcome.unscorable(reason)
        vectors.append(vector)
    try:
        return ScoreOutcome.scored(cosine(*vectors))
    except ZeroNormError:
        return ScoreOutcome.unscorable(ZERO_NORM)


def classify(outcome: ScoreOutcome, threshold: float) -> Judgement:
    """Strictly-below-threshold rule: value < threshold means compound.

    The boundary value itself is NOT_COMPOUND; an absent value is
    UNSCORABLE. The threshold must lie in [-1, 1].
    """
    if not -1.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside [-1, 1]")
    if outcome.value is None:
        return Judgement.UNSCORABLE
    return Judgement.COMPOUND if outcome.value < threshold else Judgement.NOT_COMPOUND


__all__ = [
    "LexemePair",
    "ScoreMethod",
    "Judgement",
    "ScoreOutcome",
    "score_pair",
    "classify",
    "LEFT_OOV",
    "RIGHT_OOV",
    "ZERO_NORM",
    "UNSCORABLE_REASONS",
]
