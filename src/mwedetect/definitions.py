"""First-definition lexicon and definition embeddings.

A definition embedding is the elementwise sum of the embedding vectors of
the tokens in a lexeme's first dictionary definition, optionally with stop
words filtered out first.
"""

from __future__ import annotations

import logging
import os
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ._io import text_lines
from .corpus import tokenize
from .embeddings import EmbeddingTable
from .errors import LexiconFormatError

logger = logging.getLogger(__name__)

# Reason codes for an absent definition embedding.
NO_DEFINITION = "no-definition"
ALL_OOV = "all-oov"
ALL_STOPWORDS = "all-stopwords"


@dataclass(frozen=True)
class DefinitionLexicon:
    """Lexeme -> tokens of its first definition, all lowercase."""

    entries: dict[str, tuple[str, ...]]

    def get(self, lexeme: str) -> tuple[str, ...] | None:
        return self.entries.get(lexeme.lower())

    def __contains__(self, lexeme: str) -> bool:
        return lexeme.lower() in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def load_definitions(source: str | os.PathLike | Iterable[str]) -> DefinitionLexicon:
    """Parse a `lexeme<TAB>definition` stream into a DefinitionLexicon.

    When a lexeme repeats, only its first line is kept: the lexicon stores
    first definitions only. Definition text is run through the corpus
    tokenizer, so entries hold lowercase alphabetic tokens.
    """
    entries: dict[str, tuple[str, ...]] = {}
    with text_lines(source, LexiconFormatError) as lines:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise LexiconFormatError(f"line {lineno}: expected `lexeme<TAB>definition`")
            lexeme, definition = line.split("\t", 1)
            lexeme = lexeme.strip().lower()
            if not lexeme:
                raise LexiconFormatError(f"line {lineno}: empty lexeme")
            if lexeme.split() != [lexeme]:
                raise LexiconFormatError(f"line {lineno}: lexeme contains whitespace: {lexeme!r}")
            if lexeme in entries:
                continue
            tokens = tokenize(definition)
            if not tokens:
                raise LexiconFormatError(f"line {lineno}: definition has no usable tokens")
            entries[lexeme] = tokens
    return DefinitionLexicon(entries=entries)


def load_stopwords(source: str | os.PathLike | Iterable[str]) -> frozenset[str]:
    """Read one stop word per line into a lowercase set; blank lines are skipped."""
    words: set[str] = set()
    with text_lines(source, LexiconFormatError) as lines:
        for lineno, raw in enumerate(lines, start=1):
            word = raw.strip()
            if not word:
                continue
            if word.split() != [word]:
                raise LexiconFormatError(f"line {lineno}: stop word contains whitespace: {word!r}")
            words.add(word.lower())
    return frozenset(words)


def definition_embedding(
    lexicon: DefinitionLexicon,
    table: EmbeddingTable,
    lexeme: str,
    stopwords: frozenset[str] | set[str] | None = None,
) -> tuple[np.ndarray | None, str | None]:
    """Sum the embeddings of a lexeme's definition tokens.

    Stop words (when a set is given) are filtered first, then tokens absent
    from the embedding table are dropped; what remains is summed in
    definition order. Returns ``(vector, None)`` on success and
    ``(None, reason)`` otherwise, with reason one of ``no-definition``,
    ``all-stopwords``, or ``all-oov``. Dropped out-of-vocabulary tokens are
    counted at debug level only; they never fail the whole definition.
    """
    tokens = lexicon.get(lexeme)
    if tokens is None:
        return None, NO_DEFINITION
    if stopwords is not None:
        kept = [t for t in tokens if t not in stopwords]
        if not kept:
            return None, ALL_STOPWORDS
    else:
        kept = list(tokens)
    vectors = [vec for vec in map(table.lookup, kept) if vec is not None]
    if not vectors:
        return None, ALL_OOV
    dropped = len(kept) - len(vectors)
    if dropped:
        logger.debug("definition of %r: %d token(s) out of vocabulary", lexeme, dropped)
    # Added left to right into a copy of the first row, so the sum is
    # bit-deterministic for a given definition.
    total = np.array(vectors[0], dtype=np.float64)
    for vec in vectors[1:]:
        total += vec
    return total, None


__all__ = [
    "DefinitionLexicon",
    "load_definitions",
    "load_stopwords",
    "definition_embedding",
    "NO_DEFINITION",
    "ALL_OOV",
    "ALL_STOPWORDS",
]
