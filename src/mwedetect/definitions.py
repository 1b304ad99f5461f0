"""First-definition lexicon and definition embeddings.

A definition embedding is the elementwise sum of the embedding vectors of
the tokens in a lexeme's first dictionary definition, optionally with stop
words filtered out first.
"""

from __future__ import annotations

import itertools
import logging
import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from ._io import text_lines
from .corpus import has_token, tokenize
from .embeddings import EmbeddingTable
from .errors import LexiconFormatError

logger = logging.getLogger(__name__)

# Reason codes for an absent definition embedding.
NO_DEFINITION = "no-definition"
ALL_OOV = "all-oov"
ALL_STOPWORDS = "all-stopwords"

# Definition sums are taken, and pairs scored, this many rows at a time,
# which bounds the memory of the gathered rows on scans of many bigrams.
BLOCK_ROWS = 4096


@dataclass(frozen=True)
class DefinitionLexicon:
    """Lexeme (lowercase) -> the text of its first definition.

    The text is tokenized only when a lexeme's tokens are asked for, so a
    run pays for the definitions it scores, not for the whole lexicon.
    """

    definitions: dict[str, str]

    def get(self, lexeme: str) -> tuple[str, ...] | None:
        """The lowercase alphabetic tokens of ``lexeme``'s definition, or None."""
        definition = self.definitions.get(lexeme.lower())
        return None if definition is None else tokenize(definition)

    def __contains__(self, lexeme: str) -> bool:
        return lexeme.lower() in self.definitions

    def __len__(self) -> int:
        return len(self.definitions)


def load_definitions(source: str | os.PathLike | Iterable[str]) -> DefinitionLexicon:
    """Parse a `lexeme<TAB>definition` stream into a DefinitionLexicon.

    When a lexeme repeats, only its first line is kept: the lexicon stores
    first definitions only. A definition must hold at least one token of
    the corpus tokenizer, which ``DefinitionLexicon.get`` applies to it.
    """
    definitions: dict[str, str] = {}
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
            if lexeme in definitions:
                continue
            if not has_token(definition):
                raise LexiconFormatError(f"line {lineno}: definition has no usable tokens")
            definitions[lexeme] = definition
    return DefinitionLexicon(definitions=definitions)


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


def definition_embeddings(
    lexicon: DefinitionLexicon,
    table: EmbeddingTable,
    lexemes: Sequence[str],
    stopwords: frozenset[str] | set[str] | None,
) -> tuple[np.ndarray, list[int | str]]:
    """Sum the embeddings of each lexeme's definition tokens, as rows of one matrix.

    Stop words (when a set is given) are filtered first, then tokens absent
    from the embedding table are dropped; what remains is summed in
    definition order. Returns ``(matrix, where)``: ``where[i]`` is the row
    of ``matrix`` holding the sum for ``lexemes[i]``, or the reason it has
    none, one of ``no-definition``, ``all-stopwords`` or ``all-oov`` in that
    order of precedence. Dropped out-of-vocabulary tokens are counted at
    debug level only; they never fail the whole definition.

    Each sum adds its tokens' rows to a copy of the first, left to right,
    so it is bit-deterministic for a given definition. The sums are taken
    ``BLOCK_ROWS`` lexemes at a time: the j-th token rows of a block are
    added at once, to the lexemes whose definitions have a j-th token.
    """
    where: list[int | str] = []
    token_rows: list[list[int]] = []
    for lexeme in lexemes:
        tokens = lexicon.get(lexeme)
        if tokens is None:
            where.append(NO_DEFINITION)
            continue
        if stopwords is not None:
            tokens = [t for t in tokens if t not in stopwords]
            if not tokens:
                where.append(ALL_STOPWORDS)
                continue
        # Tokens are lowercase, as the table's are, so no lookup lowercases.
        rows = [row for row in map(table.index.get, tokens) if row is not None]
        if not rows:
            where.append(ALL_OOV)
            continue
        dropped = len(tokens) - len(rows)
        if dropped:
            logger.debug("definition of %r: %d token(s) out of vocabulary", lexeme, dropped)
        where.append(len(token_rows))
        token_rows.append(rows)

    # Longest definitions first, so in each block the lexemes that have a
    # j-th token are a prefix of the block.
    lengths = np.fromiter(map(len, token_rows), dtype=np.intp, count=len(token_rows))
    order = np.argsort(-lengths, kind="stable")
    flat = np.fromiter(
        itertools.chain.from_iterable(token_rows), dtype=np.intp, count=int(lengths.sum())
    )
    firsts = np.cumsum(lengths) - lengths  # where each definition's rows start in ``flat``
    sums = np.empty((len(token_rows), table.dimension))
    for start in range(0, len(order), BLOCK_ROWS):
        block = order[start : start + BLOCK_ROWS]
        block_firsts, block_lengths = firsts[block], lengths[block]
        block_sums = table.matrix[flat[block_firsts]]
        for j in range(1, int(block_lengths[0])):
            have = np.count_nonzero(block_lengths > j)
            block_sums[:have] += table.matrix[flat[block_firsts[:have] + j]]
        sums[block] = block_sums
    return sums, where


def definition_embedding(
    lexicon: DefinitionLexicon,
    table: EmbeddingTable,
    lexeme: str,
    stopwords: frozenset[str] | set[str] | None = None,
) -> tuple[np.ndarray | None, str | None]:
    """``definition_embeddings`` of one lexeme.

    Returns ``(vector, None)`` on success and ``(None, reason)`` otherwise.
    """
    sums, (where,) = definition_embeddings(lexicon, table, (lexeme,), stopwords)
    if isinstance(where, str):
        return None, where
    return sums[where], None


__all__ = [
    "DefinitionLexicon",
    "load_definitions",
    "load_stopwords",
    "definition_embeddings",
    "definition_embedding",
    "NO_DEFINITION",
    "ALL_OOV",
    "ALL_STOPWORDS",
]
