"""First-definition lexicon and definition embeddings.

A definition embedding is the elementwise sum of the embedding vectors of
the tokens in a lexeme's first dictionary definition, optionally with stop
words filtered out first. ``resolve_definitions`` tokenizes the definitions
a run needs once, into flat table rows and a stop-word mask, and
``definition_sums`` sums them for either definition method.
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


@dataclass(frozen=True, eq=False)
class DefinitionRows:
    """The definitions of a list of lexemes, each tokenized and looked up once.

    ``rows`` holds the table row of every definition token, lexeme after
    lexeme, -1 where the table lacks the token; ``stop`` flags its stop
    words, or is None without a stop-word set. ``lengths[i]`` is the token
    count of the i-th lexeme's definition, -1 when it has none.
    """

    rows: np.ndarray
    stop: np.ndarray | None
    lengths: np.ndarray


def resolve_definitions(
    lexicon: DefinitionLexicon,
    table: EmbeddingTable,
    lexemes: Sequence[str],
    stopwords: frozenset[str] | set[str] | None,
) -> DefinitionRows:
    """Tokenize each lexeme's definition; look its tokens up in ``table`` and ``stopwords``."""
    definitions = [lexicon.get(lexeme) for lexeme in lexemes]
    lengths = np.fromiter((-1 if d is None else len(d) for d in definitions), np.intp, len(lexemes))
    tokens = list(itertools.chain.from_iterable(d for d in definitions if d is not None))
    # Tokens are lowercase, as the table's are, so no lookup lowercases.
    rows = np.fromiter(map(table.index.get, tokens, itertools.repeat(-1)), np.intp, len(tokens))
    stop = None
    if stopwords is not None:
        stop = np.fromiter(map(stopwords.__contains__, tokens), bool, len(tokens))
    return DefinitionRows(rows=rows, stop=stop, lengths=lengths)


def definition_sums(
    resolved: DefinitionRows, table: EmbeddingTable, content: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Sum the embeddings of each lexeme's definition tokens, as rows of one matrix.

    With ``content`` and a stop-word set, stop words are filtered first;
    then tokens absent from the table are dropped, and what remains is
    summed in definition order. Returns ``(matrix, where)``: ``where[i]`` is
    the row of ``matrix`` holding the i-th lexeme's sum, or minus the code
    of the reason it has none: 1 for ``no-definition``, 2 for
    ``all-stopwords``, 3 for ``all-oov``, in that order of precedence.
    Dropped out-of-vocabulary tokens are counted at debug level only.

    Each sum adds its tokens' rows to a copy of the first, left to right,
    so it is bit-deterministic for a given definition. The sums are taken
    ``BLOCK_ROWS`` lexemes at a time: the j-th token rows of a block are
    added at once, to the lexemes whose definitions have a j-th token.
    """
    sizes = np.maximum(resolved.lengths, 0)
    ends = np.cumsum(sizes)

    def per_lexeme(flags: np.ndarray) -> np.ndarray:
        running = np.concatenate(([0], np.cumsum(flags)))
        return running[ends] - running[ends - sizes]

    filtered = content and resolved.stop is not None
    keep = resolved.rows >= 0
    if filtered:
        keep &= ~resolved.stop
    lengths = per_lexeme(keep)
    where = np.where(resolved.lengths < 0, -1, -3)
    if filtered:
        where[(resolved.lengths >= 0) & (per_lexeme(~resolved.stop) == 0)] = -2
    summed = np.flatnonzero(lengths)
    where[summed] = np.arange(len(summed))
    if logger.isEnabledFor(logging.DEBUG):
        considered = per_lexeme(~resolved.stop) if filtered else sizes
        dropped = int((considered - lengths)[summed].sum())
        logger.debug("definition sums: %d token(s) out of vocabulary dropped", dropped)

    # Longest definitions first, so in each block the lexemes that have a
    # j-th token are a prefix of the block.
    flat = resolved.rows[keep]
    lengths = lengths[summed]
    order = np.argsort(-lengths, kind="stable")
    firsts = np.cumsum(lengths) - lengths  # where each definition's rows start in ``flat``
    sums = np.empty((len(summed), table.dimension))
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
    """``definition_sums`` of one lexeme, stop words filtered when a set is given.

    Returns ``(vector, None)`` on success and ``(None, reason)`` otherwise.
    """
    resolved = resolve_definitions(lexicon, table, (lexeme,), stopwords)
    sums, (where,) = definition_sums(resolved, table, content=True)
    if where < 0:
        return None, (NO_DEFINITION, ALL_STOPWORDS, ALL_OOV)[-where - 1]
    return sums[where], None


__all__ = [
    "DefinitionLexicon",
    "DefinitionRows",
    "resolve_definitions",
    "definition_sums",
    "load_definitions",
    "load_stopwords",
    "definition_embedding",
    "NO_DEFINITION",
    "ALL_OOV",
    "ALL_STOPWORDS",
]
