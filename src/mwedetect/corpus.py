"""Corpus tokenization, bigram statistics, and negative-pair sampling.

The tokenizer keeps only runs of ASCII letters, lowercased; numerals and
punctuation never become tokens. Bigrams are counted as integer codes over
the sorted vocabulary. Both samplers are deterministic given their inputs
and seed.
"""

from __future__ import annotations

import random
import re
from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._io import read_text
from .errors import CorpusError, SamplingError
from .pairs import LexemePair

_TOKEN_RE = re.compile(r"[a-z]+")

# Above this many ordered token pairs, uniform sampling switches from full
# enumeration to seeded rejection sampling.
_ENUMERATION_LIMIT = 1_000_000


@dataclass(frozen=True, eq=False)
class BigramCounts:
    """Adjacent-pair occurrence counts over a token sequence, as integer codes.

    ``vocabulary`` holds the sequence's distinct tokens in sorted order, and
    ``index`` maps each one to its rank there. The bigram ``(left, right)``
    has the code ``rank(left) * V + rank(right)`` with ``V`` the vocabulary
    size, so code order is the lexical ``(left, right)`` order. ``codes``
    holds each observed bigram's code once, ascending, and ``counts`` its
    number of occurrences (int64 arrays of equal length).
    """

    vocabulary: tuple[str, ...]
    codes: np.ndarray
    counts: np.ndarray
    index: dict[str, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.codes)

    def code(self, left: str, right: str) -> int | None:
        """The code of ``(left, right)``, or None when a token is not in the vocabulary."""
        i, j = self.index.get(left), self.index.get(right)
        if i is None or j is None:
            return None
        return i * len(self.vocabulary) + j

    def count(self, left: str, right: str) -> int:
        """How often ``left`` directly precedes ``right``; 0 for an unseen pair."""
        code = self.code(left, right)
        if code is None:
            return 0
        position = int(np.searchsorted(self.codes, code))
        if position < len(self.codes) and self.codes[position] == code:
            return int(self.counts[position])
        return 0

    def pairs(self, codes: np.ndarray) -> list[LexemePair]:
        """The bigram of each code in ``codes``, in the same order."""
        vocabulary = self.vocabulary
        lefts, rights = np.divmod(codes, len(vocabulary))
        return [
            LexemePair(vocabulary[i], vocabulary[j])
            for i, j in zip(lefts.tolist(), rights.tolist())
        ]


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase ``text`` and split it on every non-alphabetic character."""
    return tuple(_TOKEN_RE.findall(text.lower()))


def has_token(text: str) -> bool:
    """Whether ``tokenize(text)`` is non-empty, without building its tokens."""
    return _TOKEN_RE.search(text.lower()) is not None


def read_corpus(path: str | Path) -> tuple[str, ...]:
    """Tokenize a UTF-8 text file, or every file under a directory.

    Directory contents are concatenated in lexicographic path order with a
    newline between files, then tokenized as one sequence.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(p for p in path.rglob("*") if p.is_file())
        if not files:
            raise CorpusError(f"corpus directory contains no files: {path}")
        text = "\n".join(read_text(p, CorpusError) for p in files)
    else:
        text = read_text(path, CorpusError)
    return tokenize(text)


def build_bigram_counts(tokens: Sequence[str]) -> BigramCounts:
    """Count every adjacent token pair; n tokens yield n-1 observations.

    Each token becomes its rank in the sorted vocabulary, each adjacent pair
    of ranks one int64 code, and ``np.unique`` counts the codes.
    """
    vocabulary = tuple(sorted(set(tokens)))
    index = dict(zip(vocabulary, range(len(vocabulary))))
    ids = np.fromiter(map(index.__getitem__, tokens), np.int64, count=len(tokens))
    codes, counts = np.unique(ids[:-1] * len(vocabulary) + ids[1:], return_counts=True)
    return BigramCounts(
        vocabulary=vocabulary, codes=codes, counts=counts.astype(np.int64, copy=False), index=index
    )


def _pair_key(pair) -> tuple[str, str]:
    if isinstance(pair, LexemePair):
        return (pair.left, pair.right)
    left, right = pair
    return (left, right)


def sample_random_pairs(
    vocabulary: Collection[str],
    n: int,
    seed: int,
    exclusions: Iterable = (),
) -> list[LexemePair]:
    """Draw ``n`` distinct ordered pairs of distinct tokens, uniformly.

    Pairs listed in ``exclusions`` (LexemePairs or 2-tuples, matched exactly
    as ordered pairs) never appear, nor do duplicates within the sample.
    The draw is reproducible: the vocabulary is sorted before the seeded
    generator touches it, so set iteration order cannot leak in.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    vocab = sorted(vocabulary)
    size = len(vocab)
    if size < 2 and n > 0:
        raise SamplingError(f"need at least 2 vocabulary tokens, have {size}")
    excluded = {_pair_key(p) for p in exclusions}
    members = set(vocab)

    total_ordered = size * (size - 1)
    blocked = sum(
        1 for left, right in excluded if left != right and left in members and right in members
    )
    available = total_ordered - blocked
    if n > available:
        raise SamplingError(
            f"requested {n} random pairs but only {available} distinct "
            f"non-excluded ordered pairs exist (short by {n - available})"
        )

    rng = random.Random(seed)
    if total_ordered <= _ENUMERATION_LIMIT:
        candidates = [
            (left, right)
            for left in vocab
            for right in vocab
            if left != right and (left, right) not in excluded
        ]
        chosen = rng.sample(candidates, n)
    else:
        seen: set[tuple[str, str]] = set()
        chosen = []
        while len(chosen) < n:
            left = vocab[rng.randrange(size)]
            right = vocab[rng.randrange(size)]
            key = (left, right)
            if left == right or key in excluded or key in seen:
                continue
            seen.add(key)
            chosen.append(key)
    return [LexemePair(left, right) for left, right in chosen]


def top_cooccurring_pairs(
    counts: BigramCounts,
    n: int,
    exclusions: Iterable = (),
) -> list[LexemePair]:
    """Return the ``n`` most frequent non-excluded bigrams.

    Ordered by descending count, then lexicographically by (left, right)
    so equal counts break ties deterministically. The excluded codes are
    masked out with ``np.isin``, and one ``np.lexsort`` by (-count, code)
    gives that order, since code order is the lexical order.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    excluded = (counts.code(*_pair_key(p)) for p in exclusions)
    kept = ~np.isin(counts.codes, np.array([c for c in excluded if c is not None], np.int64))
    codes, tallies = counts.codes[kept], counts.counts[kept]
    available = len(codes)
    if available < n:
        raise SamplingError(
            f"requested {n} co-occurring pairs but only {available} "
            f"non-excluded bigrams exist (short by {n - available})"
        )
    return counts.pairs(codes[np.lexsort((codes, -tallies))[:n]])


__all__ = [
    "BigramCounts",
    "tokenize",
    "has_token",
    "read_corpus",
    "build_bigram_counts",
    "sample_random_pairs",
    "top_cooccurring_pairs",
]
