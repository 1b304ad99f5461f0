"""Corpus tokenization, bigram statistics, and negative-pair sampling.

The tokenizer keeps only runs of ASCII letters, lowercased; numerals and
punctuation never become tokens. Both samplers are deterministic given
their inputs and seed.
"""

from __future__ import annotations

import heapq
import random
import re
from collections import Counter
from collections.abc import Collection, Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .errors import CorpusError, SamplingError
from .pairs import LexemePair

_TOKEN_RE = re.compile(r"[a-z]+")

# Above this many ordered token pairs, uniform sampling switches from full
# enumeration to seeded rejection sampling.
_ENUMERATION_LIMIT = 1_000_000


@dataclass(frozen=True)
class TokenStream:
    """Ordered lowercase alphabetic tokens plus a provenance label."""

    tokens: tuple[str, ...]
    source_label: str = ""

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class BigramCounts:
    """Adjacent-pair occurrence counts over a token stream."""

    counts: dict[tuple[str, str], int]
    total_bigrams: int = field(default=0)

    def __len__(self) -> int:
        return len(self.counts)


def tokenize(text: str, source_label: str = "") -> TokenStream:
    """Lowercase ``text`` and split it on every non-alphabetic character."""
    return TokenStream(tokens=tuple(_TOKEN_RE.findall(text.lower())), source_label=source_label)


def read_corpus(path: str | Path) -> TokenStream:
    """Tokenize a UTF-8 text file, or every file under a directory.

    Directory contents are concatenated in lexicographic path order with a
    newline between files, then tokenized as one stream.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(p for p in path.rglob("*") if p.is_file())
        if not files:
            raise CorpusError(f"corpus directory contains no files: {path}")
        text = "\n".join(p.read_text(encoding="utf-8") for p in files)
    else:
        text = path.read_text(encoding="utf-8")
    return tokenize(text, source_label=str(path))


def build_bigram_counts(stream: TokenStream) -> BigramCounts:
    """Count every adjacent token pair; n tokens yield n-1 observations."""
    tokens = stream.tokens
    counts = Counter(zip(tokens, tokens[1:]))
    return BigramCounts(counts=dict(counts), total_bigrams=max(0, len(tokens) - 1))


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

    total_ordered = size * (size - 1)
    blocked = sum(
        1 for left, right in excluded if left != right and left in vocabulary and right in vocabulary
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
    so equal counts break ties deterministically.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    excluded = {_pair_key(p) for p in exclusions}
    available = len(counts.counts) - sum(1 for key in excluded if key in counts.counts)
    if available < n:
        raise SamplingError(
            f"requested {n} co-occurring pairs but only {available} "
            f"non-excluded bigrams exist (short by {n - available})"
        )
    top = heapq.nsmallest(
        n,
        (
            (-count, left, right)
            for (left, right), count in counts.counts.items()
            if (left, right) not in excluded
        ),
    )
    return [LexemePair(left, right) for _, left, right in top]


__all__ = [
    "TokenStream",
    "BigramCounts",
    "tokenize",
    "read_corpus",
    "build_bigram_counts",
    "sample_random_pairs",
    "top_cooccurring_pairs",
]
