"""Corpus tokenization, bigram statistics, and negative-pair sampling.

The tokenizer keeps only runs of ASCII letters, lowercased; numerals and
punctuation never become tokens. Bigrams are counted as integer codes over
the sorted vocabulary. ``count_corpus`` counts them as it reads, a chunk at
a time, so its memory grows with the bigram types, not with the tokens;
``read_corpus`` and ``build_bigram_counts`` are the same count by way of
the whole token sequence. Both samplers are deterministic given
their inputs and seed.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from collections.abc import Collection, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._io import Worker, read_text, text_lines
from .errors import CorpusError, SamplingError
from .pairs import LexemePair

# Every byte but the lowercase ASCII letters becomes a space.
_LETTERS = bytes(byte if ord("a") <= byte <= ord("z") else ord(" ") for byte in range(256))

# Characters of a corpus file that count_corpus reads at a time. Larger
# chunks count no faster and raise the peak memory.
_CHUNK_CHARS = 1 << 18

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

    def ranks(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The vocabulary ranks of the left and of the right token of each code in ``codes``."""
        return np.divmod(codes, len(self.vocabulary))

    def pairs(self, codes: np.ndarray) -> list[LexemePair]:
        """The bigram of each code in ``codes``, in the same order."""
        vocabulary = self.vocabulary
        lefts, rights = self.ranks(codes)
        return [
            LexemePair(vocabulary[i], vocabulary[j])
            for i, j in zip(lefts.tolist(), rights.tolist())
        ]


def _letters(text: str) -> bytes:
    """``text`` lowercased, as ASCII bytes with every non-letter a space.

    A character outside ASCII becomes one ``?`` before the translation, so a
    token is exactly a run of ``[a-z]`` in ``text.lower()``.
    """
    return text.lower().encode("ascii", "replace").translate(_LETTERS)


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase ``text`` and split it on every non-alphabetic character."""
    return tuple(_letters(text).decode("ascii").split())


def has_token(text: str) -> bool:
    """Whether ``tokenize(text)`` is non-empty, without building its tokens."""
    return bool(_letters(text).strip())


def _corpus_files(path: Path) -> list[Path]:
    """The file at ``path``, or every file under the directory, in path order."""
    if not path.is_dir():
        return [path]
    files = sorted(p for p in path.rglob("*") if p.is_file())
    if not files:
        raise CorpusError(f"corpus directory contains no files: {path}")
    return files


def read_corpus(path: str | Path) -> tuple[str, ...]:
    """Tokenize a UTF-8 text file, or every file under a directory.

    Directory contents are concatenated in lexicographic path order with a
    newline between files, then tokenized as one sequence.
    """
    return tokenize("\n".join(read_text(p, CorpusError) for p in _corpus_files(Path(path))))


def count_corpus(path: str | Path) -> BigramCounts:
    """``build_bigram_counts(read_corpus(path))``, without holding the tokens.

    Each file is read ``_CHUNK_CHARS`` characters at a time, not a line:
    a file may have no line ends. The letters at the end of a chunk may go
    on in the next, so they wait for it. The chunk's tokens get ids in
    first-seen order, the last id carries over to the next chunk and the
    next file, and ``np.unique`` counts the chunk's ``(a << 32) | b`` codes
    of adjacent ids. The chunk counts are merged into running totals
    whenever they outgrow them, so memory grows with the bigram types plus
    one chunk. At the end the ids become ranks in the sorted vocabulary.
    Errors are read_corpus's.
    """
    ids: defaultdict[str, int] = defaultdict(itertools.count().__next__)
    totals = (np.empty(0, np.int64), np.empty(0, np.int64))
    pending: list[tuple[np.ndarray, np.ndarray]] = []
    last = np.empty(0, np.int64)
    tail = b""
    for chunk in _chunks(_corpus_files(Path(path))):
        # Lowercasing and the translation go character by character, so
        # chunk by chunk they give the bytes of the whole text.
        letters = tail + _letters(chunk)
        cut = letters.rfind(b" ") + 1
        letters, tail = letters[:cut], letters[cut:]
        tokens = letters.decode("ascii").split()
        sequence = np.concatenate(
            (last, np.fromiter(map(ids.__getitem__, tokens), np.int64, len(tokens)))
        )
        last = sequence[-1:]
        pending.append(np.unique((sequence[:-1] << 32) | sequence[1:], return_counts=True))
        if sum(len(codes) for codes, _ in pending) > len(totals[0]):
            totals, pending = _merge([totals, *pending]), []
    codes, counts = _merge([totals, *pending])

    words = list(ids)  # in id order
    vocabulary = tuple(sorted(words))
    index = dict(zip(vocabulary, range(len(vocabulary))))
    ranks = np.fromiter(map(index.__getitem__, words), np.int64, len(words))
    codes = ranks[codes >> 32] * len(vocabulary) + ranks[codes & 0xFFFFFFFF]
    order = np.argsort(codes)
    return BigramCounts(
        vocabulary=vocabulary, codes=codes[order], counts=counts[order], index=index
    )


def counting(path: str | Path) -> Worker:
    """``count_corpus(path)`` in a forked worker, to run beside the loaders.

    Its ``result()`` returns the counts or raises count_corpus's error, so
    errors come in the order of a count made where it is collected.
    """
    return Worker(f"{path}: the worker counting the corpus", count_corpus, path)


def _chunks(files: list[Path]) -> Iterator[str]:
    """The text of ``files`` in chunks of ``_CHUNK_CHARS`` characters, each
    file followed by read_corpus's newline between files."""
    for file in files:
        with text_lines(file, CorpusError) as handle:
            yield from iter(lambda: handle.read(_CHUNK_CHARS), "")
        yield "\n"


def _merge(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """The (codes, counts) of several, each code once, ascending, its counts summed."""
    codes = np.concatenate([codes for codes, _ in parts])
    counts = np.concatenate([counts for _, counts in parts]).astype(np.int64, copy=False)
    if not len(codes):
        return codes, counts
    order = np.argsort(codes)
    codes, counts = codes[order], counts[order]
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    return codes[starts], np.add.reduceat(counts, starts)


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
    found in the ascending codes by ``np.searchsorted``; ``np.partition``
    finds the n-th largest remaining count, and one ``np.lexsort`` by
    (-count, code) orders only the bigrams at or above it, since code order
    is the lexical order.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    excluded = (counts.code(*_pair_key(p)) for p in exclusions)
    excluded = np.unique(np.array([c for c in excluded if c is not None], np.int64))
    positions = np.searchsorted(counts.codes, excluded)
    found = positions < len(counts.codes)
    found[found] = counts.codes[positions[found]] == excluded[found]
    kept = np.ones(len(counts.codes), bool)
    kept[positions[found]] = False
    codes, tallies = counts.codes[kept], counts.counts[kept]
    available = len(codes)
    if available < n:
        raise SamplingError(
            f"requested {n} co-occurring pairs but only {available} "
            f"non-excluded bigrams exist (short by {n - available})"
        )
    if n == 0:
        return []
    # The n-th largest count: the bigrams at or above it hold the n first.
    cut = -np.partition(-tallies, n - 1)[n - 1]
    top = np.flatnonzero(tallies >= cut)
    return counts.pairs(codes[top[np.lexsort((codes[top], -tallies[top]))][:n]])


__all__ = [
    "BigramCounts",
    "tokenize",
    "has_token",
    "read_corpus",
    "count_corpus",
    "build_bigram_counts",
    "sample_random_pairs",
    "top_cooccurring_pairs",
]
