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

import bisect
import functools
import random
from collections.abc import Collection, Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._io import read_text, text_lines
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
    ``index``, built from it when first asked for, maps each one to its rank
    there. The bigram ``(left, right)`` has the code
    ``rank(left) * V + rank(right)`` with ``V`` the vocabulary size, so code
    order is the lexical ``(left, right)`` order. ``codes``
    holds each observed bigram's code once, ascending, and ``counts`` its
    number of occurrences (int64 arrays of equal length).
    """

    vocabulary: tuple[str, ...]
    codes: np.ndarray
    counts: np.ndarray

    @functools.cached_property
    def index(self) -> dict[str, int]:
        return dict(zip(self.vocabulary, range(len(self.vocabulary))))

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


def tokenize_all(texts: Sequence[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """``tokenize`` of every text, in one pass.

    Returns ``(words, ids, counts)``: the distinct tokens, the index into
    ``words`` of each token, text after text, and each text's token count.
    """
    joined = "\n".join(texts)
    if joined.count("\n") != len(texts) - 1:  # a text holds a line end: no token spans it
        joined = "\n".join(text.replace("\n", " ") for text in texts)
    # As in _letters; the line ends between the texts are found before the
    # translation makes them spaces.
    encoded = joined.lower().encode("ascii", "replace")
    starts, keys, longer, ids = _distinct_tokens(encoded.translate(_LETTERS))
    ends = np.flatnonzero(np.frombuffer(encoded, np.uint8) == ord("\n"))
    counts = np.bincount(np.searchsorted(ends, starts), minlength=len(texts))
    return _unpacked(keys) + longer, ids, counts


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
    on in the next, so they wait for it. A token of up to 12 letters
    becomes one int64 key, 5 bits a letter (``a`` 1 to ``z`` 26) with the
    first letter highest, so key order is string order; each chunk's
    distinct keys get ids from one sorted table of the keys seen so far,
    all in numpy. Only a longer token gets its id from a dict. The last id
    carries over to the next chunk and the next file, and ``np.unique``
    counts the chunk's ``(a << 32) | b`` codes of adjacent ids. The chunk
    counts are merged into running totals whenever they outgrow them, so
    memory grows with the bigram types plus one chunk. At the end the ids
    become ranks in the sorted vocabulary. Errors are read_corpus's.
    """
    keys = key_ids = np.empty(0, np.int64)  # the keys seen, ascending, and their ids
    long_ids: dict[str, int] = {}
    size = 0  # the ids given out
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
        _, distinct, longer, index = _distinct_tokens(letters)
        at = np.searchsorted(keys, distinct)
        seen = at < len(keys)
        seen[seen] = keys[at[seen]] == distinct[seen]
        new = np.flatnonzero(~seen)
        distinct_ids = np.empty(len(distinct), np.int64)
        distinct_ids[seen] = key_ids[at[seen]]
        distinct_ids[new] = np.arange(size, size + len(new))
        size += len(new)
        keys = np.insert(keys, at[new], distinct[new])
        key_ids = np.insert(key_ids, at[new], distinct_ids[new])
        for word in longer:
            if word not in long_ids:
                long_ids[word] = size
                size += 1
        ids = np.concatenate((distinct_ids, np.array([long_ids[w] for w in longer], np.int64)))
        sequence = np.concatenate((last, ids[index]))
        last = sequence[-1:]
        pending.append(np.unique((sequence[:-1] << 32) | sequence[1:], return_counts=True))
        if sum(len(codes) for codes, _ in pending) > len(totals[0]):
            totals, pending = _merge([totals, *pending]), []
    codes, counts = _merge([totals, *pending])

    # Both lists are sorted. A word's rank counts the words of the other
    # list before it: no packed word equals a longer one.
    words, longs = _unpacked(keys), sorted(long_ids)
    before = np.array([bisect.bisect_left(words, word) for word in longs], np.int64)
    ranks = np.empty(size, np.int64)
    ranks[key_ids] = np.arange(len(words)) + np.searchsorted(
        before, np.arange(len(words)), side="right"
    )
    ranks[np.array([long_ids[word] for word in longs], np.intp)] = before + np.arange(len(longs))
    vocabulary = tuple(sorted(words + longs))
    codes = ranks[codes >> 32] * len(vocabulary) + ranks[codes & 0xFFFFFFFF]
    order = np.argsort(codes)
    return BigramCounts(vocabulary=vocabulary, codes=codes[order], counts=counts[order])


def _distinct_tokens(letters: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """The tokens of ``letters``, runs of lowercase letters between spaces.

    A token of up to 12 letters becomes one int64 key: 5 bits a letter
    (``a`` 1 to ``z`` 26), the first letter highest, so a shorter token
    ends in zero bits and key order is string order. Returns ``(starts,
    keys, longer, index)``: where each token starts in ``letters``; the
    distinct keys, ascending; the distinct longer tokens, first seen first;
    and the index of each token into ``keys`` followed by ``longer``.
    """
    values = np.frombuffer(letters + b" ", np.uint8) & 31  # a space is 0
    edges = np.flatnonzero(np.diff(values != 0, prepend=False))
    starts, lengths = edges[::2], edges[1::2] - edges[::2]
    packed = lengths <= 12
    packed_starts, packed_lengths = starts[packed], lengths[packed]
    keys = np.zeros(len(packed_starts), np.int64)
    longest = int(packed_lengths.max(initial=0))
    for k in range(longest):
        # Past its end a token reads the space after it, a 0.
        keys = (keys << 5) | values[packed_starts + np.minimum(packed_lengths, k)]
    keys, inverse = np.unique(keys << 5 * (12 - longest), return_inverse=True)
    index = np.empty(len(starts), np.intp)
    index[packed] = inverse.ravel()
    longer: dict[str, int] = {}  # each longer token's index
    for position in np.flatnonzero(~packed).tolist():
        start = int(starts[position])
        word = letters[start : start + int(lengths[position])].decode("ascii")
        index[position] = longer.setdefault(word, len(keys) + len(longer))
    return starts, keys, list(longer), index


def _unpacked(keys: np.ndarray) -> list[str]:
    """The token of each key of ``_distinct_tokens``."""
    letters = ((keys[:, None] >> np.arange(55, -1, -5)) & 31).astype(np.uint8)
    letters[letters > 0] |= 96  # back to the codes of "a" to "z"
    return letters.view("S12").ravel().astype(str).tolist()


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
    # The parts are sorted runs, which a stable sort merges.
    order = np.argsort(codes, kind="stable")
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
        vocabulary=vocabulary, codes=codes, counts=counts.astype(np.int64, copy=False)
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
    excluded = set(map(_pair_key, exclusions))

    total_ordered = size * (size - 1)
    # Each exclusion blocks at most one pair, so the pairs it blocks are
    # counted only when that could leave too few.
    if n > total_ordered - len(excluded):
        members = set(vocab)
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
    so equal counts break ties deterministically. No more than ``n + e``
    bigrams are looked at, with ``e`` the number of exclusions:
    ``np.partition`` finds the count of the (n + e)-th most frequent, one
    ``np.lexsort`` by (-count, code) orders the bigrams at or above it,
    since code order is the lexical order, and they are taken in that
    order, the excluded ones skipped.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    excluded = set(map(_pair_key, exclusions))
    tallies = counts.counts
    looked_at = min(len(tallies), n + len(excluded)) if n else 0
    chosen: list[LexemePair] = []
    if looked_at:
        cut = -np.partition(-tallies, looked_at - 1)[looked_at - 1]
        top = np.flatnonzero(tallies >= cut)
        codes = counts.codes[top[np.lexsort((counts.codes[top], -tallies[top]))][:looked_at]]
        vocabulary = counts.vocabulary
        lefts, rights = counts.ranks(codes)
        for i, j in zip(lefts.tolist(), rights.tolist()):
            key = (vocabulary[i], vocabulary[j])
            if key not in excluded:
                chosen.append(LexemePair(*key))
                if len(chosen) == n:
                    break
    # Fewer than n chosen means every bigram was looked at: at most e of
    # the first n + e are excluded.
    if len(chosen) < n:
        raise SamplingError(
            f"requested {n} co-occurring pairs but only {len(chosen)} "
            f"non-excluded bigrams exist (short by {n - len(chosen)})"
        )
    return chosen


__all__ = [
    "BigramCounts",
    "tokenize",
    "tokenize_all",
    "has_token",
    "read_corpus",
    "count_corpus",
    "build_bigram_counts",
    "sample_random_pairs",
    "top_cooccurring_pairs",
]
