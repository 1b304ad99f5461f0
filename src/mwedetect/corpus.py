"""Corpus tokenization, bigram statistics, and negative-pair sampling.

The tokenizer keeps only runs of ASCII letters, lowercased; numerals and
punctuation never become tokens. Bigrams are counted as integer codes over
the sorted vocabulary. ``count_corpus`` reads a corpus a chunk at a time,
keeps only each chunk's distinct words and token indexes, ranks the words
once at the end and counts the bigrams with one sort; ``read_corpus`` and
``build_bigram_counts`` are the same count by way of the whole token
sequence. Both negative samplers read a ``BigramCounts``: they turn their
exclusions into codes of both orientations, pick codes and decode them
with ``pairs``, and they are deterministic given their inputs and seed.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
import random
from collections.abc import Collection, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._io import read_text, text_lines
from .errors import CorpusError, SamplingError
from .pairs import LexemePair

# Every byte but the lowercase ASCII letters becomes a space.
_LETTERS = bytes(byte if ord("a") <= byte <= ord("z") else ord(" ") for byte in range(256))

# Characters of a corpus file that count_corpus reads at a time. From 64 Ki
# to 1 Mi characters a 10M-token corpus of 763k words counted in about the
# same time (0.95-1.03 s), and 256 Ki gave the lowest peak on it and on a
# 1M-token corpus; 4 Mi nearly doubled the 1M-token one.
_CHUNK_CHARS = 1 << 18


@dataclass(frozen=True, eq=False)
class BigramCounts:
    """Adjacent-pair occurrence counts over a token sequence, as integer codes.

    ``vocabulary`` holds the sequence's distinct tokens in sorted order, and
    ``index``, built from it when first asked for, maps each one to its rank
    there. The bigram ``(left, right)`` has the code
    ``rank(left) * V + rank(right)`` with ``V`` the vocabulary size, so code
    order is the lexical ``(left, right)`` order. ``codes``
    holds each observed bigram's code once, ascending, and ``counts`` its
    number of occurrences (int64 arrays of equal length). ``unigrams``
    holds each vocabulary token's number of occurrences, by rank (int64).
    The bigram counts' marginals are not the unigram counts: the sequence's
    last token is no bigram's left token, and its first no bigram's right.
    """

    vocabulary: tuple[str, ...]
    codes: np.ndarray
    counts: np.ndarray
    unigrams: np.ndarray

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
    ``words`` holds the tokens of up to 12 letters in sorted order, then
    the longer ones, first seen first.
    """
    joined = "\n".join(texts)
    if joined.count("\n") != len(texts) - 1:  # a text holds a line end: no token spans it
        joined = "\n".join(text.replace("\n", " ") for text in texts)
    # As in _letters; the line ends between the texts are found before the
    # translation makes them spaces.
    encoded = joined.lower().encode("ascii", "replace")
    longer: dict[str, int] = {}  # one call: a longer token's id is its place after the keys
    starts, keys, _, ids = _distinct_tokens(encoded.translate(_LETTERS), longer)
    ends = np.flatnonzero(np.frombuffer(encoded, np.uint8) == ord("\n"))
    counts = np.bincount(np.searchsorted(ends, starts), minlength=len(texts))
    return _unpacked(keys) + list(longer), ids, counts


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
    """``build_bigram_counts(read_corpus(path))``, without holding the token strings.

    Each file is read ``_CHUNK_CHARS`` characters at a time, not a line:
    a file may have no line ends. The letters at the end of a chunk may go
    on in the next, so they wait for it. A token of up to 12 letters
    becomes one int64 key, 5 bits a letter (``a`` 1 to ``z`` 26) with the
    first letter highest, so key order is string order. A longer token gets
    an id in one table for the whole corpus. Each chunk keeps its distinct
    keys, the ids of its distinct longer tokens and each token's index into
    them (int32). At the end one ``np.unique`` over every chunk's keys and
    one sort of the longer tokens rank the words, each chunk's tokens
    become ranks in the sorted vocabulary, and one ``np.bincount`` of the
    ranks gives ``unigrams``. Each adjacent pair of ranks is one
    int64 code, over the whole sequence; one in-place sort lines the codes
    up, and each run of equal codes is a bigram and its count. The peak
    holds two int64 arrays of the token count, 16 bytes a token, and the
    V × 8-byte ``unigrams``. Errors are read_corpus's.
    """
    chunks = []  # each chunk's distinct keys, longer-token ids and token index
    longer: dict[str, int] = {}  # each longer token's id, over the whole corpus
    tail = b""
    for chunk in _chunks(_corpus_files(Path(path))):
        # Lowercasing and the translation go character by character, so
        # chunk by chunk they give the bytes of the whole text.
        letters = tail + _letters(chunk)
        cut = letters.rfind(b" ") + 1
        letters, tail = letters[:cut], letters[cut:]
        _, distinct, ids, index = _distinct_tokens(letters, longer)
        chunks.append((distinct, ids, index.astype(np.int32)))

    keys, key_ranks = np.unique(
        np.concatenate([distinct for distinct, _, _ in chunks]), return_inverse=True
    )
    # Both lists are sorted. A word's rank counts the words of the other
    # list before it: no packed word equals a longer one.
    words, longs = _unpacked(keys), sorted(longer)
    before = np.array([bisect.bisect_left(words, word) for word in longs], np.int64)
    key_ranks += np.searchsorted(before, key_ranks, side="right")
    long_ranks = np.empty(len(longs), np.int64)  # by id
    long_ranks[[longer[word] for word in longs]] = before + np.arange(len(longs))
    vocabulary = tuple(sorted(words + longs))
    ranked = np.empty(sum(len(index) for _, _, index in chunks), np.int64)
    start = offset = 0
    for distinct, ids, index in chunks:
        table = np.concatenate((key_ranks[offset : offset + len(distinct)], long_ranks[ids]))
        ranked[start : start + len(index)] = table[index]
        offset += len(distinct)
        start += len(index)
    del chunks, key_ranks, table, distinct, index
    unigrams = np.bincount(ranked, minlength=len(vocabulary)).astype(np.int64, copy=False)
    # int64 ranks: an int32 product would overflow past 46,341 words.
    codes = ranked[:-1] * len(vocabulary)
    codes += ranked[1:]
    del ranked
    codes.sort()
    # A code unlike the one before it starts a run of equal codes. A bool
    # mask, where np.diff would copy the codes twice, keeps the peak.
    starts = np.ones(len(codes), bool)
    np.not_equal(codes[1:], codes[:-1], out=starts[1:])
    starts = np.flatnonzero(starts)
    counts = np.diff(starts, append=len(codes)).astype(np.int64, copy=False)
    return BigramCounts(
        vocabulary=vocabulary, codes=codes[starts], counts=counts, unigrams=unigrams
    )


def _distinct_tokens(letters: bytes, longer: dict[str, int]) -> tuple[np.ndarray, ...]:
    """The tokens of ``letters``, runs of lowercase letters between spaces.

    A token of up to 12 letters becomes one int64 key: 5 bits a letter
    (``a`` 1 to ``z`` 26), the first letter highest, so a shorter token
    ends in zero bits and key order is string order. A longer token not yet
    in ``longer`` is added to it with the next id. Returns ``(starts, keys,
    ids, index)``: where each token starts in ``letters``; the distinct
    keys, ascending; the ids of the distinct longer tokens, first seen
    first; and the index of each token into ``keys`` followed by those.
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
    at = np.flatnonzero(~packed)
    spans = map(slice, starts[at].tolist(), edges[1::2][at].tolist())
    words = list(map(letters.__getitem__, spans))
    # Each distinct one's index; per occurrence, only dict and map steps in C.
    local = dict(zip(dict.fromkeys(words), itertools.count(len(keys))))
    index[at] = np.fromiter(map(local.__getitem__, words), np.intp, len(words))
    ids = [longer.setdefault(word.decode("ascii"), len(longer)) for word in local]
    return starts, keys, np.array(ids, np.intp), index


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


def build_bigram_counts(tokens: Sequence[str]) -> BigramCounts:
    """Count every adjacent token pair; n tokens yield n-1 observations.

    Each token becomes its rank in the sorted vocabulary, each adjacent pair
    of ranks one int64 code, and ``np.unique`` counts the codes;
    ``np.bincount`` counts the ranks.
    """
    vocabulary = tuple(sorted(set(tokens)))
    index = dict(zip(vocabulary, range(len(vocabulary))))
    ids = np.fromiter(map(index.__getitem__, tokens), np.int64, count=len(tokens))
    codes, counts = np.unique(ids[:-1] * len(vocabulary) + ids[1:], return_counts=True)
    return BigramCounts(
        vocabulary=vocabulary,
        codes=codes,
        counts=counts.astype(np.int64, copy=False),
        unigrams=np.bincount(ids, minlength=len(vocabulary)).astype(np.int64, copy=False),
    )


def _excluded_codes(counts: BigramCounts, compounds: Collection[LexemePair]) -> np.ndarray:
    """The distinct codes, ascending, of ``compounds`` in both orientations,
    leaving out each compound with a word outside the vocabulary."""
    get, size = counts.index.get, len(counts.vocabulary)
    lefts, rights = (
        np.fromiter(map(get, map(side, compounds), itertools.repeat(-1)), np.int64, len(compounds))
        for side in (operator.attrgetter("left"), operator.attrgetter("right"))
    )
    known = (lefts >= 0) & (rights >= 0)
    lefts, rights = lefts[known], rights[known]
    return np.union1d(lefts * size + rights, rights * size + lefts)


def sample_random_pairs(
    counts: BigramCounts,
    n: int,
    seed: int,
    exclusions: Collection[LexemePair] = (),
) -> list[LexemePair]:
    """Draw ``n`` distinct ordered pairs of distinct vocabulary tokens, uniformly.

    No compound in ``exclusions`` appears, in either orientation: the
    scorers are symmetric, so a swapped compound scores like the compound.
    The draw is ``random.Random(seed).sample`` of the list of the remaining
    ordered pairs of distinct tokens of ``counts.vocabulary``, in sorted
    order, without building that list: the generator picks positions in
    it, and each position is decoded into its code. The seed is an integer
    >= 0.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if seed < 0:  # random.Random would draw as for abs(seed)
        raise ValueError("seed must be nonnegative")
    size = len(counts.vocabulary)
    if size < 2 and n > 0:
        raise SamplingError(f"need at least 2 vocabulary tokens, have {size}")

    # Row i of the full list pairs token i with every other token, so the
    # code i * size + j of a pair of distinct ranks sits at
    # i * (size - 1) + j - (j > i). Ascending codes give ascending positions.
    excluded = _excluded_codes(counts, exclusions)
    lefts, rights = counts.ranks(excluded)
    blocked = (excluded - lefts - (rights > lefts))[lefts != rights]
    available = size * (size - 1) - len(blocked)
    if n > available:
        raise SamplingError(
            f"requested {n} random pairs but only {available} distinct "
            f"non-excluded ordered pairs exist (short by {n - available})"
        )

    # random.sample picks its positions from the list's length alone.
    drawn = np.array(random.Random(seed).sample(range(available), n), np.int64)
    # blocked[k] - k available positions come before the k-th blocked one, so
    # a draw moves past each blocked position with at most that many before it.
    drawn += np.searchsorted(blocked - np.arange(len(blocked)), drawn, side="right")
    lefts, rest = np.divmod(drawn, size - 1)
    # Row i skips rank i: a right rank at or past it is one more.
    return counts.pairs(lefts * size + rest + (rest >= lefts))


def top_cooccurring_pairs(
    counts: BigramCounts,
    n: int,
    exclusions: Collection[LexemePair] = (),
) -> list[LexemePair]:
    """Return the ``n`` most frequent bigrams not in ``exclusions``, in either orientation.

    Ordered by descending count, then lexicographically by (left, right)
    so equal counts break ties deterministically. No more than ``n + e``
    bigrams are looked at, with ``e`` the number of distinct codes of the
    exclusions, both orientations counted: ``np.partition`` finds the
    count of the (n + e)-th most frequent, one ``np.lexsort`` by
    (-count, code) orders the bigrams at or above it, since code order is
    the lexical order, and the first ``n`` of them whose codes are not
    excluded are taken.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    excluded = _excluded_codes(counts, exclusions)
    tallies = counts.counts
    looked_at = min(len(tallies), n + len(excluded)) if n else 0
    codes = np.empty(0, np.int64)
    if looked_at:
        cut = -np.partition(-tallies, looked_at - 1)[looked_at - 1]
        top = np.flatnonzero(tallies >= cut)
        codes = counts.codes[top[np.lexsort((counts.codes[top], -tallies[top]))][:looked_at]]
        codes = codes[np.isin(codes, excluded, invert=True)][:n]
    # Fewer than n chosen means every bigram was looked at: at most e of
    # the first n + e are excluded.
    if len(codes) < n:
        raise SamplingError(
            f"requested {n} co-occurring pairs but only {len(codes)} "
            f"non-excluded bigrams exist (short by {n - len(codes)})"
        )
    return counts.pairs(codes)


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
