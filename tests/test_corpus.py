"""Tokenization, bigram counting, and the two negative-pair samplers."""

from __future__ import annotations

import codecs
import random
import re
import string
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mwedetect import corpus
from mwedetect.corpus import (
    build_bigram_counts,
    count_corpus,
    has_token,
    read_corpus,
    sample_random_pairs,
    tokenize,
    tokenize_all,
    top_cooccurring_pairs,
)
from mwedetect.errors import CorpusError, SamplingError
from mwedetect.pairs import LexemePair

from reference import enumerated_random_pairs, random_pair_candidates


# Characters with a Unicode case mapping that changes length or leaves ASCII.
_CASE_MAPPED = "\u0130K\u212a\u00df\u03a3\ufb00\ud800"


class TestTokenize:
    def test_lowercases_and_splits_on_non_letters(self):
        assert tokenize("The hot-dog, 42 times!") == ("the", "hot", "dog", "times")

    def test_apostrophes_split(self):
        assert tokenize("don't") == ("don", "t")

    def test_digits_and_punctuation_drop_out(self):
        assert tokenize("3.14 ... !!") == ()

    def test_empty_text(self):
        assert tokenize("") == ()

    @given(st.text(max_size=200))
    def test_tokens_are_lowercase_alphabetic(self, text):
        for token in tokenize(text):
            assert token
            assert token == token.lower()
            assert token.isascii() and token.isalpha()

    @given(st.text(max_size=200))
    def test_retokenizing_joined_output_is_stable(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    # Characters whose lowercase form is longer or not ASCII, and lone
    # surrogates, which no UTF-8 file holds but a str may.
    @given(
        st.text(st.characters(exclude_categories=()) | st.sampled_from(_CASE_MAPPED), max_size=60)
    )
    @example("\u0130stanbul \u212aelvin")  # the Kelvin sign lowercases to "k"
    @example("a\udc80b\ud83d\ude00c")
    def test_matches_the_regular_expression(self, text):
        assert tokenize(text) == tuple(re.findall(r"[a-z]+", text.lower()))

    @given(st.text(max_size=200))
    @example("\u0130")  # lowercases to "i" and a combining dot
    @example("3.14 ... !!")
    def test_has_token_is_whether_tokenize_finds_one(self, text):
        assert has_token(text) == bool(tokenize(text))

    # Texts with line ends, case-mapped characters, and runs of letters on
    # both sides of the 12 letters that one int64 key holds.
    @given(
        st.lists(
            st.text(st.sampled_from("ab \n.B\u00e9" + _CASE_MAPPED), max_size=30)
            | st.text(st.sampled_from("abB"), min_size=11, max_size=40),
            max_size=8,
        )
    )
    @example([])
    @example(["", "\n", "a\nb"])
    @example(["aaaaaaaaaaaa aaaaaaaaaaaab", "aaaaaaaaaaaa", "Aaaaaaaaaaaab"])
    def test_tokenize_all_is_tokenize_of_each(self, texts):
        words, ids, counts = tokenize_all(texts)
        each = [tokenize(text) for text in texts]
        assert len(set(words)) == len(words)
        assert [words[i] for i in ids.tolist()] == [token for tokens in each for token in tokens]
        assert counts.tolist() == [len(tokens) for tokens in each]


class TestReadCorpus:
    def test_reads_single_file(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("Alpha beta. Gamma!", encoding="utf-8")
        assert read_corpus(path) == ("alpha", "beta", "gamma")

    def test_directory_files_in_sorted_order(self, tmp_path):
        (tmp_path / "b.txt").write_text("second", encoding="utf-8")
        (tmp_path / "a.txt").write_text("first", encoding="utf-8")
        assert read_corpus(tmp_path) == ("first", "second")

    def test_directory_boundary_breaks_bigrams(self, tmp_path):
        # The newline joint means the last token of one file and the first of
        # the next still form a bigram; the tokenizer has no file awareness.
        (tmp_path / "a.txt").write_text("one two", encoding="utf-8")
        (tmp_path / "b.txt").write_text("three", encoding="utf-8")
        counts = build_bigram_counts(read_corpus(tmp_path))
        assert _as_dict(counts) == {("one", "two"): 1, ("two", "three"): 1}

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(CorpusError, match="no files"):
            read_corpus(tmp_path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_corpus(tmp_path / "absent.txt")


def _as_dict(counts):
    """Every observed bigram of ``counts`` and its ``count()``."""
    return {(p.left, p.right): counts.count(p.left, p.right) for p in counts.pairs(counts.codes)}


def assert_same_counts(counts, expected):
    """Field by field equal: vocabulary, the bytes of the three arrays, and the index."""
    assert counts.vocabulary == expected.vocabulary
    assert counts.codes.dtype == counts.counts.dtype == counts.unigrams.dtype == np.int64
    assert expected.unigrams.dtype == np.int64
    assert counts.codes.tobytes() == expected.codes.tobytes()
    assert counts.counts.tobytes() == expected.counts.tobytes()
    assert counts.unigrams.tobytes() == expected.unigrams.tobytes()
    assert list(counts.index.items()) == list(expected.index.items())


def assert_unigrams_count(counts, tokens):
    """``counts.unigrams`` holds each word's occurrences in ``tokens``, by rank."""
    occurrences = Counter(tokens)
    assert len(counts.unigrams) == len(occurrences)
    assert {w: int(counts.unigrams[counts.index[w]]) for w in occurrences} == occurrences
    assert int(counts.unigrams.sum()) == len(tokens)


# One corpus file: its lines, the line end, whether the last line ends, and
# whether a byte-order mark leads. Runs of 11 to 40 letters give tokens on
# both sides of the 12 letters that one int64 key holds.
_CORPUS_FILES = st.tuples(
    st.lists(
        st.text(st.sampled_from("ab c\tB.1\u00e9" + _CASE_MAPPED[:-1]), max_size=12)
        | st.text(st.sampled_from("abB"), min_size=11, max_size=40),
        max_size=6,
    ),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.booleans(),
    st.booleans(),
)


class TestCountCorpus:
    @given(
        files=st.lists(_CORPUS_FILES, min_size=1, max_size=4),
        nested=st.booleans(),
        chunk=st.integers(min_value=1, max_value=12),
    )
    @example(files=[([], "\n", False, False)], nested=False, chunk=1)
    @example(
        files=[(["ab"], "\n", False, True), (["c", "ab"], "\r", True, False)],
        nested=True,
        chunk=1,
    )
    @example(  # a 12-letter token and a 13-letter one that starts with it
        files=[(["abababababab ababababababa", "abababababab"], "\n", True, False)],
        nested=False,
        chunk=5,
    )
    @example(  # only tokens of more than 12 letters: every chunk has no keys
        files=[
            (["abcdefghijklm nopqrstuvwxyzab", "abcdefghijklm abcdefghijklmn"], "\n", True, False)
        ],
        nested=False,
        chunk=6,
    )
    @example(  # the chunk "12345" holds no token at all
        files=[(["jet 0123456789!?.,;: lag jet"], "\n", False, False)],
        nested=False,
        chunk=5,
    )
    @example(  # the second chunk's words all sort before the first chunk's
        files=[(["zz yy zzzzzzzzzzzzz aa bb aaaaaaaaaaaaa zz"], "\n", True, False)],
        nested=False,
        chunk=20,
    )
    @example(  # a longer token in every chunk, each time with the same corpus-wide id
        files=[(["abcdefghijklmn jet. abcdefghijklmn jet. abcdefghijklmn"], "\n", True, False)],
        nested=False,
        chunk=20,
    )
    @example(  # a longer token first seen in the second chunk sorts before every earlier
        # word, and the third chunk holds it again
        files=[(["zz zzzzzzzzzzzzzz yy aaaaaaaaaaaaaa zz aaaaaaaaaaaaaa"], "\n", True, False)],
        nested=False,
        chunk=20,
    )
    def test_equals_read_then_count(self, files, nested, chunk):
        """Over a file and a directory of files, in chunks down to one character."""
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(corpus, "_CHUNK_CHARS", chunk)
            root = Path(tmp)
            paths = []
            for number, (lines, end, final, bom) in enumerate(files):
                # With ``nested``, the last file lies in a subdirectory.
                last = nested and number == len(files) - 1
                name = f"sub/{number}.txt" if last else f"{number}.txt"
                path = root / name
                path.parent.mkdir(exist_ok=True)
                text = end.join(lines) + (end if final and lines else "")
                path.write_bytes((codecs.BOM_UTF8 if bom else b"") + text.encode("utf-8"))
                paths.append(path)
            for source in (root, paths[0]):
                counts, tokens = count_corpus(source), read_corpus(source)
                assert_same_counts(counts, build_bigram_counts(tokens))
                assert_unigrams_count(counts, tokens)

    def test_equals_read_then_count_at_the_real_chunk_size(self, tmp_path):
        """Two files over several real chunks, with more than 46,341 words, so
        codes pass 2**31, and with bigrams that recur across chunk and file ends."""
        rng = random.Random(0)
        # Four letters name the word, so the words are distinct; up to ten
        # more make some longer than 12 letters.
        words = [
            "".join(chr(ord("a") + i // 26**k % 26) for k in range(4))
            + "".join(rng.choices(string.ascii_lowercase, k=rng.randrange(11)))
            for i in range(50_000)
        ]
        # Twice round the words: each bigram that spans a chunk or file end recurs.
        tokens = words * 2
        first, second = " ".join(tokens[:60_000]), " ".join(tokens[60_000:])
        chunk = corpus._CHUNK_CHARS
        assert len(first) + len(second) > 3 * chunk
        assert first[chunk - 1 : chunk + 1].isalpha()  # a token straddles a chunk end
        (tmp_path / "a.txt").write_text(first, encoding="utf-8")
        (tmp_path / "b.txt").write_text(second, encoding="utf-8")
        counts = count_corpus(tmp_path)
        assert len(counts.vocabulary) == 50_000 and int(counts.codes[-1]) > 2**31
        tokens = read_corpus(tmp_path)
        assert_same_counts(counts, build_bigram_counts(tokens))
        assert_unigrams_count(counts, tokens)

    def test_counts_across_file_ends(self, tmp_path):
        (tmp_path / "a.txt").write_text("the cat", encoding="utf-8")
        (tmp_path / "b.txt").write_text("sat the cat\n", encoding="utf-8")
        counts = count_corpus(tmp_path)
        assert counts.count("cat", "sat") == 1
        assert counts.count("the", "cat") == 2

    def test_empty_corpus_has_no_vocabulary(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("123 !!\n", encoding="utf-8")
        counts = count_corpus(path)
        assert counts.vocabulary == () and len(counts) == 0
        assert counts.unigrams.dtype == np.int64 and len(counts.unigrams) == 0
        assert_same_counts(counts, build_bigram_counts(()))

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(CorpusError, match="no files"):
            count_corpus(tmp_path)

    def test_bad_byte_in_a_later_chunk_names_file_and_line(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_bytes(b"jet lag\n" * 9 + b"caf\xe9\n")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(corpus, "_CHUNK_CHARS", 1)
            with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: line 10: not UTF-8"):
                count_corpus(path)


class TestBigramCounts:
    def test_hand_counted_example(self):
        counts = build_bigram_counts(tokenize("the cat sat the cat"))
        assert _as_dict(counts) == {("the", "cat"): 2, ("cat", "sat"): 1, ("sat", "the"): 1}
        assert counts.count("the", "cat") == 2
        assert counts.count("cat", "the") == 0
        assert sum(counts.counts.tolist()) == 4
        # "cat", "sat", "the": the last "cat" is no bigram's left token.
        assert counts.unigrams.tolist() == [2, 1, 2]

    def test_single_token_has_no_bigrams(self):
        counts = build_bigram_counts(tokenize("lonely"))
        assert _as_dict(counts) == {}
        assert len(counts) == 0
        assert counts.count("lonely", "lonely") == 0
        assert sum(counts.counts.tolist()) == 0

    def test_empty_stream(self):
        counts = build_bigram_counts(tokenize(""))
        assert sum(counts.counts.tolist()) == 0
        assert counts.vocabulary == ()
        assert counts.count("a", "b") == 0

    @given(st.text(max_size=300))
    def test_totals_match_token_count(self, text):
        tokens = tokenize(text)
        counts = build_bigram_counts(tokens)
        assert sum(counts.counts.tolist()) == max(0, len(tokens) - 1)

    def test_codes_follow_lexical_order(self):
        counts = build_bigram_counts(tokenize("b a b a c a c a z z"))
        assert counts.vocabulary == ("a", "b", "c", "z")
        keys = [(p.left, p.right) for p in counts.pairs(counts.codes)]
        assert keys == sorted(keys)
        assert counts.codes.tolist() == sorted(set(counts.codes.tolist()))


# Token sequences over a small alphabet, so pairs repeat; "q" never occurs in
# them and stands in for an out-of-vocabulary token.
_STREAM_TOKENS = ("a", "b", "c", "d", "e")
_TOKEN_LISTS = st.one_of(
    st.lists(st.sampled_from(_STREAM_TOKENS), max_size=60),
    st.builds(lambda token, n: [token] * n, st.sampled_from(_STREAM_TOKENS), st.integers(0, 5)),
)


class TestBigramCountsProperties:
    @given(_TOKEN_LISTS)
    @example([])
    @example(["a"])
    @example(["c", "c", "c", "c"])
    def test_matches_counter_reference(self, tokens):
        """len, count() of every pair and 0 off the stream equal Counter(zip(...))."""
        reference = Counter(zip(tokens, tokens[1:]))
        counts = build_bigram_counts(tokens)
        assert len(counts) == len(reference)
        assert counts.vocabulary == tuple(sorted(set(tokens)))
        assert_unigrams_count(counts, tokens)
        for left in (*_STREAM_TOKENS, "q"):
            for right in (*_STREAM_TOKENS, "q"):
                assert counts.count(left, right) == reference[(left, right)]
        assert _as_dict(counts) == dict(reference)
        # ranks() inverts code() on every observed bigram, and pairs() reads
        # the vocabulary at those ranks.
        lefts, rights = counts.ranks(counts.codes)
        ranked = [(counts.vocabulary[i], counts.vocabulary[j]) for i, j in zip(lefts, rights)]
        assert [counts.code(left, right) for left, right in ranked] == counts.codes.tolist()
        assert [(p.left, p.right) for p in counts.pairs(counts.codes)] == ranked


class TestSampleRandomPairs:
    VOCAB = {"ant", "bee", "cat", "dog", "elk"}

    def test_deterministic_per_seed(self):
        counts = build_bigram_counts(self.VOCAB)
        first = sample_random_pairs(counts, 5, seed=13)
        second = sample_random_pairs(counts, 5, seed=13)
        assert first == second

    def test_vocabulary_iteration_order_is_irrelevant(self):
        as_list = ["elk", "dog", "cat", "bee", "ant"]
        assert sample_random_pairs(
            build_bigram_counts(self.VOCAB), 5, seed=13
        ) == sample_random_pairs(build_bigram_counts(as_list), 5, seed=13)

    def test_pairs_are_distinct_tokens_from_vocabulary(self):
        pairs = sample_random_pairs(build_bigram_counts(self.VOCAB), 10, seed=1)
        assert len(set(pairs)) == 10
        for pair in pairs:
            assert pair.left in self.VOCAB
            assert pair.right in self.VOCAB
            assert pair.left != pair.right

    def test_exclusions_are_ordered_pairs(self):
        excluded = LexemePair("ant", "bee")
        pairs = sample_random_pairs(
            build_bigram_counts(self.VOCAB), 19, seed=3, exclusions=[excluded]
        )
        assert excluded not in pairs
        # 5*4 = 20 ordered pairs minus the excluded one leaves exactly 19,
        # so the reversed orientation must still be present.
        assert LexemePair("bee", "ant") in pairs

    def test_oversampling_reports_shortfall(self):
        with pytest.raises(SamplingError, match="short by 1"):
            sample_random_pairs(build_bigram_counts(self.VOCAB), 21, seed=0)

    def test_tiny_vocabulary_rejected(self):
        with pytest.raises(SamplingError, match="at least 2"):
            sample_random_pairs(build_bigram_counts({"solo"}), 1, seed=0)

    def test_zero_request(self):
        assert sample_random_pairs(build_bigram_counts(self.VOCAB), 0, seed=0) == []

    def test_negative_arguments_rejected(self):
        counts = build_bigram_counts(self.VOCAB)
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            sample_random_pairs(counts, -1, seed=0)
        # random.Random(-13) draws what random.Random(13) draws.
        with pytest.raises(ValueError, match="^seed must be nonnegative$"):
            sample_random_pairs(counts, 5, seed=-13)

    @given(
        vocab=st.sets(st.sampled_from("abcdefgh"), min_size=2, max_size=8),
        n=st.integers(min_value=0, max_value=20),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_contract_on_arbitrary_inputs(self, vocab, n, seed):
        available = len(vocab) * (len(vocab) - 1)
        if n > available:
            with pytest.raises(SamplingError):
                sample_random_pairs(build_bigram_counts(vocab), n, seed)
            return
        pairs = sample_random_pairs(build_bigram_counts(vocab), n, seed)
        assert len(pairs) == n
        assert len(set(pairs)) == n
        assert pairs == sample_random_pairs(build_bigram_counts(vocab), n, seed)

    def test_a_repeated_token_counts_once(self):
        """build_bigram_counts holds a repeated token once in the vocabulary
        that the draw reads."""
        assert set(sample_random_pairs(build_bigram_counts(["a", "a", "b"]), 2, seed=0)) == {
            LexemePair("a", "b"),
            LexemePair("b", "a"),
        }
        with pytest.raises(SamplingError, match=r"only 2 distinct .*\(short by 2\)"):
            sample_random_pairs(build_bigram_counts(["a", "a", "b"]), 4, seed=0)
        with pytest.raises(SamplingError, match=r"only 6 distinct .*\(short by 3\)"):
            sample_random_pairs(build_bigram_counts(["a", "a", "b", "c"]), 9, seed=0)
        with pytest.raises(SamplingError, match="need at least 2 vocabulary tokens, have 1"):
            sample_random_pairs(build_bigram_counts(["a", "a"]), 1, seed=0)
        assert sample_random_pairs(
            build_bigram_counts(["c", "a", "b", "a", "c"]), 6, seed=4
        ) == sample_random_pairs(build_bigram_counts(["a", "b", "c"]), 6, seed=4)

    @given(
        vocab=st.lists(st.sampled_from("abcdef"), min_size=2, max_size=10),
        # Tokens x and y are outside every vocabulary; a pair may be a
        # self-pair, a LexemePair or a tuple, and may come in both orientations.
        exclusions=st.lists(
            st.tuples(st.sampled_from("abcdefxy"), st.sampled_from("abcdefxy"), st.booleans(),
                      st.booleans()),
            max_size=12,
        ),
        n=st.integers(min_value=0, max_value=32),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @example(vocab=["a", "a", "b"], exclusions=[], n=4, seed=0)
    @example(vocab=["a", "b", "c"], exclusions=[("a", "b", True, True), ("c", "c", False, False)],
             n=4, seed=1)
    def test_equals_the_enumerated_draw(self, vocab, exclusions, n, seed):
        """The draw is random.Random(seed).sample of every non-excluded
        ordered pair, enumerated in sorted order, bit for bit."""
        keys = []
        for left, right, as_pair, both in exclusions:
            for key in [(left, right), (right, left)][: 1 + both]:
                keys.append(LexemePair(*key) if as_pair else key)
        candidates = random_pair_candidates(vocab, keys)
        counts = build_bigram_counts(vocab)
        if len(set(vocab)) < 2 and n > 0:
            with pytest.raises(SamplingError, match="need at least 2 vocabulary tokens"):
                sample_random_pairs(counts, n, seed, keys)
        elif n > len(candidates):
            with pytest.raises(SamplingError) as shortfall:
                sample_random_pairs(counts, n, seed, keys)
            assert str(shortfall.value) == (
                f"requested {n} random pairs but only {len(candidates)} distinct "
                f"non-excluded ordered pairs exist (short by {n - len(candidates)})"
            )
        else:
            assert sample_random_pairs(counts, n, seed, keys) == enumerated_random_pairs(
                vocab, n, seed, keys
            )

    def test_a_vocabulary_above_a_million_ordered_pairs(self):
        """1,001 tokens give more than a million ordered pairs, where earlier
        versions switched from enumeration to rejection sampling; the draw
        is still the enumerated one."""
        vocab = [f"w{i:04d}" for i in range(1001)]
        counts = build_bigram_counts(vocab)
        unexcluded = sample_random_pairs(counts, 500, seed=7)
        # Exclude the first 100 draws in both orientations.
        keys = [(p.left, p.right) for p in unexcluded[:100]]
        keys += [(right, left) for left, right in keys]
        pairs = sample_random_pairs(counts, 500, seed=7, exclusions=keys)
        assert pairs == sample_random_pairs(
            counts, 500, seed=7, exclusions=[LexemePair(*key) for key in keys]
        )
        assert unexcluded == enumerated_random_pairs(vocab, 500, seed=7)
        assert pairs == enumerated_random_pairs(vocab, 500, seed=7, exclusions=keys)
        assert len(pairs) == len(set(pairs)) == 500
        assert all(p.left != p.right for p in pairs)
        assert not {(p.left, p.right) for p in pairs} & set(keys)

    def test_a_few_pairs_from_many_words_list_no_candidates(self):
        """A million candidate pairs would take about 64 MB; the draw keeps
        only its own."""
        counts = build_bigram_counts([f"w{i:04d}" for i in range(1000)])
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            sample_random_pairs(counts, 100, seed=3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestTopCooccurringPairs:
    def test_hand_counted_example(self):
        counts = build_bigram_counts(tokenize("the cat sat the cat"))
        assert top_cooccurring_pairs(counts, 1) == [LexemePair("the", "cat")]

    def test_ordered_by_count_then_alphabetically(self):
        # Counts: (b,a)=2, (a,c)=2, (c,a)=2, (a,b)=1, (a,z)=1, (z,z)=1.
        counts = build_bigram_counts(tokenize("b a b a c a c a z z"))
        top = top_cooccurring_pairs(counts, 4)
        assert top == [
            LexemePair("a", "c"),
            LexemePair("b", "a"),
            LexemePair("c", "a"),
            LexemePair("a", "b"),
        ]

    def test_exclusions_removed_before_ranking(self):
        counts = build_bigram_counts(tokenize("the cat sat the cat"))
        top = top_cooccurring_pairs(counts, 1, exclusions=[("the", "cat")])
        assert top == [LexemePair("cat", "sat")]

    def test_shortfall_raises(self):
        counts = build_bigram_counts(tokenize("one two"))
        with pytest.raises(SamplingError, match="short by 2"):
            top_cooccurring_pairs(counts, 3)

    def test_counts_non_increasing_in_rank(self):
        counts = build_bigram_counts(
            tokenize("a b a b a b c d c d e f e f e f e f g h")
        )
        top = top_cooccurring_pairs(counts, len(counts))
        ranked = [counts.count(p.left, p.right) for p in top]
        assert ranked == sorted(ranked, reverse=True)


# "e" is drawn only for exclusions, so some excluded pairs lie outside the
# vocabulary.
_TOP_TOKENS = ("a", "b", "c", "d")
_TOP_KEYS = st.tuples(st.sampled_from((*_TOP_TOKENS, "e")), st.sampled_from(_TOP_TOKENS))


class TestTopCooccurringPairsProperties:
    @given(
        tokens=st.lists(st.sampled_from(_TOP_TOKENS), max_size=40),
        exclusions=st.lists(_TOP_KEYS, max_size=6),
        as_lexeme_pairs=st.booleans(),
        n=st.integers(min_value=0, max_value=18),
    )
    # Counts ab 2, cd 2, ba 1, bc 1, dc 1: the cut at n = 3 falls among the 1s.
    @example(tokens=list("ababcdcd"), exclusions=[], as_lexeme_pairs=False, n=3)
    @example(tokens=list("abab"), exclusions=[("a", "b")], as_lexeme_pairs=True, n=0)
    # All that remain once bc is excluded.
    @example(tokens=list("ababcdcd"), exclusions=[("b", "c")], as_lexeme_pairs=False, n=4)
    def test_matches_full_sort(self, tokens, exclusions, as_lexeme_pairs, n):
        """Equal to the full sort by (-count, left, right), ties and exclusions
        included, for n drawn, 0 and all that remain; short by k raises."""
        counts = Counter(zip(tokens, tokens[1:]))
        bigrams = build_bigram_counts(tokens)
        excluded = [LexemePair(*key) for key in exclusions] if as_lexeme_pairs else exclusions
        remaining = [
            (left, right, count)
            for (left, right), count in counts.items()
            if (left, right) not in exclusions
        ]
        remaining.sort(key=lambda item: (-item[2], item[0], item[1]))
        for k in {n, 0, len(remaining)}:
            if k > len(remaining):
                with pytest.raises(SamplingError, match=f"short by {k - len(remaining)}"):
                    top_cooccurring_pairs(bigrams, k, excluded)
            else:
                expected = [LexemePair(left, right) for left, right, _ in remaining[:k]]
                assert top_cooccurring_pairs(bigrams, k, excluded) == expected
