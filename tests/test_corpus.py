"""Tokenization, bigram counting, and the two negative-pair samplers."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from mwedetect.corpus import (
    BigramCounts,
    build_bigram_counts,
    read_corpus,
    sample_random_pairs,
    tokenize,
    top_cooccurring_pairs,
)
from mwedetect.errors import CorpusError, SamplingError
from mwedetect.pairs import LexemePair


class TestTokenize:
    def test_lowercases_and_splits_on_non_letters(self):
        stream = tokenize("The hot-dog, 42 times!")
        assert stream.tokens == ("the", "hot", "dog", "times")

    def test_apostrophes_split(self):
        assert tokenize("don't").tokens == ("don", "t")

    def test_digits_and_punctuation_drop_out(self):
        assert tokenize("3.14 ... !!").tokens == ()

    def test_empty_text(self):
        assert tokenize("").tokens == ()

    @given(st.text(max_size=200))
    def test_tokens_are_lowercase_alphabetic(self, text):
        for token in tokenize(text).tokens:
            assert token
            assert token == token.lower()
            assert token.isascii() and token.isalpha()

    @given(st.text(max_size=200))
    def test_retokenizing_joined_output_is_stable(self, text):
        tokens = tokenize(text).tokens
        assert tokenize(" ".join(tokens)).tokens == tokens


class TestReadCorpus:
    def test_reads_single_file(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("Alpha beta. Gamma!", encoding="utf-8")
        assert read_corpus(path).tokens == ("alpha", "beta", "gamma")

    def test_directory_files_in_sorted_order(self, tmp_path):
        (tmp_path / "b.txt").write_text("second", encoding="utf-8")
        (tmp_path / "a.txt").write_text("first", encoding="utf-8")
        assert read_corpus(tmp_path).tokens == ("first", "second")

    def test_directory_boundary_breaks_bigrams(self, tmp_path):
        # The newline joint means the last token of one file and the first of
        # the next still form a bigram; the tokenizer has no file awareness.
        (tmp_path / "a.txt").write_text("one two", encoding="utf-8")
        (tmp_path / "b.txt").write_text("three", encoding="utf-8")
        counts = build_bigram_counts(read_corpus(tmp_path))
        assert counts.counts == {("one", "two"): 1, ("two", "three"): 1}

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(CorpusError, match="no files"):
            read_corpus(tmp_path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_corpus(tmp_path / "absent.txt")


class TestBigramCounts:
    def test_hand_counted_example(self):
        counts = build_bigram_counts(tokenize("the cat sat the cat"))
        assert counts.counts == {("the", "cat"): 2, ("cat", "sat"): 1, ("sat", "the"): 1}
        assert counts.total_bigrams == 4

    def test_single_token_has_no_bigrams(self):
        counts = build_bigram_counts(tokenize("lonely"))
        assert counts.counts == {}
        assert counts.total_bigrams == 0

    def test_empty_stream(self):
        counts = build_bigram_counts(tokenize(""))
        assert counts.total_bigrams == 0

    @given(st.text(max_size=300))
    def test_totals_match_token_count(self, text):
        stream = tokenize(text)
        counts = build_bigram_counts(stream)
        assert counts.total_bigrams == max(0, len(stream.tokens) - 1)
        assert sum(counts.counts.values()) == counts.total_bigrams


class TestSampleRandomPairs:
    VOCAB = {"ant", "bee", "cat", "dog", "elk"}

    def test_deterministic_per_seed(self):
        first = sample_random_pairs(self.VOCAB, 5, seed=13)
        second = sample_random_pairs(self.VOCAB, 5, seed=13)
        assert first == second

    def test_vocabulary_iteration_order_is_irrelevant(self):
        as_list = ["elk", "dog", "cat", "bee", "ant"]
        assert sample_random_pairs(self.VOCAB, 5, seed=13) == sample_random_pairs(
            as_list, 5, seed=13
        )

    def test_pairs_are_distinct_tokens_from_vocabulary(self):
        pairs = sample_random_pairs(self.VOCAB, 10, seed=1)
        assert len(set(pairs)) == 10
        for pair in pairs:
            assert pair.left in self.VOCAB
            assert pair.right in self.VOCAB
            assert pair.left != pair.right

    def test_exclusions_are_ordered_pairs(self):
        excluded = LexemePair("ant", "bee")
        pairs = sample_random_pairs(self.VOCAB, 19, seed=3, exclusions=[excluded])
        assert excluded not in pairs
        # 5*4 = 20 ordered pairs minus the excluded one leaves exactly 19,
        # so the reversed orientation must still be present.
        assert LexemePair("bee", "ant") in pairs

    def test_oversampling_reports_shortfall(self):
        with pytest.raises(SamplingError, match="short by 1"):
            sample_random_pairs(self.VOCAB, 21, seed=0)

    def test_tiny_vocabulary_rejected(self):
        with pytest.raises(SamplingError, match="at least 2"):
            sample_random_pairs({"solo"}, 1, seed=0)

    def test_zero_request(self):
        assert sample_random_pairs(self.VOCAB, 0, seed=0) == []

    @given(
        vocab=st.sets(st.sampled_from("abcdefgh"), min_size=2, max_size=8),
        n=st.integers(min_value=0, max_value=20),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_contract_on_arbitrary_inputs(self, vocab, n, seed):
        available = len(vocab) * (len(vocab) - 1)
        if n > available:
            with pytest.raises(SamplingError):
                sample_random_pairs(vocab, n, seed)
            return
        pairs = sample_random_pairs(vocab, n, seed)
        assert len(pairs) == n
        assert len(set(pairs)) == n
        assert pairs == sample_random_pairs(vocab, n, seed)


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
        top = top_cooccurring_pairs(counts, len(counts.counts))
        ranked = [counts.counts[(p.left, p.right)] for p in top]
        assert ranked == sorted(ranked, reverse=True)


_TOP_TOKENS = ("a", "b", "c", "d")
_TOP_KEYS = st.tuples(st.sampled_from(_TOP_TOKENS), st.sampled_from(_TOP_TOKENS))


class TestTopCooccurringPairsProperties:
    @given(
        counts=st.dictionaries(_TOP_KEYS, st.integers(min_value=1, max_value=3)),
        exclusions=st.lists(_TOP_KEYS, max_size=6),
        as_lexeme_pairs=st.booleans(),
        n=st.integers(min_value=0, max_value=18),
    )
    def test_matches_full_sort(self, counts, exclusions, as_lexeme_pairs, n):
        """Equal to the full sort by (-count, left, right), ties and exclusions
        included, for n drawn, 0 and all that remain; short by k raises."""
        bigrams = BigramCounts(counts=counts)
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
