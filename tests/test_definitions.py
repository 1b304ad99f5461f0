"""Definition lexicon parsing and definition-embedding construction."""

from __future__ import annotations

import functools
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mwedetect.definitions import (
    ALL_OOV,
    ALL_STOPWORDS,
    NO_DEFINITION,
    DefinitionLexicon,
    definition_embedding,
    load_definitions,
    load_stopwords,
)
from mwedetect.embeddings import EmbeddingTable, load_embeddings
from mwedetect.errors import LexiconFormatError


class TestLoadDefinitions:
    def test_parses_and_tokenizes(self):
        lexicon = load_definitions(["hot\ta Jet, or similar!"])
        assert lexicon.get("hot") == ("a", "jet", "or", "similar")

    def test_first_definition_wins(self):
        lexicon = load_definitions(["bank\tmoney house", "bank\triver side"])
        assert lexicon.get("bank") == ("money", "house")

    def test_lexeme_lowercased(self):
        lexicon = load_definitions(["Jet\tfast plane"])
        assert "jet" in lexicon
        assert lexicon.get("JET") == ("fast", "plane")

    def test_only_first_tab_separates(self):
        lexicon = load_definitions(["a\tb\tc"])
        assert lexicon.get("a") == ("b", "c")

    def test_blank_lines_skipped(self):
        lexicon = load_definitions(["", "x\ty", "   "])
        assert len(lexicon) == 1

    def test_missing_tab_raises(self):
        with pytest.raises(LexiconFormatError, match="line 2"):
            load_definitions(["ok\tfine", "broken line"])

    def test_empty_lexeme_raises(self):
        with pytest.raises(LexiconFormatError, match="line 1: empty lexeme"):
            load_definitions(["\tdefinition"])

    def test_lexeme_with_space_raises(self):
        with pytest.raises(LexiconFormatError, match="whitespace"):
            load_definitions(["two words\tdefinition"])

    def test_definition_without_usable_tokens_raises(self):
        with pytest.raises(LexiconFormatError, match="no usable tokens"):
            load_definitions(["num\t1234 !!"])

    def test_missing_lexeme_returns_none(self):
        assert load_definitions(["x\ty"]).get("absent") is None


class TestLoadStopwords:
    def test_lowercased_set(self):
        assert load_stopwords(["The", "a", "", "OF"]) == frozenset({"the", "a", "of"})

    def test_surrounding_whitespace_stripped(self):
        assert load_stopwords(["  the \n"]) == frozenset({"the"})

    def test_embedded_whitespace_raises(self):
        with pytest.raises(LexiconFormatError, match="line 1"):
            load_stopwords(["two words"])


# Lines mixing letters, tabs, Unicode whitespace and characters that are not
# whitespace, so every loader rule is reached.
_LEXICON_LINES = st.lists(
    st.text(alphabet="aB1 \t\u00a0\u2028\x1c\u00e9,", max_size=8), max_size=8
)


def _reference_definitions(lines):
    """The per-line rules, written out: entries, or the first error message."""
    entries = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        if "\t" not in line:
            return f"line {lineno}: expected `lexeme<TAB>definition`"
        lexeme, definition = line.split("\t", 1)
        lexeme = lexeme.strip().lower()
        if not lexeme:
            return f"line {lineno}: empty lexeme"
        if any(ch.isspace() for ch in lexeme):
            return f"line {lineno}: lexeme contains whitespace: {lexeme!r}"
        if lexeme in entries:
            continue
        tokens = tuple(re.findall("[a-z]+", definition.lower()))
        if not tokens:
            return f"line {lineno}: definition has no usable tokens"
        entries[lexeme] = tokens
    return entries


def _reference_stopwords(lines):
    words = set()
    for lineno, raw in enumerate(lines, start=1):
        word = raw.strip()
        if word and any(ch.isspace() for ch in word):
            return f"line {lineno}: stop word contains whitespace: {word!r}"
        if word:
            words.add(word.lower())
    return frozenset(words)


class TestLoaderRulesProperties:
    @given(_LEXICON_LINES)
    def test_definitions_match_per_line_rules(self, lines):
        expected = _reference_definitions(lines)
        if isinstance(expected, str):
            with pytest.raises(LexiconFormatError) as caught:
                load_definitions(lines)
            assert str(caught.value) == expected
        else:
            assert load_definitions(lines).entries == expected

    @given(_LEXICON_LINES)
    def test_stopwords_match_per_line_rules(self, lines):
        expected = _reference_stopwords(lines)
        if isinstance(expected, str):
            with pytest.raises(LexiconFormatError) as caught:
                load_stopwords(lines)
            assert str(caught.value) == expected
        else:
            assert load_stopwords(lines) == expected


def _summed(rows):
    """``definition_embedding`` of a lexeme whose definition has exactly ``rows`` as vectors."""
    tokens = tuple(f"t{i}" for i in range(len(rows)))
    table = EmbeddingTable(dimension=len(rows[0]), entries=dict(zip(tokens, rows)))
    vector, reason = definition_embedding(DefinitionLexicon(entries={"x": tokens}), table, "x")
    assert reason is None
    return vector


class TestDefinitionEmbedding:
    def test_exact_sum(self):
        total = _summed([np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])])
        np.testing.assert_array_equal(total, [9.0, 12.0])

    def test_single_vector_identity(self):
        np.testing.assert_array_equal(_summed([np.array([1.5, -2.5])]), [1.5, -2.5])

    def test_left_to_right_determinism(self):
        # Floating-point addition is order-sensitive; the sum must be the
        # left-to-right one, bit for bit.
        rng = np.random.default_rng(3)
        rows = [rng.uniform(-1, 1, size=8) for _ in range(50)]
        assert _summed(rows).tobytes() == functools.reduce(np.add, rows).tobytes()

    def test_does_not_mutate_inputs(self):
        first = np.array([1.0, 2.0])
        second = np.array([3.0, 4.0])
        _summed([first, second])
        np.testing.assert_array_equal(first, [1.0, 2.0])
        np.testing.assert_array_equal(second, [3.0, 4.0])
        single = _summed([first])
        single += 1.0
        np.testing.assert_array_equal(first, [1.0, 2.0])

    def test_sums_definition_vectors_in_order(self, toy_table, toy_lexicon):
        # jet is defined as "a jet": the sum of those two vectors, exactly.
        vector, reason = definition_embedding(toy_lexicon, toy_table, "jet")
        assert reason is None
        np.testing.assert_array_equal(vector, [1.1, 0.1, 0.1, 0.09])

    def test_stopword_filtering_changes_the_sum(self, toy_table, toy_lexicon, toy_stopwords):
        vector, reason = definition_embedding(toy_lexicon, toy_table, "jet", toy_stopwords)
        assert reason is None
        np.testing.assert_array_equal(vector, [1.0, 0.0, 0.0, 0.0])

    def test_oov_definition_tokens_are_dropped(self, toy_table, toy_lexicon):
        # home is defined as "a home place" and "place" has no vector.
        vector, reason = definition_embedding(toy_lexicon, toy_table, "home")
        assert reason is None
        np.testing.assert_array_equal(vector, [0.1, 0.1, 1.1, 0.09])

    def test_no_definition_reason(self, toy_table, toy_lexicon):
        vector, reason = definition_embedding(toy_lexicon, toy_table, "zzz")
        assert vector is None
        assert reason == NO_DEFINITION

    def test_all_oov_reason(self, toy_table):
        lexicon = DefinitionLexicon(entries={"x": ("qqq", "rrr")})
        vector, reason = definition_embedding(lexicon, toy_table, "x")
        assert vector is None
        assert reason == ALL_OOV

    def test_all_stopwords_reason(self, toy_table):
        lexicon = DefinitionLexicon(entries={"x": ("the", "a")})
        vector, reason = definition_embedding(lexicon, toy_table, "x", frozenset({"the", "a"}))
        assert vector is None
        assert reason == ALL_STOPWORDS

    def test_stopword_filter_runs_before_oov_check(self, toy_table):
        # "the" is in the embedding table, so the all-stopwords verdict must
        # come from filtering, not from vocabulary lookup.
        lexicon = DefinitionLexicon(entries={"x": ("the",)})
        _, reason = definition_embedding(lexicon, toy_table, "x", frozenset({"the"}))
        assert reason == ALL_STOPWORDS

    def test_empty_stopword_set_equals_no_stopword_set(self, toy_table, toy_lexicon):
        for lexeme in toy_lexicon.entries:
            unfiltered, _ = definition_embedding(toy_lexicon, toy_table, lexeme)
            empty_filtered, _ = definition_embedding(
                toy_lexicon, toy_table, lexeme, frozenset()
            )
            assert unfiltered.tobytes() == empty_filtered.tobytes()

    def test_oov_only_definition_with_empty_filter(self):
        table = load_embeddings(["w 1 0"])
        lexicon = DefinitionLexicon(entries={"x": ("unknown",)})
        _, reason = definition_embedding(lexicon, table, "x", frozenset())
        assert reason == ALL_OOV
