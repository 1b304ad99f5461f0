"""Definition lexicon parsing and definition-embedding construction."""

from __future__ import annotations

import functools
import logging
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mwedetect import definitions
from mwedetect.corpus import tokenize
from mwedetect.definitions import (
    ALL_OOV,
    ALL_STOPWORDS,
    NO_DEFINITION,
    DefinitionLexicon,
    definition_embedding,
    definition_sums,
    load_definitions,
    load_stopwords,
    resolve_definitions,
)
from mwedetect.embeddings import load_embeddings
from mwedetect.errors import LexiconFormatError

from conftest import alphabetic_token, make_table


class TestLoadDefinitions:
    def test_parses_and_tokenizes(self):
        lexicon = load_definitions(["hot\ta Jet, or similar!"])
        assert "hot" in lexicon
        assert tokenize(lexicon.definitions["hot"]) == ("a", "jet", "or", "similar")

    def test_first_definition_wins(self):
        lexicon = load_definitions(["bank\tmoney house", "bank\triver side"])
        assert "bank" in lexicon
        assert tokenize(lexicon.definitions["bank"]) == ("money", "house")

    def test_lexeme_lowercased(self):
        lexicon = load_definitions(["Jet\tfast plane"])
        assert "jet" in lexicon
        assert "JET" in lexicon
        assert tokenize(lexicon.definitions["JET".lower()]) == ("fast", "plane")

    def test_only_first_tab_separates(self):
        lexicon = load_definitions(["a\tb\tc"])
        assert "a" in lexicon
        assert tokenize(lexicon.definitions["a"]) == ("b", "c")

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
        lexicon = load_definitions(["x\ty"])
        assert "absent" not in lexicon
        assert "absent" not in lexicon.definitions


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
    """The per-line rules, written out: each lexeme's definition, or the first error message."""
    definitions = {}
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
        if lexeme in definitions:
            continue
        if not _reference_tokens(definition):
            return f"line {lineno}: definition has no usable tokens"
        definitions[lexeme] = definition
    return definitions


def _reference_tokens(definition):
    return tuple(re.findall("[a-z]+", definition.lower()))


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
            lexicon = load_definitions(lines)
            assert lexicon.definitions == expected
            for lexeme, definition in expected.items():
                assert lexeme in lexicon
                assert tokenize(lexicon.definitions[lexeme]) == _reference_tokens(definition)

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
    tokens = tuple(alphabetic_token("t", i) for i in range(len(rows)))
    table = make_table(dict(zip(tokens, rows)), dimension=len(rows[0]))
    lexicon = DefinitionLexicon(definitions={"x": " ".join(tokens)})
    vector, reason = definition_embedding(lexicon, table, "x")
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
        table = make_table({"ta": first, "tb": second}, dimension=2)
        lexicon = DefinitionLexicon(definitions={"x": "ta tb", "y": "ta"})
        definition_embedding(lexicon, table, "x")
        np.testing.assert_array_equal(first, [1.0, 2.0])
        np.testing.assert_array_equal(second, [3.0, 4.0])
        single, _ = definition_embedding(lexicon, table, "y")
        single += 1.0
        np.testing.assert_array_equal(first, [1.0, 2.0])
        np.testing.assert_array_equal(table.matrix, [[1.0, 2.0], [3.0, 4.0]])

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
        lexicon = DefinitionLexicon(definitions={"x": "qqq rrr"})
        vector, reason = definition_embedding(lexicon, toy_table, "x")
        assert vector is None
        assert reason == ALL_OOV

    def test_all_stopwords_reason(self, toy_table):
        lexicon = DefinitionLexicon(definitions={"x": "the a"})
        vector, reason = definition_embedding(lexicon, toy_table, "x", frozenset({"the", "a"}))
        assert vector is None
        assert reason == ALL_STOPWORDS

    def test_stopword_filter_runs_before_oov_check(self, toy_table):
        # "the" is in the embedding table, so the all-stopwords verdict must
        # come from filtering, not from vocabulary lookup.
        lexicon = DefinitionLexicon(definitions={"x": "the"})
        _, reason = definition_embedding(lexicon, toy_table, "x", frozenset({"the"}))
        assert reason == ALL_STOPWORDS

    def test_empty_stopword_set_equals_no_stopword_set(self, toy_table, toy_lexicon):
        for lexeme in toy_lexicon.definitions:
            unfiltered, _ = definition_embedding(toy_lexicon, toy_table, lexeme)
            empty_filtered, _ = definition_embedding(
                toy_lexicon, toy_table, lexeme, frozenset()
            )
            assert unfiltered.tobytes() == empty_filtered.tobytes()

    def test_tokenless_definition(self, toy_table):
        # The loader rejects such a definition, but a lexicon built directly
        # may hold one: filtering leaves no token, and without a filter no
        # token has a vector.
        lexicon = DefinitionLexicon(definitions={"x": "123"})
        assert definition_embedding(lexicon, toy_table, "x", frozenset()) == (None, ALL_STOPWORDS)
        assert definition_embedding(lexicon, toy_table, "x") == (None, ALL_OOV)

    def test_oov_only_definition_with_empty_filter(self):
        table = load_embeddings(["w 1 0"])
        lexicon = DefinitionLexicon(definitions={"x": "unknown"})
        _, reason = definition_embedding(lexicon, table, "x", frozenset())
        assert reason == ALL_OOV


# Definition tokens: some in the table, some not, any of them a stop word.
_WORDS = tuple(alphabetic_token("t", i) for i in range(8))
_LEXEMES = ("la", "lb", "lc", "ld", "le", "lf")
# Small values, a negative zero that a sum may not turn positive, or values
# whose sum overflows float64 (to inf, or to NaN when an inf meets a -inf).
_COMPONENTS = st.one_of(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.sampled_from([-0.0, 1e308, -1e308, 8.9e307]),
)


@st.composite
def _bulk_inputs(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    vectors = draw(
        st.dictionaries(
            st.sampled_from(_WORDS), st.lists(_COMPONENTS, min_size=dim, max_size=dim), min_size=1
        )
    )
    definitions = draw(
        st.dictionaries(
            st.sampled_from(_LEXEMES),
            st.lists(st.sampled_from(_WORDS), min_size=1, max_size=12).map(" ".join),
        )
    )
    # Repeats and lexemes without a definition included.
    lexemes = draw(st.lists(st.sampled_from(_LEXEMES + ("LA", "absent")), max_size=10))
    stopwords = draw(st.none() | st.frozensets(st.sampled_from(_WORDS)))
    block_rows = draw(st.integers(min_value=1, max_value=5))
    lexicon = DefinitionLexicon(definitions=definitions)
    return make_table(vectors, dim), lexicon, lexemes, stopwords, block_rows


def _reference_sum(table, lexicon, lexeme, stopwords):
    """One lexeme's (vector, reason), with its rows added left to right."""
    definition = lexicon.definitions.get(lexeme.lower())
    if definition is None:
        return None, NO_DEFINITION
    tokens = definition.split(" ")
    if stopwords is not None:
        tokens = [t for t in tokens if t not in stopwords]
        if not tokens:
            return None, ALL_STOPWORDS
    rows = [table.matrix[table.index[t.lower()]] for t in tokens if t in table]
    if not rows:
        return None, ALL_OOV
    with np.errstate(over="ignore", invalid="ignore"):
        return functools.reduce(np.add, rows), None


def _dropped_oov(table, lexicon, lexemes, stopwords):
    """The out-of-vocabulary tokens of the definitions that get a sum, one lexeme at a time."""
    dropped = 0
    for lexeme in lexemes:
        tokens = tokenize(lexicon.definitions[lexeme.lower()]) if lexeme in lexicon else ()
        if stopwords is not None:
            tokens = [t for t in tokens if t not in stopwords]
        missing = sum(t not in table for t in tokens)
        if missing < len(tokens):  # a token in the table: the lexeme gets a sum
            dropped += missing
    return dropped


def _bits(vector, reason):
    return reason, None if vector is None else vector.tobytes()


class TestDefinitionEmbeddingsProperties:
    @settings(max_examples=200, deadline=None)
    @given(_bulk_inputs())
    def test_bit_identical_to_per_lexeme_reference(self, inputs):
        """Each sum equals the left-to-right sum of its rows bit for bit, in
        blocks smaller than the batch, for both methods from one resolution,
        and definition_embedding is its one-lexeme case."""
        table, lexicon, lexemes, stopwords, block_rows = inputs
        with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore", invalid="ignore"):
            patch.setattr(definitions, "BLOCK_ROWS", block_rows)
            resolved = resolve_definitions(lexicon, table, lexemes, stopwords)
            by_method = {flag: definition_sums(resolved, table, flag) for flag in (True, False)}
            single = [definition_embedding(lexicon, table, lexeme, stopwords) for lexeme in lexemes]
        reasons = (NO_DEFINITION, ALL_STOPWORDS, ALL_OOV)
        for content, (sums, where) in by_method.items():
            assert where.shape == (len(lexemes),)
            assert sorted(w for w in where.tolist() if w >= 0) == list(range(len(sums)))
            assert sums.shape[1:] == (table.dimension,)
            for lexeme, found in zip(lexemes, where.tolist()):
                got = (None, reasons[-found - 1]) if found < 0 else (sums[found], None)
                expected = _reference_sum(table, lexicon, lexeme, stopwords if content else None)
                assert _bits(*got) == _bits(*expected)
        for lexeme, one in zip(lexemes, single):
            assert _bits(*one) == _bits(*_reference_sum(table, lexicon, lexeme, stopwords))

    @settings(max_examples=50, deadline=None)
    @given(_bulk_inputs())
    def test_empty_stopword_set_is_the_identity(self, inputs):
        table, lexicon, lexemes, _, block_rows = inputs
        with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore", invalid="ignore"):
            patch.setattr(definitions, "BLOCK_ROWS", block_rows)
            plain = definition_sums(resolve_definitions(lexicon, table, lexemes, None), table, True)
            empty = definition_sums(
                resolve_definitions(lexicon, table, lexemes, frozenset()), table, True
            )
        assert plain[1].tolist() == empty[1].tolist()
        assert plain[0].tobytes() == empty[0].tobytes()

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(inputs=_bulk_inputs())
    def test_debug_log_counts_dropped_oov_tokens(self, caplog, inputs):
        """At debug level one line counts the out-of-vocabulary tokens dropped
        from the definitions that still get a sum; filtered stop words are
        not among them."""
        table, lexicon, lexemes, stopwords, _ = inputs
        resolved = resolve_definitions(lexicon, table, lexemes, stopwords)
        for content in (True, False):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, definitions.__name__), np.errstate(all="ignore"):
                definition_sums(resolved, table, content)
            dropped = _dropped_oov(table, lexicon, lexemes, stopwords if content else None)
            assert [r.getMessage() for r in caplog.records if r.name == definitions.__name__] == [
                f"definition sums: {dropped} token(s) out of vocabulary dropped"
            ]
