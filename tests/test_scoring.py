"""The pair scorer under each method, and the threshold judgement."""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mwedetect import definitions

from mwedetect.definitions import (
    ALL_OOV,
    ALL_STOPWORDS,
    NO_DEFINITION,
    resolve_definitions,
)
from mwedetect.corpus import build_bigram_counts, tokenize
from mwedetect.embeddings import cosine, load_embeddings
from mwedetect.errors import ConfigError
from mwedetect.pairs import LexemePair
from mwedetect.pipeline import PairSource, calibrate_threshold, evaluate, scan_corpus
from mwedetect.scoring import (
    LEFT_OOV,
    NON_FINITE,
    RIGHT_OOV,
    UNSCORABLE_REASONS,
    ZERO_NORM,
    Judgement,
    ScoreMethod,
    ScoreOutcome,
    classify,
    is_compound,
    lexeme_ids,
    score_ids,
    score_pair,
)

from conftest import make_table, score_arrays

ALL_METHODS = list(ScoreMethod)
WORD = ScoreMethod.WORD_SIMILARITY
DEFINITION = ScoreMethod.DEFINITION_SIMILARITY
CONTENT = ScoreMethod.DEFINITION_CONTENT_SIMILARITY


class TestLexemePair:
    def test_normalizes_to_lowercase(self):
        pair = LexemePair("Jet", "LAG")
        assert (pair.left, pair.right) == ("jet", "lag")

    def test_empty_token_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            LexemePair("", "x")

    def test_whitespace_token_rejected(self):
        with pytest.raises(ValueError, match="whitespace"):
            LexemePair("two words", "x")

    # ASCII and Unicode whitespace, the information separators \x1c-\x1f that
    # str.isspace() counts as whitespace, and look-alikes that are not
    # whitespace (zero-width space, word joiner).
    @given(
        st.one_of(
            st.text(
                alphabet="aB \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029"
                "\u202f\u3000\u200b\u2060",
                min_size=1,
                max_size=6,
            ),
            st.text(min_size=1, max_size=6),
        )
    )
    def test_whitespace_rule_matches_per_character_rule(self, token):
        try:
            LexemePair(token, "x")
        except ValueError as exc:
            assert "whitespace" in str(exc)
            assert any(ch.isspace() for ch in token)
        else:
            assert not any(ch.isspace() for ch in token)

    def test_equal_tokens_allowed(self):
        # Corpora contain bigrams like "the the"; rejecting self-pairs is the
        # dataset loader's job, not the pair type's.
        assert LexemePair("the", "the").left == "the"


class TestScoreOutcome:
    def test_requires_exactly_one_field(self):
        with pytest.raises(ValueError):
            ScoreOutcome(value=0.5, unscorable_reason=LEFT_OOV)
        with pytest.raises(ValueError):
            ScoreOutcome()

    def test_value_range_checked(self):
        with pytest.raises(ValueError, match="outside"):
            ScoreOutcome.scored(1.5)

    def test_unknown_reason_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ScoreOutcome.unscorable("melted")

    def test_is_scorable(self):
        assert ScoreOutcome.scored(0.0).is_scorable
        assert not ScoreOutcome.unscorable(LEFT_OOV).is_scorable


class TestWordSimilarity:
    def test_orthogonal_compound_scores_zero(self, toy_table):
        outcome = score_pair(WORD, toy_table, None, None, LexemePair("jet", "lag"))
        assert outcome.value == 0.0

    def test_left_oov_checked_first(self, toy_table):
        outcome = score_pair(WORD, toy_table, None, None, LexemePair("zzz", "qqq"))
        assert outcome.unscorable_reason == LEFT_OOV

    def test_right_oov(self, toy_table):
        outcome = score_pair(WORD, toy_table, None, None, LexemePair("jet", "qqq"))
        assert outcome.unscorable_reason == RIGHT_OOV

    def test_zero_norm_vector_unscorable(self):
        table = load_embeddings(["null 0 0", "unit 1 0"])
        outcome = score_pair(WORD, table, None, None, LexemePair("null", "unit"))
        assert outcome.unscorable_reason == ZERO_NORM

    def test_self_pair_scores_one(self, toy_table):
        for token in ("jet", "video", "the"):
            outcome = score_pair(WORD, toy_table, None, None, LexemePair(token, token))
            assert outcome.value == 1.0


class TestDefinitionSimilarity:
    def test_identical_definitions_score_one(self, toy_table, toy_lexicon):
        # hot and the are both defined as "a jet".
        outcome = score_pair(DEFINITION, toy_table, toy_lexicon, None, LexemePair("hot", "the"))
        assert outcome.value == 1.0

    def test_missing_definition_unscorable(self, toy_table):
        lexicon = {"jet": "a jet"}
        outcome = score_pair(DEFINITION, toy_table, lexicon, None, LexemePair("jet", "lag"))
        assert outcome.unscorable_reason == NO_DEFINITION

    def test_uses_definition_vectors_not_word_vectors(self, toy_table):
        # Orthogonal word vectors, identical definitions: the definition
        # method must ignore the word-level disagreement entirely.
        lexicon = {"jet": "home", "lag": "home"}
        outcome = score_pair(DEFINITION, toy_table, lexicon, None, LexemePair("jet", "lag"))
        assert outcome.value == 1.0
        word = score_pair(WORD, toy_table, None, None, LexemePair("jet", "lag"))
        assert word.value == 0.0


class TestDefinitionContentSimilarity:
    def test_stopword_filtering_drives_the_score(self):
        # With the stop word removed both definitions reduce to the same
        # token, so the score is exactly 1 despite different raw sums.
        table = load_embeddings(["the 9 9", "x 1 0"])
        lexicon = {"a": "the x", "b": "x"}
        outcome = score_pair(CONTENT, table, lexicon, frozenset({"the"}), LexemePair("a", "b"))
        assert outcome.value == 1.0

    def test_empty_stopword_set_is_the_identity(self, toy_table, toy_lexicon):
        vocab = list(toy_lexicon)
        for left, right in itertools.product(vocab, repeat=2):
            pair = LexemePair(left, right)
            filtered = score_pair(CONTENT, toy_table, toy_lexicon, frozenset(), pair)
            unfiltered = score_pair(DEFINITION, toy_table, toy_lexicon, None, pair)
            assert filtered == unfiltered

    def test_all_stopword_definition_unscorable(self, toy_table, toy_stopwords):
        lexicon = {"x": "the a", "y": "jet"}
        outcome = score_pair(CONTENT, toy_table, lexicon, toy_stopwords, LexemePair("x", "y"))
        assert outcome.unscorable_reason == "all-stopwords"


class TestScorerSymmetry:
    def test_all_methods_symmetric_on_full_fixture(self, toy_table, toy_lexicon, toy_stopwords):
        vocab = sorted(toy_table.index)
        for left, right in itertools.combinations(vocab, 2):
            pair = LexemePair(left, right)
            flipped = LexemePair(right, left)
            for method in ALL_METHODS:
                one = score_pair(method, toy_table, toy_lexicon, toy_stopwords, pair)
                other = score_pair(method, toy_table, toy_lexicon, toy_stopwords, flipped)
                if one.is_scorable:
                    assert one.value == other.value
                else:
                    # Reasons flip sides but the unscorable verdict may not.
                    assert not other.is_scorable


# Lexemes that may lack a vector, and definition tokens that may lack an
# embedding. Small integer components keep every definition sum exact, so
# "zero vector" is decided without round-off.
_LEXEMES = ("a", "b", "c", "d")
_TOKENS = _LEXEMES + ("x", "y")
_VECTORS = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def _scoring_inputs(draw):
    rows = draw(st.dictionaries(st.sampled_from(_TOKENS), _VECTORS))
    table = make_table(rows, dimension=2)
    definitions = draw(
        st.dictionaries(
            st.sampled_from(_LEXEMES),
            st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=3).map(" ".join),
        )
    )
    stopwords = draw(st.frozensets(st.sampled_from(_TOKENS)))
    return table, definitions, stopwords


def _side(method, table, lexicon, stopwords, lexeme, oov_reason):
    """Reference (vector, reason) for one lexeme, built without mwedetect."""
    if method is WORD:
        if lexeme not in table:
            return None, oov_reason
        return table.matrix[table.index[lexeme.lower()]], None
    definition = lexicon.get(lexeme)
    if definition is None:
        return None, NO_DEFINITION
    tokens = definition.split(" ")
    if method is CONTENT:
        tokens = [t for t in tokens if t not in stopwords]
        if not tokens:
            return None, ALL_STOPWORDS
    rows = [table.matrix[table.index[t.lower()]] for t in tokens if t in table]
    if not rows:
        return None, ALL_OOV
    with np.errstate(over="ignore"):
        return functools.reduce(np.add, rows), None


class TestScorePairProperties:
    @given(_scoring_inputs())
    def test_matches_reference_vectors(self, inputs):
        """Unscorable exactly when a side's vector is missing or zero; the
        left side's reason wins; scores are symmetric; word scores are the
        cosine of the two table rows."""
        table, lexicon, stopwords = inputs
        for method in ALL_METHODS:
            for left, right in itertools.product(_LEXEMES, repeat=2):
                pair = LexemePair(left, right)
                outcome = score_pair(method, table, lexicon, stopwords, pair)
                left_vec, left_reason = _side(method, table, lexicon, stopwords, left, LEFT_OOV)
                right_vec, right_reason = _side(method, table, lexicon, stopwords, right, RIGHT_OOV)
                if left_vec is None:
                    assert outcome.unscorable_reason == left_reason
                elif right_vec is None:
                    assert outcome.unscorable_reason == right_reason
                elif not left_vec.any() or not right_vec.any():
                    assert outcome.unscorable_reason == ZERO_NORM
                else:
                    assert outcome.is_scorable
                    if method is WORD:
                        u = table.matrix[table.index[left.lower()]]
                        v = table.matrix[table.index[right.lower()]]
                        assert outcome.value == cosine(u, v)
                flipped = score_pair(method, table, lexicon, stopwords, LexemePair(right, left))
                assert flipped.value == outcome.value
                assert flipped.is_scorable == outcome.is_scorable


class TestNonFiniteScores:
    def test_overflowing_definition_sum_is_unscorable(self):
        # a + a overflows to [inf, 2]; its cosine with [1, -1] is inf / inf,
        # a NaN that the clamp alone would turn into a silent 1.0. The pair
        # is reported as non-finite, so numpy's overflow warning must not
        # escape as well.
        table = load_embeddings(["a 1e308 1", "b 1 -1"])
        lexicon = {"x": "a a", "y": "b"}
        assert NON_FINITE in UNSCORABLE_REASONS
        for method in (DEFINITION, CONTENT):
            for pair in (LexemePair("x", "y"), LexemePair("y", "x")):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    outcome = score_pair(method, table, lexicon, frozenset(), pair)
                assert outcome.unscorable_reason == NON_FINITE


@st.composite
def _batch_inputs(draw):
    dim = draw(st.integers(min_value=1, max_value=8))
    # Negative zeros and components small enough to take the scaled-up path.
    component = st.one_of(
        st.floats(min_value=-10, max_value=10, allow_nan=False), st.sampled_from([-0.0, 1e-300])
    )
    plain = st.lists(component, min_size=dim, max_size=dim)
    # Tokens draw from a small pool that always holds a zero vector, so
    # equal vectors under different tokens are common. Some pools also hold
    # a vector with a component whose square or definition sum overflows.
    pool = draw(st.lists(plain, min_size=2, max_size=4)) + [[0.0] * dim]
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        pool.append(draw(plain)[:-1] + [draw(st.sampled_from([1e200, -1e308]))])
    rows = draw(
        st.dictionaries(st.sampled_from(_TOKENS), st.integers(0, len(pool) - 1), min_size=3)
    )
    table = make_table({token: pool[i] for token, i in rows.items()}, dimension=dim)
    definitions = draw(
        st.dictionaries(
            st.sampled_from(_LEXEMES),
            st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=3).map(" ".join),
            min_size=2,
        )
    )
    stopwords = draw(st.frozensets(st.sampled_from(_TOKENS)))
    lexeme = st.sampled_from(_LEXEMES)
    pairs = draw(st.lists(st.builds(LexemePair, lexeme, lexeme), max_size=12))
    block_rows = draw(st.integers(min_value=1, max_value=5))
    return table, definitions, stopwords, pairs, block_rows


def _reference_outcome(method, table, lexicon, stopwords, pair):
    """The scalar formula with np.dot and np.linalg.norm, pair by pair."""
    left, left_reason = _side(method, table, lexicon, stopwords, pair.left, LEFT_OOV)
    right, right_reason = _side(method, table, lexicon, stopwords, pair.right, RIGHT_OOV)
    if left is None:
        return ScoreOutcome.unscorable(left_reason)
    if right is None:
        return ScoreOutcome.unscorable(right_reason)
    if not (left.any() and right.any()):
        return ScoreOutcome.unscorable(ZERO_NORM)
    if min(np.abs(left).max(), np.abs(right).max()) < 2.0**-500:
        # A squared norm could underflow: each vector below 0.5 is first
        # scaled up by the power of two that brings it into [0.5, 1).
        left, right = (np.ldexp(x, -min(math.frexp(np.abs(x).max())[1], 0)) for x in (left, right))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        norm_left, norm_right = np.linalg.norm(left), np.linalg.norm(right)
        denominator = norm_left * norm_right
        value = np.dot(left, right) / denominator
    if not (np.isfinite(value) and np.isfinite(denominator)):
        return ScoreOutcome.unscorable(NON_FINITE)
    if np.array_equal(left, right):
        return ScoreOutcome.scored(1.0)
    return ScoreOutcome.scored(max(-1.0, min(1.0, float(value))))


def _bits(outcome):
    return outcome.unscorable_reason, None if outcome.value is None else outcome.value.hex()


@st.composite
def _id_inputs(draw):
    """``_batch_inputs`` as a lexeme list and drawn id pairs, self-pairs included."""
    table, lexicon, stopwords, _, block_rows = draw(_batch_inputs())
    lexemes = draw(st.lists(st.sampled_from(_LEXEMES), min_size=1, unique=True))
    ids = st.integers(min_value=0, max_value=len(lexemes) - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=12))
    return table, lexicon, stopwords, lexemes, pairs, block_rows


class TestScoreIdsProperties:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @given(_batch_inputs())
    def test_bit_identical_to_scalar_reference(self, inputs):
        """Every pair of ``lexeme_ids(pairs)`` equals the per-pair scalar
        formula bit for bit, in blocks smaller than the batch, and
        score_pair is its one-pair case."""
        table, lexicon, stopwords, pairs, block_rows = inputs
        for method in ALL_METHODS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(definitions, "BLOCK_ROWS", block_rows)
                values, reasons = score_ids(method, table, lexicon, stopwords, *lexeme_ids(pairs))
            assert len(values) == len(reasons) == len(pairs)
            for pair, value, reason in zip(pairs, values.tolist(), reasons.tolist()):
                got = (UNSCORABLE_REASONS[reason - 1], None) if reason else (None, value.hex())
                expected = _reference_outcome(method, table, lexicon, stopwords, pair)
                assert got == _bits(expected)
                assert _bits(score_pair(method, table, lexicon, stopwords, pair)) == got

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(deadline=None)
    @given(_id_inputs())
    def test_arrays_equal_per_pair_reference(self, inputs):
        """Each value equals the per-pair np.dot / np.linalg.norm formula by
        float.hex, and each reason the reference's, in blocks smaller than
        the batch, with the definitions resolved inside or handed in."""
        table, lexicon, stopwords, lexemes, pairs, block_rows = inputs
        left = np.array([i for i, _ in pairs], dtype=np.intp)
        right = np.array([j for _, j in pairs], dtype=np.intp)
        resolved = resolve_definitions(lexicon, table, lexemes, stopwords)
        for method in ALL_METHODS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(definitions, "BLOCK_ROWS", block_rows)
                values, reasons = score_ids(method, table, lexicon, stopwords, lexemes, left, right)
                shared = score_ids(
                    method, table, lexicon, stopwords, lexemes, left, right, resolved
                )
            assert (values.dtype, reasons.dtype) == (np.float64, np.int8)
            assert values.tobytes() == shared[0].tobytes()
            assert reasons.tolist() == shared[1].tolist()
            for (i, j), value, reason in zip(pairs, values.tolist(), reasons.tolist()):
                expected = _reference_outcome(
                    method, table, lexicon, stopwords, LexemePair(lexemes[i], lexemes[j])
                )
                got = (UNSCORABLE_REASONS[reason - 1], None) if reason else (None, value.hex())
                assert got == _bits(expected)
                assert math.isnan(value) == bool(reason)


class TestCaseFolding:
    def test_uppercase_lexemes_score_as_lowercase(self, toy_table, toy_lexicon, toy_stopwords):
        """Scoring folds the case of the lexemes it is given: uppercase ones,
        one out of vocabulary and undefined included, resolve to the same
        definition rows and score to the same value bytes and reasons under
        every method."""
        lower = [*toy_lexicon, "zzz"]
        upper = [lexeme.upper() for lexeme in lower]
        left, right = (ids.ravel() for ids in np.indices((len(lower), len(lower))))
        for stopwords in (None, toy_stopwords):
            ours, theirs = (
                resolve_definitions(toy_lexicon, toy_table, lexemes, stopwords)
                for lexemes in (lower, upper)
            )
            assert ours.rows.tolist() == theirs.rows.tolist()
            assert ours.lengths.tolist() == theirs.lengths.tolist()
            if stopwords is None:
                assert ours.stop is None and theirs.stop is None
            else:
                assert ours.stop.tolist() == theirs.stop.tolist()
        for method in ALL_METHODS:
            inputs = (method, toy_table, toy_lexicon, toy_stopwords)
            values, reasons = score_ids(*inputs, lower, left, right)
            upper_values, upper_reasons = score_ids(*inputs, upper, left, right)
            assert values.tobytes() == upper_values.tobytes()
            assert reasons.tolist() == upper_reasons.tolist()
            assert 0 < np.count_nonzero(reasons) < len(reasons)


class TestScorePairDispatch:
    def test_word_method_needs_no_lexicon(self, toy_table):
        outcome = score_pair(
            ScoreMethod.WORD_SIMILARITY, toy_table, None, None, LexemePair("jet", "lag")
        )
        assert outcome.value == 0.0

    def test_definition_methods_require_lexicon(self, toy_table):
        for method in (ScoreMethod.DEFINITION_SIMILARITY, ScoreMethod.DEFINITION_CONTENT_SIMILARITY):
            with pytest.raises(
                ConfigError, match=f"^method '{method.value}' needs a definition lexicon$"
            ):
                score_pair(method, toy_table, None, None, LexemePair("jet", "lag"))

    def test_score_ids_without_lexicon_is_a_config_error(self, toy_table):
        for method in (DEFINITION, CONTENT):
            with pytest.raises(
                ConfigError, match=f"^method '{method.value}' needs a definition lexicon$"
            ):
                score_ids(method, toy_table, None, None, *lexeme_ids([LexemePair("jet", "lag")]))

    def test_scan_without_lexicon_is_a_config_error(self, toy_table):
        for method in (DEFINITION, CONTENT):
            with pytest.raises(
                ConfigError, match=f"^method '{method.value}' needs a definition lexicon$"
            ):
                counts = build_bigram_counts(tokenize("jet lag jet lag"))
                scan_corpus(counts, toy_table, method, 0.5)

    def test_missing_stopwords_degrade_to_empty_set(self, toy_table, toy_lexicon):
        pair = LexemePair("video", "game")
        without = score_pair(
            ScoreMethod.DEFINITION_CONTENT_SIMILARITY, toy_table, toy_lexicon, None, pair
        )
        with_empty = score_pair(
            ScoreMethod.DEFINITION_CONTENT_SIMILARITY, toy_table, toy_lexicon, frozenset(), pair
        )
        assert without == with_empty


@st.composite
def _calibration_scores(draw):
    """Non-empty (positive, negative) score lists in [-1, 1].

    Half the draws put every positive above every negative. Those calibrate
    degenerately, to the candidate above all scores, which lies past 1 when
    the top score is positive.
    """
    if draw(st.booleans()):
        cut = draw(st.floats(-1, 1, exclude_min=True))
        negatives = st.lists(st.floats(-1, cut, exclude_max=True), min_size=1, max_size=8)
        positives = st.lists(st.floats(cut, 1), min_size=1, max_size=8)
    else:
        negatives = positives = st.lists(st.floats(-1, 1), min_size=1, max_size=8)
    return draw(positives), draw(negatives)


class TestClassify:
    def test_below_threshold_is_compound(self):
        assert classify(ScoreOutcome.scored(0.50), 0.78) is Judgement.COMPOUND

    def test_above_threshold_is_not_compound(self):
        assert classify(ScoreOutcome.scored(0.90), 0.78) is Judgement.NOT_COMPOUND

    def test_boundary_value_is_not_compound(self):
        assert classify(ScoreOutcome.scored(0.78), 0.78) is Judgement.NOT_COMPOUND

    def test_unscorable_passes_through(self):
        assert classify(ScoreOutcome.unscorable(LEFT_OOV), 0.5) is Judgement.UNSCORABLE

    def test_non_finite_threshold_rejected(self):
        for threshold in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                classify(ScoreOutcome.scored(0.0), threshold)

    @given(scores=_calibration_scores(), unscorable=st.tuples(st.integers(0, 2), st.integers(0, 2)))
    def test_accepts_every_calibrated_threshold(self, scores, unscorable):
        positives, negatives = scores
        threshold = calibrate_threshold(positives, negatives)
        labeled = [
            (is_positive, outcome)
            for is_positive, values, unscored in (
                (True, positives, unscorable[0]),
                (False, negatives, unscorable[1]),
            )
            for outcome in (
                [ScoreOutcome.scored(value) for value in values]
                + [ScoreOutcome.unscorable(LEFT_OOV)] * unscored
            )
        ]
        judged = Counter()
        for is_positive, outcome in labeled:
            judgement = classify(outcome, threshold)
            if outcome.is_scorable:
                assert (judgement is Judgement.COMPOUND) == (outcome.value < threshold)
            judged[is_positive, judgement] += 1
        report = evaluate(*score_arrays(labeled), threshold, WORD, PairSource.RANDOM)
        assert (report.tp, report.fn, report.unscorable_pos) == (
            judged[True, Judgement.COMPOUND],
            judged[True, Judgement.NOT_COMPOUND],
            judged[True, Judgement.UNSCORABLE],
        )
        assert (report.fp, report.tn, report.unscorable_neg) == (
            judged[False, Judgement.COMPOUND],
            judged[False, Judgement.NOT_COMPOUND],
            judged[False, Judgement.UNSCORABLE],
        )

    def test_degenerate_calibration_repro(self):
        threshold = calibrate_threshold([0.9], [0.5])
        assert threshold > 1.0
        assert classify(ScoreOutcome.scored(0.9), threshold) is Judgement.COMPOUND

    @given(
        value_low=st.floats(min_value=-1, max_value=1),
        value_high=st.floats(min_value=-1, max_value=1),
        threshold=st.floats(min_value=-1, max_value=1),
    )
    def test_monotone_in_value(self, value_low, value_high, threshold):
        if value_low > value_high:
            value_low, value_high = value_high, value_low
        high = classify(ScoreOutcome.scored(value_high), threshold)
        low = classify(ScoreOutcome.scored(value_low), threshold)
        if high is Judgement.COMPOUND:
            assert low is Judgement.COMPOUND


class TestIsCompound:
    def test_boundary_value_is_not_a_compound(self):
        assert is_compound(np.array([0.5, 0.78, 0.9]), 0.78).tolist() == [True, False, False]

    def test_nan_is_never_a_compound(self):
        for threshold in (-1e300, -1.0, 0.0, 1.0, 2.0, 1e300):
            assert not is_compound(np.array([np.nan]), threshold)[0]

    def test_negative_zero_is_the_boundary_of_zero(self):
        assert is_compound(np.array([-0.0, 0.0, -5e-324]), 0.0).tolist() == [False, False, True]
        assert is_compound(np.array([0.0]), -0.0).tolist() == [False]

    @pytest.mark.parametrize("threshold", [-1.5, -1.0000000000000002, 1.0000000000000002, 7.0])
    def test_threshold_outside_unit_interval_judges_all_scored_alike(self, threshold):
        values = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        judged = is_compound(values, threshold)
        assert judged.tolist() == [threshold > 1.0] * len(values)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_raises(self, threshold):
        with pytest.raises(ValueError, match="finite"):
            is_compound(np.array([0.0]), threshold)


class TestLexemeIds:
    def test_ids_in_first_seen_order(self):
        pairs = [LexemePair("jet", "lag"), LexemePair("lag", "time"), LexemePair("time", "jet")]
        lexemes, left, right = lexeme_ids(pairs)
        assert lexemes == ["jet", "lag", "time"]
        assert (left.tolist(), right.tolist()) == ([0, 1, 2], [1, 2, 0])

    def test_shared_lexeme_gets_one_id(self):
        lexemes, left, right = lexeme_ids([LexemePair("Hot", "dog"), LexemePair("hot", "hot")])
        assert lexemes == ["hot", "dog"]
        assert (left.tolist(), right.tolist()) == ([0, 0], [1, 0])

    def test_no_pairs_give_two_empty_integer_arrays(self):
        lexemes, left, right = lexeme_ids([])
        assert lexemes == []
        for ids in (left, right):
            assert ids.shape == (0,) and np.issubdtype(ids.dtype, np.integer)
