"""Dataset assembly, calibration, evaluation, and the experiment runner."""

from __future__ import annotations

import bisect
import dataclasses
import logging
import math
import os
import random
import re
import string
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from mwedetect import ScanHit, embeddings, pipeline, scan_corpus
from mwedetect.corpus import BigramCounts, build_bigram_counts, count_corpus, tokenize
from mwedetect.definitions import load_definitions, load_stopwords
from mwedetect.embeddings import load_embeddings
from mwedetect.errors import (
    ConfigError,
    CorpusError,
    DatasetError,
    EmbeddingFormatError,
    SamplingError,
)
from mwedetect.pairs import LexemePair
from mwedetect.pipeline import (
    NEGATIVE_SOURCES,
    THRESHOLD_MODES,
    EvalReport,
    ExperimentConfig,
    PairSource,
    calibrate_threshold,
    evaluate,
    load_compounds,
    load_config,
    run_experiment,
    split_dataset,
)
from mwedetect.scoring import (
    UNSCORABLE_REASONS,
    Judgement,
    ScoreMethod,
    ScoreOutcome,
    classify,
    lexeme_ids,
    score_ids,
    score_pair,
)

from conftest import (
    alphabetic_token,
    assert_no_child_left,
    assert_same_split,
    make_table,
    score_arrays,
)

LADEC, RANDOM, COOCCUR = PairSource


class TestLoadCompounds:
    def test_loads_and_lowercases(self):
        pairs = load_compounds(["c1,c2", "Jet,Lag", "home,work"])
        assert pairs == [LexemePair("jet", "lag"), LexemePair("home", "work")]

    def test_first_seen_deduplication(self):
        pairs = load_compounds(["c1,c2", "a,b", "a,b", "b,a"])
        assert pairs == [LexemePair("a", "b"), LexemePair("b", "a")]

    def test_self_pairs_skipped_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            pairs = load_compounds(["c1,c2", "tut,tut", "a,b"])
        assert pairs == [LexemePair("a", "b")]
        assert any("self-pair" in record.message for record in caplog.records)

    def test_column_names_configurable(self):
        pairs = load_compounds(["stim,head,tail", "jetlag,jet,lag"], "head", "tail")
        assert pairs == [LexemePair("jet", "lag")]

    def test_missing_column_named_in_error(self):
        with pytest.raises(DatasetError, match="c2"):
            load_compounds(["c1,other", "a,b"])

    def test_empty_cell_names_row(self):
        with pytest.raises(DatasetError, match="row 3"):
            load_compounds(["c1,c2", "a,b", "a,"])
        with pytest.raises(
            DatasetError, match="^compound CSV row 3: right token contains whitespace: 'dog house'$"
        ):
            load_compounds(["c1,c2", "a,b", "hot,dog house"])

    def test_no_usable_rows(self):
        with pytest.raises(DatasetError, match="no usable pairs"):
            load_compounds(["c1,c2"])

    def test_empty_file(self):
        with pytest.raises(DatasetError, match="empty"):
            load_compounds([])

    def test_extra_columns_ignored(self):
        pairs = load_compounds(["c1,c2,rating", "hot,dog,0.91"])
        assert pairs == [LexemePair("hot", "dog")]

    @pytest.mark.parametrize("line", [1, 3])
    def test_oversized_field_names_line(self, tmp_path, line):
        # The csv module refuses a field over 131072 characters.
        lines = ["c1,c2\n", "a,b\n", "c,d\n"]
        lines[line - 1] = "x" * 140_000 + ",y\n"
        expected = f"compound CSV line {line}: field larger than field limit"
        with pytest.raises(DatasetError, match=f"^{expected}"):
            load_compounds(lines)
        path = tmp_path / "compounds.csv"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}: {expected}"):
            load_compounds(path)


@dataclasses.dataclass(frozen=True)
class _LabeledPair:
    """A pair and where it came from, as the object split below takes them."""

    pair: object
    source: PairSource

    @property
    def is_positive(self) -> bool:
        return self.source is PairSource.LADEC


def _object_split(pairs, fraction, seed):
    """The stratified split as it was done on pair objects: the reference
    that ``split_dataset``'s mask is checked against."""
    if not 0.0 < fraction < 1.0:
        raise DatasetError(f"split fraction must be in (0, 1), got {fraction}")
    rng = random.Random(seed)
    calibration = []
    heldout = []
    for source in PairSource:
        group = [p for p in pairs if p.source is source]
        if not group:
            continue
        rng.shuffle(group)
        k = int(len(group) * fraction)
        if len(group) >= 2:
            k = min(max(k, 1), len(group) - 1)
        calibration.extend(group[:k])
        heldout.extend(group[k:])
    for side_name, side in (("calibration", calibration), ("heldout", heldout)):
        if {p.is_positive for p in side} != {True, False}:
            raise DatasetError(
                f"stratified split infeasible: {side_name} split lacks a label "
                "(each label needs a source with at least two pairs)"
            )
    return tuple(calibration), tuple(heldout)


class TestSplitDataset:
    def _balanced(self, n_pos: int, n_neg: int) -> np.ndarray:
        return np.array([LADEC] * n_pos + [RANDOM] * n_neg, dtype=object)

    def test_half_split_is_exact_for_even_groups(self):
        sources = self._balanced(10, 10)
        calibration = split_dataset(sources, fraction=0.5, seed=0)
        for side in (calibration, ~calibration):
            assert np.count_nonzero(sources[side] == LADEC) == 5
            assert np.count_nonzero(sources[side] != LADEC) == 5

    def test_partition_preserves_every_pair(self):
        sources = self._balanced(7, 9)
        calibration = split_dataset(sources, fraction=0.5, seed=3)
        assert calibration.dtype == bool and calibration.shape == sources.shape
        assert sorted(np.flatnonzero(calibration).tolist()
                      + np.flatnonzero(~calibration).tolist()) == list(range(len(sources)))

    def test_deterministic_per_seed(self):
        sources = self._balanced(8, 8)
        first = split_dataset(sources, fraction=0.5, seed=42)
        second = split_dataset(sources, fraction=0.5, seed=42)
        assert np.array_equal(first, second)

    def test_different_seeds_differ(self):
        sources = self._balanced(8, 8)
        splits = {tuple(split_dataset(sources, 0.5, seed)) for seed in range(20)}
        assert len(splits) > 1

    def test_stratified_per_negative_source(self):
        sources = np.array([LADEC] * 4 + [RANDOM, RANDOM, COOCCUR, COOCCUR], dtype=object)
        calibration = split_dataset(sources, fraction=0.5, seed=1)
        for side in (calibration, ~calibration):
            assert np.count_nonzero(sources[side] == RANDOM) == 1
            assert np.count_nonzero(sources[side] == COOCCUR) == 1

    def test_extreme_fraction_clamped_so_both_sides_populated(self):
        sources = self._balanced(4, 4)
        low = split_dataset(sources, fraction=0.1, seed=0)
        assert np.count_nonzero(sources[low] == LADEC) == 1
        high = split_dataset(sources, fraction=0.9, seed=0)
        assert np.count_nonzero(sources[~high] == LADEC) == 1

    def test_fraction_bounds_rejected(self):
        sources = self._balanced(4, 4)
        for fraction in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DatasetError, match="fraction"):
                split_dataset(sources, fraction=fraction, seed=0)

    def test_single_positive_is_infeasible(self):
        sources = self._balanced(1, 4)
        with pytest.raises(DatasetError, match="infeasible"):
            split_dataset(sources, fraction=0.5, seed=0)

    def test_two_negatives_from_one_pair_sources_are_infeasible(self):
        """Two negatives are not enough when no source holds two of them:
        each one-pair source goes wholly to held-out, and the message says so."""
        sources = np.array([LADEC, LADEC, RANDOM, COOCCUR], dtype=object)
        with pytest.raises(DatasetError) as raised:
            split_dataset(sources, fraction=0.5, seed=0)
        assert str(raised.value) == (
            "stratified split infeasible: calibration split lacks a label "
            "(each label needs a source with at least two pairs)"
        )

    @settings(max_examples=500)
    @given(
        sources=st.lists(st.sampled_from(PairSource), max_size=40),
        fraction=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        seed=st.integers(),
    )
    def test_flags_what_the_object_split_puts_in_calibration(self, sources, fraction, seed):
        labeled = [_LabeledPair(i, source) for i, source in enumerate(sources)]
        try:
            calibration, _ = _object_split(labeled, fraction, seed)
        except DatasetError as exc:
            with pytest.raises(DatasetError) as raised:
                split_dataset(sources, fraction, seed)
            assert str(raised.value) == str(exc)
            return
        expected = np.zeros(len(sources), dtype=bool)
        expected[[lp.pair for lp in calibration]] = True
        assert np.array_equal(split_dataset(sources, fraction, seed), expected)


# Scores in [-1, 1]: a coarse grid, so ties and duplicates are common, or any float.
_SCORES = st.one_of(
    st.sampled_from([round(k * 0.05 - 1.0, 2) for k in range(41)]),
    st.floats(min_value=-1, max_value=1),
)


class TestCalibrateThreshold:
    def test_separable_scores_use_midpoint(self):
        assert calibrate_threshold([0.2, 0.4], [0.7, 0.9]) == 0.55

    def test_singleton_separable(self):
        assert calibrate_threshold([0.1], [0.9]) == 0.5

    def test_identical_scores_pick_smallest_maximizer(self):
        # The only candidates are 0.5 - 1 and 0.5 + 1; classifying everything
        # as compound (F1 2/3) beats classifying nothing (F1 0).
        assert calibrate_threshold([0.5], [0.5]) == 1.5

    def test_tie_breaks_toward_smallest_threshold(self):
        # Candidates 0.15 and 1.4 both reach F1 = 2/3; the smaller wins.
        assert calibrate_threshold([0.1, 0.4], [0.2, 0.3]) == 0.15000000000000002

    def test_empty_inputs_rejected(self):
        with pytest.raises(DatasetError):
            calibrate_threshold([], [0.5])
        with pytest.raises(DatasetError):
            calibrate_threshold([0.5], [])

    @pytest.mark.parametrize(
        "positives, negatives, counts",
        [
            ([math.nan], [0.1], (1, 0)),
            ([0.2], [math.nan], (0, 1)),
            ([math.inf, 0.3], [0.1], (1, 0)),
            ([0.2, -math.inf], [math.nan, math.inf, 0.4], (1, 2)),
        ],
    )
    def test_non_finite_scores_rejected_and_counted(self, positives, negatives, counts):
        expected = (
            f"^calibration scores must be finite: {counts[0]} positive and {counts[1]} "
            r"negative score\(s\) are NaN or infinite$"
        )
        with pytest.raises(DatasetError, match=expected):
            calibrate_threshold(positives, negatives)
        with pytest.raises(DatasetError, match=expected):
            calibrate_threshold(np.array(positives), np.array(negatives))

    def test_adjacent_floats_cut_at_the_larger(self):
        # (0.1 + next) / 2 rounds back onto 0.1, which would leave no cut
        # between the two scores and the best F1 at 2/3 instead of 1.
        larger = math.nextafter(0.1, 1.0)
        assert calibrate_threshold([0.1], [larger]) == larger

    @staticmethod
    def _f1_at(threshold, positives, negatives):
        """Exact F1 of judging every score strictly below ``threshold`` compound."""
        tp = sum(1 for v in positives if v < threshold)
        fp = sum(1 for v in negatives if v < threshold)
        fn = len(positives) - tp
        denominator = 2 * tp + fp + fn
        return Fraction(2 * tp, denominator) if denominator else Fraction(0)

    @staticmethod
    def _best_cut_f1(positives, negatives):
        """Best exact F1 over every cut by index: the k smallest distinct
        scores judged compound, for each k. No threshold formula is involved."""
        values = sorted(set(positives) | set(negatives))
        best = Fraction(0)
        for k in range(len(values) + 1):
            compound = set(values[:k])
            tp = sum(1 for v in positives if v in compound)
            fp = sum(1 for v in negatives if v in compound)
            best = max(best, Fraction(2 * tp, tp + fp + len(positives)))
        return best

    @classmethod
    def _candidate_f1s(cls, positives, negatives):
        """Each candidate threshold with its exact F1."""
        values = sorted(set(positives) | set(negatives))
        candidates = [values[0] - 1.0]
        for a, b in zip(values, values[1:]):
            midpoint = (a + b) / 2.0
            candidates.append(b if midpoint == a else midpoint)
        candidates.append(values[-1] + 1.0)
        return [
            (threshold, cls._f1_at(threshold, positives, negatives)) for threshold in candidates
        ]

    @classmethod
    def _oracle(cls, positives, negatives):
        scored = cls._candidate_f1s(positives, negatives)
        best = max(f1 for _, f1 in scored)
        return min(threshold for threshold, f1 in scored if f1 == best)

    @settings(max_examples=300)
    @given(
        positives=st.lists(
            st.sampled_from([round(k * 0.05 - 1.0, 2) for k in range(41)]), min_size=1, max_size=30
        ),
        negatives=st.lists(
            st.sampled_from([round(k * 0.05 - 1.0, 2) for k in range(41)]), min_size=1, max_size=30
        ),
    )
    def test_matches_exhaustive_rational_oracle(self, positives, negatives):
        # Scores drawn from a coarse grid so ties and duplicates are common.
        threshold = calibrate_threshold(positives, negatives)
        assert threshold == self._oracle(positives, negatives)
        assert self._f1_at(threshold, positives, negatives) == self._best_cut_f1(
            positives, negatives
        )

    @settings(max_examples=300)
    @given(
        base=st.floats(min_value=-0.99, max_value=0.99),
        positives=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=8),
        negatives=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=8),
    )
    def test_adjacent_float_scores_reach_best_cut(self, base, positives, negatives):
        """Scores a few representable floats apart, where midpoints round onto a score."""
        steps = [base]
        for _ in range(3):
            steps.append(math.nextafter(steps[-1], 1.0))
        positives = [steps[i] for i in positives]
        negatives = [steps[i] for i in negatives]
        threshold = calibrate_threshold(positives, negatives)
        assert threshold == self._oracle(positives, negatives)
        assert self._f1_at(threshold, positives, negatives) == self._best_cut_f1(
            positives, negatives
        )

    @staticmethod
    def _bisect_calibration(positive_scores, negative_scores):
        """Reference for ``calibrate_threshold``: one candidate at a time,
        counted with ``bisect``, the first best F1 kept."""
        pos = sorted(positive_scores)
        neg = sorted(negative_scores)
        values = sorted(set(pos) | set(neg))
        candidates = [values[0] - 1.0]
        for a, b in zip(values, values[1:]):
            midpoint = (a + b) / 2.0
            candidates.append(b if midpoint == a else midpoint)
        candidates.append(values[-1] + 1.0)
        best_threshold, best_f1 = candidates[0], -1.0
        for threshold in candidates:
            tp = bisect.bisect_left(pos, threshold)
            fp = bisect.bisect_left(neg, threshold)
            fn = len(pos) - tp
            denominator = 2 * tp + fp + fn
            f1 = (2.0 * tp / denominator) if denominator else 0.0
            if f1 > best_f1:
                best_f1, best_threshold = f1, threshold
        return best_threshold

    @settings(max_examples=300)
    @given(data=st.data(), base=st.floats(min_value=-1, max_value=1))
    def test_matches_the_bisect_loop(self, data, base):
        """Ties, neighbouring floats, both zeros and one score per side: the
        same threshold as the per-candidate bisect loop, by float.hex."""
        neighbours = [base]
        for direction in (1.0, -1.0, 1.0):
            neighbours.append(math.nextafter(neighbours[-1], direction * 2.0))
        score = st.sampled_from(neighbours + [-0.0, 0.0]) | _SCORES
        sizes = st.integers(min_value=1, max_value=12)
        positives = data.draw(st.lists(score, min_size=1, max_size=data.draw(sizes)))
        negatives = data.draw(st.lists(score, min_size=1, max_size=data.draw(sizes)))
        threshold = calibrate_threshold(positives, negatives)
        assert threshold.hex() == self._bisect_calibration(positives, negatives).hex()
        as_arrays = calibrate_threshold(np.array(positives), np.array(negatives))
        assert as_arrays.hex() == threshold.hex()

    @settings(max_examples=300)
    @given(
        positives=st.lists(_SCORES, min_size=1, max_size=30),
        negatives=st.lists(_SCORES, min_size=1, max_size=30),
    )
    def test_evaluate_at_calibrated_threshold_reaches_best_f1(self, positives, negatives):
        """The calibrated threshold may lie above 1 (no positive scores below
        a negative); evaluate must still judge by ``value < threshold``."""
        threshold = calibrate_threshold(positives, negatives)
        scored = [(True, ScoreOutcome.scored(v)) for v in positives] + [
            (False, ScoreOutcome.scored(v)) for v in negatives
        ]
        report = evaluate(
            *score_arrays(scored), threshold, ScoreMethod.WORD_SIMILARITY, PairSource.RANDOM
        )
        assert report.tp == sum(1 for v in positives if v < threshold)
        assert report.fp == sum(1 for v in negatives if v < threshold)
        assert report.tp + report.fn + report.unscorable_pos == len(positives)
        assert report.fp + report.tn + report.unscorable_neg == len(negatives)
        assert report.unscorable_pos == report.unscorable_neg == 0
        best = max(f1 for _, f1 in self._candidate_f1s(positives, negatives))
        assert report.f1 == float(best)
        assert report.f1 == float(self._best_cut_f1(positives, negatives))


class TestEvaluate:
    def _score(self, is_positive, values):
        scored = []
        for positive, value in zip(is_positive, values):
            outcome = (
                ScoreOutcome.unscorable("left-oov")
                if value is None
                else ScoreOutcome.scored(value)
            )
            scored.append((positive, outcome))
        return scored

    def _ten_pair_fixture(self):
        scored = self._score([True] * 5, [0.1, 0.2, 0.6, 0.9, None])
        scored += self._score([False] * 5, [0.3, 0.7, 0.8, 0.95, None])
        return scored

    def test_hand_computed_confusion_counts(self):
        report = evaluate(
            *score_arrays(self._ten_pair_fixture()),
            0.5,
            ScoreMethod.WORD_SIMILARITY,
            PairSource.RANDOM,
        )
        assert (report.tp, report.fp, report.fn, report.tn) == (2, 1, 2, 3)
        assert (report.unscorable_pos, report.unscorable_neg) == (1, 1)
        assert report.tp + report.fn + report.unscorable_pos == 5
        assert report.fp + report.tn + report.unscorable_neg == 5

    def test_metrics_match_exact_rationals(self):
        report = evaluate(
            *score_arrays(self._ten_pair_fixture()),
            0.5,
            ScoreMethod.WORD_SIMILARITY,
            PairSource.RANDOM,
        )
        assert report.precision == float(Fraction(2, 3))
        assert report.recall == float(Fraction(1, 2))
        assert report.f1 == float(Fraction(4, 7))

    def test_perfect_recall_example(self):
        scored = self._score([True] * 2, [0.1, 0.2]) + self._score(
            [False] * 4, [0.3, 0.7, 0.8, 0.9]
        )
        report = evaluate(
            *score_arrays(scored), 0.5, ScoreMethod.WORD_SIMILARITY, PairSource.RANDOM
        )
        assert (report.tp, report.fp, report.fn, report.tn) == (2, 1, 0, 3)
        assert report.precision == float(Fraction(2, 3))
        assert report.recall == 1.0
        assert report.f1 == 0.8

    def test_all_unscorable_leaves_metrics_absent(self):
        scored = self._score([True, False], [None, None])
        report = evaluate(
            *score_arrays(scored), 0.0, ScoreMethod.WORD_SIMILARITY, PairSource.RANDOM
        )
        assert report.recall is None
        assert report.precision is None
        assert report.f1 is None
        assert (report.tp, report.fp, report.fn, report.tn) == (0, 0, 0, 0)
        assert (report.unscorable_pos, report.unscorable_neg) == (1, 1)

    def test_nothing_judged_compound_leaves_precision_absent(self):
        scored = self._score([True, False], [0.9, 0.8])
        report = evaluate(
            *score_arrays(scored), -1.0, ScoreMethod.WORD_SIMILARITY, PairSource.RANDOM
        )
        assert report.precision is None
        assert report.recall == 0.0
        assert report.f1 is None

    @given(
        rows=st.lists(st.tuples(st.booleans(), st.none() | st.just(-0.0) | _SCORES), max_size=30),
        threshold=st.sampled_from([-0.0, 0.0]) | st.floats(min_value=-2, max_value=2),
    )
    def test_counts_equal_a_counter_over_classify(self, rows, threshold):
        """The mask counts equal judging every outcome with ``classify``."""
        scored = self._score([is_positive for is_positive, _ in rows], [value for _, value in rows])
        tally = Counter((positive, classify(outcome, threshold)) for positive, outcome in scored)
        report = evaluate(
            *score_arrays(scored), threshold, ScoreMethod.WORD_SIMILARITY, PairSource.RANDOM
        )
        assert (report.tp, report.fn, report.unscorable_pos) == (
            tally[True, Judgement.COMPOUND],
            tally[True, Judgement.NOT_COMPOUND],
            tally[True, Judgement.UNSCORABLE],
        )
        assert (report.fp, report.tn, report.unscorable_neg) == (
            tally[False, Judgement.COMPOUND],
            tally[False, Judgement.NOT_COMPOUND],
            tally[False, Judgement.UNSCORABLE],
        )


_REPO = Path(__file__).resolve().parent.parent

_REQUIRED_KEYS = ("embeddings", "compounds", "corpus", "definitions", "stopwords")

# Values that survive a `key = value` line: no line breaks, no surrounding
# blanks, and a leading `#` or an inner `=` kept as part of the value.
_CONFIG_TEXT = st.text(
    alphabet=string.ascii_letters + string.digits + "_-.,#=", min_size=1, max_size=12
)
_ABSOLUTE_PATHS = st.lists(
    st.text(alphabet=string.ascii_letters + string.digits + "_-", min_size=1, max_size=8),
    min_size=1,
    max_size=3,
).map(lambda parts: Path("/", *parts))
_CONFIGS = st.builds(
    ExperimentConfig,
    embeddings=_ABSOLUTE_PATHS,
    compounds=_ABSOLUTE_PATHS,
    corpus=_ABSOLUTE_PATHS,
    definitions=_ABSOLUTE_PATHS,
    stopwords=_ABSOLUTE_PATHS,
    sample_seed=st.integers(min_value=-(2**64), max_value=2**64),
    split_seed=st.integers(min_value=-(2**64), max_value=2**64),
    fraction=st.floats(min_value=0, max_value=1, exclude_min=True, exclude_max=True),
    threshold_mode=st.sampled_from(THRESHOLD_MODES),
    compound_left_column=_CONFIG_TEXT,
    compound_right_column=_CONFIG_TEXT,
    output_dir=_ABSOLUTE_PATHS,
)


class TestLoadConfig:
    def _write(self, tmp_path, text):
        path = tmp_path / "exp.conf"
        path.write_text(text, encoding="utf-8")
        return path

    REQUIRED = (
        "embeddings = emb.txt\ncompounds = comp.csv\ncorpus = corpus.txt\n"
        "definitions = defs.tsv\nstopwords = stop.txt\n"
    )

    def test_defaults(self, tmp_path):
        config = load_config(self._write(tmp_path, self.REQUIRED))
        assert config.sample_seed == 0
        assert config.split_seed == 0
        assert config.fraction == 0.5
        assert config.threshold_mode == "shared"
        assert config.compound_left_column == "c1"
        assert config.compound_right_column == "c2"

    def test_relative_paths_resolve_against_config_directory(self, tmp_path):
        config = load_config(self._write(tmp_path, self.REQUIRED))
        assert config.embeddings == (tmp_path / "emb.txt").resolve()
        assert config.output_dir == tmp_path.resolve()

    def test_absolute_paths_kept(self, tmp_path):
        text = self.REQUIRED.replace("emb.txt", "/elsewhere/emb.txt")
        config = load_config(self._write(tmp_path, text))
        assert str(config.embeddings) == "/elsewhere/emb.txt"

    def test_comments_and_blanks_ignored(self, tmp_path):
        config = load_config(self._write(tmp_path, "# hello\n\n" + self.REQUIRED))
        assert config.fraction == 0.5

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key 'typo'"):
            load_config(self._write(tmp_path, self.REQUIRED + "typo = 1\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate key"):
            load_config(self._write(tmp_path, self.REQUIRED + "fraction = 0.5\nfraction = 0.6\n"))

    def test_missing_required_keys_listed(self, tmp_path):
        with pytest.raises(ConfigError, match="stopwords"):
            load_config(self._write(tmp_path, "embeddings = e\n"))

    def test_bad_fraction_value(self, tmp_path):
        with pytest.raises(ConfigError, match="fraction"):
            load_config(self._write(tmp_path, self.REQUIRED + "fraction = 1.0\n"))

    def test_non_numeric_seed(self, tmp_path):
        with pytest.raises(ConfigError, match="sample_seed"):
            load_config(self._write(tmp_path, self.REQUIRED + "sample_seed = soon\n"))

    def test_bad_threshold_mode(self, tmp_path):
        with pytest.raises(ConfigError, match="threshold_mode"):
            load_config(self._write(tmp_path, self.REQUIRED + "threshold_mode = magic\n"))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"threshold_mode": "Shared"}, "config key 'threshold_mode': expected one of"),
            ({"fraction": 1.5}, r"config key 'fraction': must be in \(0, 1\), got 1.5"),
        ],
        ids=["threshold_mode", "fraction"],
    )
    def test_replaced_config_checks_its_rules(self, config_path, change, message):
        # A library caller's replace() must not run a mode or a split no config could.
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(load_config(config_path), **change)

    def test_nul_byte_in_path_rejected(self, tmp_path):
        path = self._write(tmp_path, self.REQUIRED.replace("emb.txt", "emb\0.txt"))
        with pytest.raises(ConfigError) as error:
            load_config(path)
        assert str(error.value) == f"{path}: config key 'embeddings': not a path: 'emb\\x00.txt'"

    @pytest.mark.parametrize(
        "key", ["embeddings", "compounds", "corpus", "definitions", "stopwords", "output_dir"]
    )
    def test_empty_path_rejected(self, tmp_path, key):
        # Path("") is ".", so an empty value would name the config directory.
        lines = [line for line in self.REQUIRED.splitlines() if not line.startswith(key)]
        path = self._write(tmp_path, "\n".join(lines) + f"\n{key} =\n")
        with pytest.raises(ConfigError) as error:
            load_config(path)
        assert str(error.value) == f"{path}: config key '{key}': empty path"

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.conf")

    @pytest.mark.parametrize("key", ["Embeddings", "output-dir", "seed", "threshold"])
    def test_each_unknown_key_named(self, tmp_path, key):
        path = self._write(tmp_path, self.REQUIRED + f"{key} = 1\n")
        with pytest.raises(ConfigError) as error:
            load_config(path)
        assert str(error.value) == f"{path}: config line 6: unknown key {key!r}"

    def test_form_feed_in_a_path_is_not_a_line_end(self, tmp_path):
        # "a\x0cb.txt" is a legal Linux file name.
        path = self._write(tmp_path, self.REQUIRED.replace("emb.txt", "a\x0cb.txt"))
        assert load_config(path).embeddings == tmp_path / "a\x0cb.txt"

    def test_form_feed_ending_a_line_keeps_the_count(self, tmp_path):
        path = self._write(tmp_path, self.REQUIRED + "split_seed = 3\x0c\nseed = 1\n")
        with pytest.raises(ConfigError) as error:
            load_config(path)
        assert str(error.value) == f"{path}: config line 7: unknown key 'seed'"

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(missing=st.sets(st.sampled_from(_REQUIRED_KEYS), min_size=1))
    def test_each_missing_required_key_named(self, tmp_path, missing):
        text = "".join(f"{key} = {key}.txt\n" for key in _REQUIRED_KEYS if key not in missing)
        path = self._write(tmp_path, text)
        with pytest.raises(ConfigError) as error:
            load_config(path)
        named = ", ".join(key for key in _REQUIRED_KEYS if key in missing)
        assert str(error.value) == f"{path}: config missing required key(s): {named}"

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        config=_CONFIGS,
        order=st.permutations([field.name for field in dataclasses.fields(ExperimentConfig)]),
    )
    def test_written_config_loads_back_equal(self, tmp_path, config, order):
        text = "".join(f"{key} = {getattr(config, key)}\n" for key in order)
        assert load_config(self._write(tmp_path, text)) == config

    def test_readme_example_loads(self, tmp_path):
        readme = (_REPO / "README.md").read_text(encoding="utf-8")
        example = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
        config = load_config(self._write(tmp_path, example))
        base = tmp_path.resolve()
        assert config.output_dir == base
        for field in dataclasses.fields(ExperimentConfig):
            value = getattr(config, field.name)
            if field.default is dataclasses.MISSING:
                # The example names the bundled test data, relative to the repository.
                assert (_REPO / value.relative_to(base)).is_file()
            elif field.name != "output_dir":
                assert value == field.default


class TestRunExperiment:
    @pytest.fixture(scope="class")
    @staticmethod
    def result(config_path):
        return run_experiment(load_config(config_path))

    def test_six_reports_in_method_major_order(self, result):
        combos = [(r.method, r.negative_source) for r in result.reports]
        assert combos == [
            (ScoreMethod.WORD_SIMILARITY, PairSource.RANDOM),
            (ScoreMethod.WORD_SIMILARITY, PairSource.COOCCUR),
            (ScoreMethod.DEFINITION_SIMILARITY, PairSource.RANDOM),
            (ScoreMethod.DEFINITION_SIMILARITY, PairSource.COOCCUR),
            (ScoreMethod.DEFINITION_CONTENT_SIMILARITY, PairSource.RANDOM),
            (ScoreMethod.DEFINITION_CONTENT_SIMILARITY, PairSource.COOCCUR),
        ]

    def test_calibrated_thresholds_match_hand_derivation(self, result):
        # Midpoints between the highest calibration positive and the lowest
        # clearly-separated negative, recomputed offline per method.
        t = result.thresholds
        assert t[(ScoreMethod.WORD_SIMILARITY, PairSource.RANDOM)] == 0.25
        assert t[(ScoreMethod.DEFINITION_SIMILARITY, PairSource.RANDOM)] == 0.41075416384147506
        assert t[(ScoreMethod.DEFINITION_CONTENT_SIMILARITY, PairSource.RANDOM)] == 0.25

    def test_shared_mode_copies_random_threshold_to_cooccur_arm(self, result):
        for method in ScoreMethod:
            assert (
                result.thresholds[(method, PairSource.RANDOM)]
                == result.thresholds[(method, PairSource.COOCCUR)]
            )

    def test_report_counts_match_hand_scored_fixture(self, result):
        by_arm = {(r.method.value, r.negative_source.value): r for r in result.reports}
        for method in ("word", "definition", "definition-content"):
            random_arm = by_arm[(method, "random")]
            assert (random_arm.tp, random_arm.fp, random_arm.fn, random_arm.tn) == (2, 1, 0, 1)
            cooccur_arm = by_arm[(method, "cooccur")]
            assert (cooccur_arm.tp, cooccur_arm.fp, cooccur_arm.fn, cooccur_arm.tn) == (2, 0, 0, 2)

    def test_every_fixture_pair_is_scorable(self, result):
        for report in result.reports:
            assert report.unscorable_pos == 0
            assert report.unscorable_neg == 0

    def test_dataset_is_one_to_one_to_one(self, result):
        assert len(result.pairs) == len(result.sources) == len(result.calibration)
        by_source = {source: 0 for source in PairSource}
        for source in result.sources:
            by_source[source] += 1
        assert by_source == {PairSource.LADEC: 4, PairSource.RANDOM: 4, PairSource.COOCCUR: 4}

    def test_rerun_is_bit_identical(self, result, config_path):
        again = run_experiment(load_config(config_path))
        assert again.reports == result.reports
        assert again.thresholds == result.thresholds
        assert_same_split(again, result)

    def test_per_source_mode_calibrates_each_arm(self, config_path):
        config = dataclasses.replace(load_config(config_path), threshold_mode="per-source")
        result = run_experiment(config)
        t = result.thresholds
        assert t[(ScoreMethod.WORD_SIMILARITY, PairSource.COOCCUR)] == 0.35355339059327373
        assert t[(ScoreMethod.DEFINITION_SIMILARITY, PairSource.COOCCUR)] == 0.5964409937039571
        assert t[(ScoreMethod.DEFINITION_CONTENT_SIMILARITY, PairSource.COOCCUR)] == 0.5
        assert t[(ScoreMethod.WORD_SIMILARITY, PairSource.RANDOM)] == 0.25

    def test_missing_input_file_names_key_and_path(self, config_path, tmp_path):
        config = dataclasses.replace(load_config(config_path), corpus=tmp_path / "absent.txt")
        with pytest.raises(ConfigError, match="corpus.*absent.txt"):
            run_experiment(config)

    def test_sampling_shortfall_propagates(self, config_path, tmp_path):
        # A two-token corpus cannot supply four co-occurring negatives.
        tiny = tmp_path / "tiny.txt"
        tiny.write_text("jet lag", encoding="utf-8")
        config = dataclasses.replace(load_config(config_path), corpus=tiny)
        with pytest.raises(SamplingError):
            run_experiment(config)

    def test_reports_expose_negative_sources(self, result):
        assert NEGATIVE_SOURCES == (PairSource.RANDOM, PairSource.COOCCUR)
        assert all(isinstance(r, EvalReport) for r in result.reports)

    @pytest.mark.parametrize("mode", THRESHOLD_MODES)
    def test_kept_scores_are_what_the_reports_count(self, config_path, mode):
        config = dataclasses.replace(load_config(config_path), threshold_mode=mode)
        _assert_kept_scores(run_experiment(config))

    @pytest.mark.parametrize("mode", THRESHOLD_MODES)
    def test_kept_counts_are_the_corpus_counts(self, config_path, mode):
        config = dataclasses.replace(load_config(config_path), threshold_mode=mode)
        result = run_experiment(config)
        kept, counted = result.counts, count_corpus(config.corpus)
        assert [field.name for field in dataclasses.fields(BigramCounts)] == [
            "vocabulary", "codes", "counts", "unigrams"
        ]
        assert kept.vocabulary == counted.vocabulary
        for name in ("codes", "counts", "unigrams"):
            array = getattr(kept, name)
            assert array.dtype == getattr(counted, name).dtype == np.int64
            assert array.tobytes() == getattr(counted, name).tobytes()
        # Both negative arms come from these counts.
        for pair, source in zip(result.pairs, result.sources):
            if source is RANDOM:
                assert {pair.left, pair.right} <= set(kept.vocabulary)
            elif source is COOCCUR:
                assert kept.count(pair.left, pair.right) > 0


@st.composite
def _scorable_experiments(draw):
    """Input file texts of a run in which every pair is scorable.

    Each word is defined by itself, so all three methods score alike. The
    shapes: every compound's constituents share a vector and every other
    word has its own, so positives score 1.0 and negatives 0.0; every
    word has the same vector, so every score ties at 1.0; or two compounds
    with random vectors, so each side of the split holds one scorable
    pair per source.
    """
    shape = draw(st.sampled_from(["positives-higher", "all-tied", "one-per-side"]))
    compounds = 2 if shape == "one-per-side" else draw(st.integers(min_value=2, max_value=4))
    pairs = [(alphabetic_token("l", i), alphabetic_token("r", i)) for i in range(compounds)]
    # A chain of fillers gives more co-occurring bigrams than compounds.
    fillers = [alphabetic_token("f", i) for i in range(compounds + 2)]
    corpus = draw(st.permutations([" ".join(pair) for pair in pairs] + [" ".join(fillers)]))
    # Each word's unit vector: a compound's two constituents share one.
    basis = {w: i for i, pair in enumerate(pairs) for w in pair}
    basis.update({w: compounds + i for i, w in enumerate(fillers)})
    words, dim = list(basis), len(set(basis.values()))
    if shape == "positives-higher":
        vectors = {w: [float(j == basis[w]) for j in range(dim)] for w in words}
    elif shape == "all-tied":
        vectors = {w: [1.0] + [0.0] * (dim - 1) for w in words}
    else:
        component = st.integers(min_value=1, max_value=9).map(float)
        vectors = {w: draw(st.lists(component, min_size=dim, max_size=dim)) for w in words}
    return {
        "embeddings.txt": "".join(f"{w} {' '.join(map(repr, v))}\n" for w, v in vectors.items()),
        "compounds.csv": "c1,c2\n" + "".join(f"{left},{right}\n" for left, right in pairs),
        "corpus.txt": "\n".join(corpus) + "\n",
        "definitions.tsv": "".join(f"{w}\t{w}\n" for w in words),
        "stopwords.txt": "zzz\n",
    }


def _written_config(tmp: Path, files: dict[str, str], **options) -> ExperimentConfig:
    """Write ``files`` into ``tmp``; each file is the input of the key before its dot."""
    for name, text in files.items():
        (tmp / name).write_text(text, encoding="utf-8")
    return ExperimentConfig(**{name.split(".")[0]: tmp / name for name in files}, **options)


def _assert_kept_scores(result: pipeline.ExperimentResult) -> None:
    """``result.values`` and ``result.reasons`` are one fresh ``score_ids``
    of ``result.pairs`` per method, bit for bit, and each report is
    ``evaluate`` of its held-out arm's slice of the kept values."""
    config = result.config
    table = load_embeddings(config.embeddings)
    lexicon = load_definitions(config.definitions)
    stopwords = load_stopwords(config.stopwords)
    reports = {(r.method, r.negative_source): r for r in result.reports}
    positive = result.sources == LADEC
    assert list(result.values) == list(result.reasons) == list(ScoreMethod)
    for method in ScoreMethod:
        values, reasons = result.values[method], result.reasons[method]
        expected = score_ids(method, table, lexicon, stopwords, *lexeme_ids(result.pairs))
        assert values.dtype == np.float64 and reasons.dtype == np.int8
        assert values.tobytes() == expected[0].tobytes()
        assert reasons.tobytes() == expected[1].tobytes()
        assert np.array_equal(np.isnan(values), reasons != 0)
        for arm in NEGATIVE_SOURCES:
            heldout = ~result.calibration & (positive | (result.sources == arm))
            threshold = result.thresholds[(method, arm)]
            report = evaluate(values[heldout], positive[heldout], threshold, method, arm)
            assert reports[(method, arm)] == report


def _assert_recomputed_pair_by_pair(result: pipeline.ExperimentResult) -> None:
    """Each threshold and report of ``result``, from its split's pairs alone.

    The pairs of each side are picked by their sources and scored by
    ``score_ids``; nothing of ``run_experiment`` is reused but the pairs
    and the split themselves. The kept values and reasons are checked by
    ``_assert_kept_scores``.
    """
    _assert_kept_scores(result)
    config = result.config
    table = load_embeddings(config.embeddings)
    lexicon = load_definitions(config.definitions)
    stopwords = load_stopwords(config.stopwords)
    reports = {(r.method, r.negative_source): r for r in result.reports}

    def scored(method, side, source):
        chosen = [(pair, pair_source) for pair, pair_source, on_side
                  in zip(result.pairs, result.sources, side)
                  if on_side and pair_source in (LADEC, source)]
        values = score_ids(method, table, lexicon, stopwords,
                           *lexeme_ids([pair for pair, _ in chosen]))[0]
        return values, np.array([pair_source is LADEC for _, pair_source in chosen])

    for method in ScoreMethod:
        for arm in NEGATIVE_SOURCES:
            calibrated_on = PairSource.RANDOM if config.threshold_mode == pipeline.SHARED else arm
            values, positive = scored(method, result.calibration, calibrated_on)
            scorable = ~np.isnan(values)
            threshold = calibrate_threshold(values[scorable & positive],
                                            values[scorable & ~positive])
            assert result.thresholds[(method, arm)] == threshold
            values, positive = scored(method, ~result.calibration, arm)
            assert reports[(method, arm)] == evaluate(values, positive, threshold, method, arm)


class TestRunExperimentProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        files=_scorable_experiments(),
        mode=st.sampled_from(THRESHOLD_MODES),
        fraction=st.sampled_from([0.3, 0.5, 0.7]),
        seeds=st.tuples(st.integers(0, 99), st.integers(0, 99)),
    )
    def test_six_reports_whose_counts_add_up(self, files, mode, fraction, seeds):
        with tempfile.TemporaryDirectory() as tmp:
            config = _written_config(Path(tmp), files, sample_seed=seeds[0], split_seed=seeds[1],
                                     fraction=fraction, threshold_mode=mode)
            result = run_experiment(config)
        assert len(result.reports) == 6
        heldout = result.sources[~result.calibration]
        positives = np.count_nonzero(heldout == LADEC)
        for report in result.reports:
            negatives = np.count_nonzero(heldout == report.negative_source)
            assert report.tp + report.fn + report.unscorable_pos == positives
            assert report.fp + report.tn + report.unscorable_neg == negatives
            assert report.unscorable_pos == report.unscorable_neg == 0

    @settings(max_examples=40, deadline=None)
    @given(
        files=_scorable_experiments(),
        mode=st.sampled_from(THRESHOLD_MODES),
        fraction=st.sampled_from([0.3, 0.5, 0.7]),
        seeds=st.tuples(st.integers(0, 99), st.integers(0, 99)),
    )
    def test_thresholds_and_reports_recomputed_pair_by_pair(self, files, mode, fraction, seeds):
        with tempfile.TemporaryDirectory() as tmp:
            config = _written_config(Path(tmp), files, sample_seed=seeds[0], split_seed=seeds[1],
                                     fraction=fraction, threshold_mode=mode)
            _assert_recomputed_pair_by_pair(run_experiment(config))

    @pytest.mark.parametrize("mode", THRESHOLD_MODES)
    def test_every_reason_run_recomputed_pair_by_pair(self, tmp_path, mode):
        config = dataclasses.replace(_every_reason_config(tmp_path), threshold_mode=mode)
        _assert_recomputed_pair_by_pair(run_experiment(config))

    @pytest.mark.parametrize("mode", THRESHOLD_MODES)
    def test_unscorable_negatives_kept(self, tmp_path, mode):
        """A filler without a vector: the negatives with it are unscorable by word."""
        config = dataclasses.replace(_every_reason_config(tmp_path), threshold_mode=mode)
        lines = config.embeddings.read_text(encoding="utf-8").splitlines(keepends=True)
        kept = [line for line in lines if not line.startswith("fi ")]
        assert len(kept) == len(lines) - 1
        config.embeddings.write_text("".join(kept), encoding="utf-8")
        result = run_experiment(config)
        negative = result.sources != LADEC
        assert result.reasons[ScoreMethod.WORD_SIMILARITY][negative].any()
        _assert_recomputed_pair_by_pair(result)


def _every_reason_config(tmp: Path) -> ExperimentConfig:
    """A run whose positives meet every unscorable reason under some method.

    Each constituent of the first nine compounds has one fault: no
    definition, a definition of out-of-vocabulary words, of stop words, of
    two opposite vectors or of two vectors that overflow, no vector (on the
    left and on the right), a zero vector, or one whose squared norm
    overflows. Six more compounds and the corpus's fillers score under
    every method.
    """
    rng = np.random.default_rng(0)
    fillers = [alphabetic_token("f", i) for i in range(10)]
    sound = [(alphabetic_token("l", i), alphabetic_token("r", i)) for i in range(6)]
    faulty = [("nodef", "fa"), ("oovdef", "fb"), ("stopdef", "fc"), ("zerodef", "fd"),
              ("bigdef", "fe"), ("missing", "ff"), ("fg", "absent"), ("zero", "fh"), ("huge", "fi")]
    vectors = {w: rng.uniform(-1, 1, 3).round(3).tolist() for pair in sound for w in pair}
    vectors.update({w: rng.uniform(-1, 1, 3).round(3).tolist() for w in fillers})
    vectors.update({w: rng.uniform(-1, 1, 3).round(3).tolist()
                    for w in ("nodef", "oovdef", "stopdef", "zerodef", "bigdef", "the", "of")})
    vectors.update({"zero": [0.0] * 3, "huge": [1e200] * 3, "big": [1e308, 0.0, 0.0],
                    "plus": [1.0, 0.0, 0.0], "minus": [-1.0, 0.0, 0.0]})
    definitions = {w: f"{w} fj" for w in vectors if w != "nodef"}
    definitions.update({"oovdef": "qq rr", "stopdef": "the of", "zerodef": "plus minus",
                        "bigdef": "big big", "missing": "fa", "absent": "fb"})
    orders = [rng.permutation(fillers).tolist() for _ in range(4)]
    files = {
        "embeddings.txt": "".join(f"{w} {' '.join(map(repr, v))}\n" for w, v in vectors.items()),
        "compounds.csv": "c1,c2\n" + "".join(f"{a},{b}\n" for a, b in faulty + sound),
        "corpus.txt": "\n".join(" ".join(order) for order in orders) + "\n",
        "definitions.tsv": "".join(f"{w}\t{text}\n" for w, text in definitions.items()),
        "stopwords.txt": "the\nof\n",
    }
    return _written_config(tmp, files, sample_seed=3, split_seed=4)


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="the loader splits files on Linux only"
)
class TestRunAfterTheEmbeddingsParse:
    """``run_experiment`` loads every input with ``load_inputs``, whose
    forked children parse a split embeddings file, and draws both negative
    arms and splits the pairs only once those children are reaped; it forks
    no other child."""

    @pytest.fixture
    def config(self, tmp_path, monkeypatch):
        config = _every_reason_config(tmp_path)
        monkeypatch.setattr(embeddings, "BLOCK_LINES", 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert len(embeddings._line_ranges(str(config.embeddings))) == 3
        return config

    @pytest.mark.parametrize("mode", THRESHOLD_MODES)
    def test_one_child_per_range_and_the_result_of_one_range(self, config, monkeypatch, mode):
        config = dataclasses.replace(config, threshold_mode=mode)
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
        split = run_experiment(config)
        assert len(forks) == 3  # one child per range, and no other
        # Every unscorable reason occurs among the pairs of the run; the kept
        # reasons are a fresh score_ids of the pairs (_assert_kept_scores).
        reasons = set(np.concatenate(list(split.reasons.values())).tolist())
        assert reasons == set(range(len(UNSCORABLE_REASONS) + 1))

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one_range = run_experiment(config)
        assert len(forks) == 3
        assert one_range.reports == split.reports
        assert one_range.thresholds == split.thresholds
        assert_same_split(one_range, split)
        assert_no_child_left()

    def test_bad_embeddings_come_before_a_sampling_error(self, config):
        # Two words give two random pairs, fewer than the 15 compounds.
        config.corpus.write_text("fa fb\n", encoding="utf-8")
        with pytest.raises(SamplingError):
            run_experiment(config)
        assert_no_child_left()
        lines = config.embeddings.read_text(encoding="utf-8").splitlines(keepends=True)
        token, _, values = lines[-1].partition(" ")
        lines[-1] = f"{token} x{values[values.index(' '):]}"
        config.embeddings.write_text("".join(lines), encoding="utf-8")
        expected = f"^{re.escape(str(config.embeddings))}: line {len(lines)}: non-numeric"
        with pytest.raises(EmbeddingFormatError, match=expected):
            run_experiment(config)
        assert_no_child_left()

    def test_no_child_is_left_while_the_arms_are_drawn(self, config, monkeypatch):
        sample = pipeline.sample_random_pairs
        draws = []

        def after_the_join(*args, **kwargs):
            assert_no_child_left()
            draws.append(args)
            return sample(*args, **kwargs)

        monkeypatch.setattr(pipeline, "sample_random_pairs", after_the_join)
        run_experiment(config)
        assert len(draws) == 1
        assert_no_child_left()


class TestScanHit:
    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            ScanHit(pair=LexemePair("a", "b"), count=0, score=0.5)


class TestScanCorpus:
    def test_repeated_bigram_is_one_hit(self, toy_table):
        hits = scan_corpus(
            build_bigram_counts(tokenize("jet lag jet lag")),
            toy_table,
            ScoreMethod.WORD_SIMILARITY,
            0.5,
            min_count=2,
        )
        assert len(hits) == 1
        assert hits[0].pair == LexemePair("jet", "lag")
        assert hits[0].count == 2
        assert hits[0].score == 0.0

    def test_hits_satisfy_documented_predicates(self, toy_table, data_dir):
        corpus = tokenize((data_dir / "toy_corpus.txt").read_text(encoding="utf-8"))
        threshold, min_count = 0.3, 1
        hits = scan_corpus(
            build_bigram_counts(corpus), toy_table, ScoreMethod.WORD_SIMILARITY, threshold,
            min_count,
        )
        assert hits
        for hit in hits:
            assert hit.score < threshold
            assert hit.count >= min_count

    def test_ascending_score_then_alphabetical_order(self, toy_table, data_dir):
        corpus = tokenize((data_dir / "toy_corpus.txt").read_text(encoding="utf-8"))
        hits = scan_corpus(build_bigram_counts(corpus), toy_table, ScoreMethod.WORD_SIMILARITY, 0.3)
        keys = [(hit.score, hit.pair.left, hit.pair.right) for hit in hits]
        assert keys == sorted(keys)

    def test_threshold_at_lower_bound_yields_nothing(self, toy_table):
        hits = scan_corpus(
            build_bigram_counts(tokenize("jet lag")), toy_table, ScoreMethod.WORD_SIMILARITY, -1.0
        )
        assert hits == []

    def test_min_count_above_max_yields_nothing(self, toy_table):
        hits = scan_corpus(
            build_bigram_counts(tokenize("jet lag jet lag")),
            toy_table,
            ScoreMethod.WORD_SIMILARITY,
            0.5,
            min_count=3,
        )
        assert hits == []

    def test_top_n_truncates_after_sorting(self, toy_table, data_dir):
        corpus = tokenize((data_dir / "toy_corpus.txt").read_text(encoding="utf-8"))
        full = scan_corpus(build_bigram_counts(corpus), toy_table, ScoreMethod.WORD_SIMILARITY, 0.3)
        top = scan_corpus(
            build_bigram_counts(corpus), toy_table, ScoreMethod.WORD_SIMILARITY, 0.3, top_n=2
        )
        assert top == full[:2]

    def test_unscorable_bigrams_skipped(self, toy_table):
        # "xyzzy" has no vector, so its bigrams silently drop out of the scan.
        hits = scan_corpus(
            build_bigram_counts(tokenize("jet lag xyzzy jet")),
            toy_table,
            ScoreMethod.WORD_SIMILARITY,
            0.5,
        )
        assert [hit.pair for hit in hits] == [LexemePair("jet", "lag")]

    def test_empty_corpus_rejected(self, toy_table):
        with pytest.raises(CorpusError, match="no tokens"):
            scan_corpus(
                build_bigram_counts(tokenize("123 !!")), toy_table, ScoreMethod.WORD_SIMILARITY, 0.5
            )

    def test_out_of_range_threshold_rejected(self, toy_table):
        with pytest.raises(ConfigError, match="threshold"):
            scan_corpus(
                build_bigram_counts(tokenize("jet lag")), toy_table, ScoreMethod.WORD_SIMILARITY,
                1.5,
            )

    def test_min_count_below_one_rejected(self, toy_table):
        with pytest.raises(ConfigError, match="min_count"):
            scan_corpus(
                build_bigram_counts(tokenize("jet lag")),
                toy_table,
                ScoreMethod.WORD_SIMILARITY,
                0.5,
                min_count=0,
            )

    @given(
        # "xyzzy" has no vector and no definition.
        tokens=st.lists(
            st.sampled_from(("jet", "lag", "hot", "dog", "the", "book", "xyzzy")),
            min_size=1,
            max_size=40,
        ),
        method=st.sampled_from(list(ScoreMethod)),
        threshold=st.sampled_from((-0.5, 0.0, 0.3, 0.9, 1.0)),
        min_count=st.integers(min_value=1, max_value=3),
    )
    def test_matches_counter_reference(
        self, toy_table, toy_lexicon, toy_stopwords, tokens, method, threshold, min_count
    ):
        """Hits equal Counter's bigrams with count >= min_count, each judged by score_pair."""
        expected = []
        for (left, right), count in Counter(zip(tokens, tokens[1:])).items():
            pair = LexemePair(left, right)
            outcome = score_pair(method, toy_table, toy_lexicon, toy_stopwords, pair)
            if count >= min_count and outcome.is_scorable and outcome.value < threshold:
                expected.append((outcome.value, left, right, count))
        hits = scan_corpus(
            build_bigram_counts(tuple(tokens)),
            toy_table,
            method,
            threshold,
            min_count,
            lexicon=toy_lexicon,
            stopwords=toy_stopwords,
        )
        assert [(h.score, h.pair.left, h.pair.right, h.count) for h in hits] == sorted(expected)

    @pytest.mark.parametrize("method", list(ScoreMethod))
    @given(
        # "xyzzy" has no vector and no definition; "the" is a stop word.
        tokens=st.lists(
            st.sampled_from(("jet", "lag", "hot", "dog", "the", "xyzzy")), min_size=1, max_size=30
        ),
        min_count=st.integers(min_value=1, max_value=3),
    )
    @example(tokens=["jet", "xyzzy", "lag", "jet", "lag"], min_count=1)
    def test_unscorable_bigrams_are_logged_per_reason(
        self, toy_table, toy_lexicon, toy_stopwords, method, tokens, min_count
    ):
        """The logged counts and the scored bigrams add up to the bigrams
        with count >= min_count."""
        frequent = [
            LexemePair(*key)
            for key, count in Counter(zip(tokens, tokens[1:])).items()
            if count >= min_count
        ]
        outcomes = [score_pair(method, toy_table, toy_lexicon, toy_stopwords, p) for p in frequent]
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        logger = logging.getLogger("mwedetect.pipeline")
        logger.addHandler(handler)
        try:
            scan_corpus(
                build_bigram_counts(tokens), toy_table, method, 1.0, min_count,
                lexicon=toy_lexicon, stopwords=toy_stopwords,
            )
        finally:
            logger.removeHandler(handler)
        logged = Counter()
        for record in records:
            message = record.getMessage()
            found = re.fullmatch(r"scan: (\d+) of (\d+) bigram\(s\) unscorable: (.*)", message)
            assert found and record.levelno == logging.WARNING, message
            assert int(found[2]) == len(frequent)
            for part in found[3].split(", "):
                reason, count = part.rsplit(" ", 1)
                logged[reason] += int(count)
            assert int(found[1]) == sum(logged.values())
            assert list(logged) == [r for r in UNSCORABLE_REASONS if r in logged]
        assert len(records) == (1 if logged else 0)
        scored = sum(outcome.is_scorable for outcome in outcomes)
        assert sum(logged.values()) + scored == len(frequent)
        assert logged == Counter(o.unscorable_reason for o in outcomes if not o.is_scorable)

    @given(
        tokens=st.lists(st.sampled_from("abcdef"), min_size=2, max_size=40),
        vectors=st.lists(
            st.sampled_from([(1.0, 0.0), (-1.0, -0.0), (0.0, 1.0), (-0.0, -1.0), (1.0, 1.0)]),
            min_size=6,
            max_size=6,
        ),
        threshold=st.sampled_from([-0.5, 0.0, 0.5, 1.0]),
        top_n=st.none() | st.integers(min_value=1, max_value=5),
    )
    def test_tied_scores_keep_python_sort_order(self, tokens, vectors, threshold, top_n):
        """Tokens share a few vectors, some with -0.0 components, so many
        bigrams tie on score; the hits come in Python's (score, left, right)
        order."""
        table = make_table(dict(zip("abcdef", vectors)), dimension=2)
        hits = scan_corpus(
            build_bigram_counts(tokens), table, ScoreMethod.WORD_SIMILARITY, threshold, top_n=top_n
        )
        expected = []
        for (left, right), count in Counter(zip(tokens, tokens[1:])).items():
            pair = LexemePair(left, right)
            outcome = score_pair(ScoreMethod.WORD_SIMILARITY, table, None, None, pair)
            if outcome.value < threshold:
                expected.append((outcome.value, left, right, count))
        expected.sort(key=lambda hit: (hit[0], hit[1], hit[2]))
        assert [(h.score.hex(), h.pair.left, h.pair.right, h.count) for h in hits] == [
            (score.hex(), left, right, count) for score, left, right, count in expected[:top_n]
        ]

    def test_top_n_below_one_rejected(self, toy_table, data_dir):
        # A negative top_n would slice hits off the end instead of failing.
        corpus = tokenize((data_dir / "toy_corpus.txt").read_text(encoding="utf-8"))
        hits = scan_corpus(build_bigram_counts(corpus), toy_table, ScoreMethod.WORD_SIMILARITY, 0.9)
        assert len(hits) == 20
        for top_n in (-1, 0):
            with pytest.raises(ConfigError, match="top_n"):
                scan_corpus(
                    build_bigram_counts(corpus), toy_table, ScoreMethod.WORD_SIMILARITY, 0.9,
                    top_n=top_n,
                )
