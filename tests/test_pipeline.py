"""Dataset assembly, calibration, evaluation, and the experiment runner."""

from __future__ import annotations

import dataclasses
import re
import string
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mwedetect.errors import ConfigError, DatasetError, SamplingError
from mwedetect.pairs import LexemePair
from mwedetect.pipeline import (
    NEGATIVE_SOURCES,
    THRESHOLD_MODES,
    EvalReport,
    ExperimentConfig,
    LabeledPair,
    PairSource,
    calibrate_threshold,
    evaluate,
    load_compounds,
    load_config,
    run_experiment,
    split_dataset,
)
from mwedetect.scoring import ScoreMethod, ScoreOutcome


def _positive(left: str, right: str) -> LabeledPair:
    return LabeledPair(LexemePair(left, right), PairSource.LADEC)


def _negative(left: str, right: str, source: PairSource = PairSource.RANDOM) -> LabeledPair:
    return LabeledPair(LexemePair(left, right), source)


class TestLabeledPair:
    def test_positive_must_come_from_compound_source(self):
        for source in PairSource:
            labeled = LabeledPair(LexemePair("a", "b"), source)
            assert labeled.is_positive is (source is PairSource.LADEC)


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

    def test_no_usable_rows(self):
        with pytest.raises(DatasetError, match="no usable pairs"):
            load_compounds(["c1,c2"])

    def test_empty_file(self):
        with pytest.raises(DatasetError, match="empty"):
            load_compounds([])

    def test_extra_columns_ignored(self):
        pairs = load_compounds(["c1,c2,rating", "hot,dog,0.91"])
        assert pairs == [LexemePair("hot", "dog")]


class TestSplitDataset:
    def _balanced(self, n_pos: int, n_neg: int) -> list[LabeledPair]:
        tokens = "abcdefghijklmnopqrstuvwxyz"
        positives = [_positive(tokens[i], tokens[i + 1]) for i in range(n_pos)]
        negatives = [_negative(tokens[i + 1], tokens[i]) for i in range(n_neg)]
        return positives + negatives

    def test_half_split_is_exact_for_even_groups(self):
        dataset = split_dataset(self._balanced(10, 10), fraction=0.5, seed=0)
        for side in (dataset.calibration, dataset.heldout):
            assert sum(1 for p in side if p.is_positive) == 5
            assert sum(1 for p in side if not p.is_positive) == 5

    def test_partition_preserves_every_pair(self):
        pairs = self._balanced(7, 9)
        dataset = split_dataset(pairs, fraction=0.5, seed=3)
        assert sorted(str(p.pair) for p in dataset.calibration + dataset.heldout) == sorted(
            str(p.pair) for p in pairs
        )

    def test_deterministic_per_seed(self):
        pairs = self._balanced(8, 8)
        first = split_dataset(pairs, fraction=0.5, seed=42)
        second = split_dataset(pairs, fraction=0.5, seed=42)
        assert first == second

    def test_different_seeds_differ(self):
        pairs = self._balanced(8, 8)
        splits = {split_dataset(pairs, 0.5, seed).calibration for seed in range(20)}
        assert len(splits) > 1

    def test_stratified_per_negative_source(self):
        pairs = self._balanced(4, 0) + [
            _negative("x", "y", PairSource.RANDOM),
            _negative("y", "x", PairSource.RANDOM),
            _negative("x", "z", PairSource.COOCCUR),
            _negative("z", "x", PairSource.COOCCUR),
        ]
        dataset = split_dataset(pairs, fraction=0.5, seed=1)
        for side in (dataset.calibration, dataset.heldout):
            assert sum(1 for p in side if p.source is PairSource.RANDOM) == 1
            assert sum(1 for p in side if p.source is PairSource.COOCCUR) == 1

    def test_extreme_fraction_clamped_so_both_sides_populated(self):
        pairs = self._balanced(4, 4)
        low = split_dataset(pairs, fraction=0.1, seed=0)
        assert sum(1 for p in low.calibration if p.is_positive) == 1
        high = split_dataset(pairs, fraction=0.9, seed=0)
        assert sum(1 for p in high.heldout if p.is_positive) == 1

    def test_fraction_bounds_rejected(self):
        pairs = self._balanced(4, 4)
        for fraction in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DatasetError, match="fraction"):
                split_dataset(pairs, fraction=fraction, seed=0)

    def test_single_positive_is_infeasible(self):
        pairs = self._balanced(1, 4)
        with pytest.raises(DatasetError, match="infeasible"):
            split_dataset(pairs, fraction=0.5, seed=0)


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

    @staticmethod
    def _candidate_f1s(positives, negatives):
        """Each candidate threshold with its exact F1."""
        values = sorted(set(positives) | set(negatives))
        candidates = [values[0] - 1.0]
        candidates.extend((a + b) / 2.0 for a, b in zip(values, values[1:]))
        candidates.append(values[-1] + 1.0)
        scored = []
        for threshold in candidates:
            tp = sum(1 for v in positives if v < threshold)
            fp = sum(1 for v in negatives if v < threshold)
            fn = len(positives) - tp
            denominator = 2 * tp + fp + fn
            f1 = Fraction(2 * tp, denominator) if denominator else Fraction(0)
            scored.append((threshold, f1))
        return scored

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
        assert calibrate_threshold(positives, negatives) == self._oracle(positives, negatives)

    @settings(max_examples=300)
    @given(
        positives=st.lists(_SCORES, min_size=1, max_size=30),
        negatives=st.lists(_SCORES, min_size=1, max_size=30),
    )
    def test_evaluate_at_calibrated_threshold_reaches_best_f1(self, positives, negatives):
        """The calibrated threshold may lie above 1 (no positive scores below
        a negative); evaluate must still judge by ``value < threshold``."""
        threshold = calibrate_threshold(positives, negatives)
        scored = [
            (_positive(f"p{i}", "x"), ScoreOutcome.scored(v)) for i, v in enumerate(positives)
        ] + [(_negative(f"n{i}", "y"), ScoreOutcome.scored(v)) for i, v in enumerate(negatives)]
        report = evaluate(scored, threshold, ScoreMethod.WORD_SIMILARITY, PairSource.RANDOM)
        assert report.tp == sum(1 for v in positives if v < threshold)
        assert report.fp == sum(1 for v in negatives if v < threshold)
        assert report.tp + report.fn == report.positives_evaluated == len(positives)
        assert report.fp + report.tn == report.negatives_evaluated == len(negatives)
        assert report.unscorable_pos == report.unscorable_neg == 0
        best = max(f1 for _, f1 in self._candidate_f1s(positives, negatives))
        assert report.f1 == float(best)


class TestEvaluate:
    def _score(self, pairs, values):
        scored = []
        for labeled, value in zip(pairs, values):
            outcome = (
                ScoreOutcome.unscorable("left-oov")
                if value is None
                else ScoreOutcome.scored(value)
            )
            scored.append((labeled, outcome))
        return scored

    def _ten_pair_fixture(self):
        tokens = "abcdefghij"
        positives = [_positive(t, "x") for t in tokens[:5]]
        negatives = [_negative(t, "y") for t in tokens[5:]]
        scored = self._score(positives, [0.1, 0.2, 0.6, 0.9, None])
        scored += self._score(negatives, [0.3, 0.7, 0.8, 0.95, None])
        return scored

    def test_hand_computed_confusion_counts(self):
        report = evaluate(
            self._ten_pair_fixture(), 0.5, ScoreMethod.WORD_SIMILARITY, PairSource.RANDOM
        )
        assert (report.tp, report.fp, report.fn, report.tn) == (2, 1, 2, 3)
        assert (report.unscorable_pos, report.unscorable_neg) == (1, 1)
        assert report.positives_evaluated == 5
        assert report.negatives_evaluated == 5

    def test_metrics_match_exact_rationals(self):
        report = evaluate(
            self._ten_pair_fixture(), 0.5, ScoreMethod.WORD_SIMILARITY, PairSource.RANDOM
        )
        assert report.precision == float(Fraction(2, 3))
        assert report.recall == float(Fraction(1, 2))
        assert report.f1 == float(Fraction(4, 7))

    def test_perfect_recall_example(self):
        positives = [_positive(t, "x") for t in "ab"]
        negatives = [_negative(t, "y") for t in "cdef"]
        scored = self._score(positives, [0.1, 0.2]) + self._score(
            negatives, [0.3, 0.7, 0.8, 0.9]
        )
        report = evaluate(scored, 0.5, ScoreMethod.WORD_SIMILARITY, PairSource.RANDOM)
        assert (report.tp, report.fp, report.fn, report.tn) == (2, 1, 0, 3)
        assert report.precision == float(Fraction(2, 3))
        assert report.recall == 1.0
        assert report.f1 == 0.8

    def test_all_unscorable_leaves_metrics_absent(self):
        scored = self._score([_positive("a", "x"), _negative("b", "y")], [None, None])
        report = evaluate(scored, 0.0, ScoreMethod.WORD_SIMILARITY, PairSource.RANDOM)
        assert report.recall is None
        assert report.precision is None
        assert report.f1 is None
        assert (report.tp, report.fp, report.fn, report.tn) == (0, 0, 0, 0)
        assert (report.unscorable_pos, report.unscorable_neg) == (1, 1)

    def test_nothing_judged_compound_leaves_precision_absent(self):
        scored = self._score(
            [_positive("a", "x"), _negative("b", "y")], [0.9, 0.8]
        )
        report = evaluate(scored, -1.0, ScoreMethod.WORD_SIMILARITY, PairSource.RANDOM)
        assert report.precision is None
        assert report.recall == 0.0
        assert report.f1 is None


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

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.conf")

    @pytest.mark.parametrize("key", ["Embeddings", "output-dir", "seed", "threshold"])
    def test_each_unknown_key_named(self, tmp_path, key):
        with pytest.raises(ConfigError) as error:
            load_config(self._write(tmp_path, self.REQUIRED + f"{key} = 1\n"))
        assert str(error.value) == f"config line 6: unknown key {key!r}"

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(missing=st.sets(st.sampled_from(_REQUIRED_KEYS), min_size=1))
    def test_each_missing_required_key_named(self, tmp_path, missing):
        text = "".join(f"{key} = {key}.txt\n" for key in _REQUIRED_KEYS if key not in missing)
        with pytest.raises(ConfigError) as error:
            load_config(self._write(tmp_path, text))
        named = ", ".join(key for key in _REQUIRED_KEYS if key in missing)
        assert str(error.value) == f"config missing required key(s): {named}"

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
        pairs = result.dataset.calibration + result.dataset.heldout
        by_source = {source: 0 for source in PairSource}
        for labeled in pairs:
            by_source[labeled.source] += 1
        assert by_source == {PairSource.LADEC: 4, PairSource.RANDOM: 4, PairSource.COOCCUR: 4}

    def test_rerun_is_bit_identical(self, result, config_path):
        again = run_experiment(load_config(config_path))
        assert again.reports == result.reports
        assert again.thresholds == result.thresholds
        assert again.dataset == result.dataset

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
