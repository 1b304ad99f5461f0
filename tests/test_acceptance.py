"""Shipping acceptance gate.

One test per release criterion. Each prints a `[acceptance] criterion N:
PASS/FAIL` line that bypasses pytest's capture, so running this module reads
as a checklist regardless of verbosity flags.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import math
import os
import random
import struct
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mwedetect import scan_corpus
from mwedetect.cli import main
from mwedetect.corpus import tokenize
from mwedetect.embeddings import cosine
from mwedetect.pairs import LexemePair
from mwedetect.pipeline import (
    PairSource,
    calibrate_threshold,
    evaluate,
    LabeledPair,
    load_config,
    run_experiment,
)
from mwedetect.scoring import ScoreMethod, ScoreOutcome, score_pair

from conftest import score_arrays


@pytest.fixture
def announce(capfd):
    @contextlib.contextmanager
    def _announce(label: str):
        try:
            yield
        except pytest.skip.Exception:
            with capfd.disabled():
                print(f"[acceptance] criterion {label}: SKIP")
            raise
        except BaseException:
            with capfd.disabled():
                print(f"[acceptance] criterion {label}: FAIL")
            raise
        with capfd.disabled():
            print(f"[acceptance] criterion {label}: PASS")

    return _announce


def test_criterion_1_cosine_algebra_properties(announce):
    """Symmetry, self-similarity, scale invariance, range — 10k vectors, < 5 s."""
    with announce("1 (cosine algebra, 10k vectors)"):
        rng = np.random.default_rng(20260816)
        start = time.perf_counter()
        vectors_used = 0
        while vectors_used < 10_000:
            dim = int(rng.integers(2, 129))
            a = rng.uniform(-10.0, 10.0, size=dim)
            b = rng.uniform(-10.0, 10.0, size=dim)
            vectors_used += 2

            value = cosine(a, b)
            assert value == cosine(b, a)
            assert -1.0 <= value <= 1.0
            assert abs(cosine(a, a) - 1.0) <= 1e-9
            scale = float(rng.uniform(0.25, 8.0))
            assert abs(cosine(scale * a, b) - value) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"property suite took {elapsed:.2f}s"


def _exact_best_threshold(positives: list[float], negatives: list[float]) -> float:
    """Brute-force oracle: exhaustive candidate scan with rational F1."""
    values = sorted(set(positives) | set(negatives))
    candidates = [values[0] - 1.0]
    for lo, hi in zip(values, values[1:]):
        midpoint = (lo + hi) / 2.0
        candidates.append(hi if midpoint == lo else midpoint)
    candidates.append(values[-1] + 1.0)
    best = [(_f1_at(threshold, positives, negatives), threshold) for threshold in candidates]
    top = max(f1 for f1, _ in best)
    return min(threshold for f1, threshold in best if f1 == top)


def _f1_at(threshold: float, positives: list[float], negatives: list[float]) -> Fraction:
    """Exact F1 of judging every score strictly below ``threshold`` compound."""
    tp = sum(1 for v in positives if v < threshold)
    fp = sum(1 for v in negatives if v < threshold)
    fn = len(positives) - tp
    denominator = 2 * tp + fp + fn
    return Fraction(2 * tp, denominator) if denominator else Fraction(0)


def _best_cut_f1(positives: list[float], negatives: list[float]) -> Fraction:
    """Best exact F1 over every cut by index (the k smallest distinct scores
    judged compound, for each k), with no threshold formula involved."""
    values = sorted(set(positives) | set(negatives))
    best = Fraction(0)
    for k in range(len(values) + 1):
        compound = set(values[:k])
        tp = sum(1 for v in positives if v in compound)
        fp = sum(1 for v in negatives if v in compound)
        best = max(best, Fraction(2 * tp, tp + fp + len(positives)))
    return best


def test_criterion_2_calibration_matches_bruteforce_oracle(announce):
    """500 random grid instances and 100 with adjacent-float scores: exact
    equality including the smallest-tie-break, and the best F1 over every cut, < 10 s."""
    with announce("2 (calibration vs brute-force oracle, 500 instances)"):
        grid = [round(k * 0.05, 2) - 1.0 for k in range(41)]
        rng = random.Random(977)
        start = time.perf_counter()
        for _ in range(500):
            positives = [rng.choice(grid) for _ in range(rng.randint(1, 50))]
            negatives = [rng.choice(grid) for _ in range(rng.randint(1, 50))]
            threshold = calibrate_threshold(positives, negatives)
            assert threshold == _exact_best_threshold(positives, negatives)
            assert _f1_at(threshold, positives, negatives) == _best_cut_f1(positives, negatives)
        # Scores a few representable floats apart, where a midpoint can round
        # onto a score and so must not be the only kind of cut.
        for _ in range(100):
            steps = [rng.uniform(-0.99, 0.99)]
            for _ in range(3):
                steps.append(math.nextafter(steps[-1], 1.0))
            positives = [rng.choice(steps) for _ in range(rng.randint(1, 10))]
            negatives = [rng.choice(steps) for _ in range(rng.randint(1, 10))]
            threshold = calibrate_threshold(positives, negatives)
            assert threshold == _exact_best_threshold(positives, negatives)
            assert _f1_at(threshold, positives, negatives) == _best_cut_f1(positives, negatives)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"oracle comparison took {elapsed:.2f}s"


def test_criterion_3_metric_arithmetic_is_exact(announce):
    """Hand-labeled 10-pair fixture reproduces rational metrics exactly."""
    with announce("3 (exact metric arithmetic)"):
        positives = [
            LabeledPair(LexemePair(t, "x"), PairSource.LADEC) for t in "abcde"
        ]
        negatives = [
            LabeledPair(LexemePair(t, "y"), PairSource.RANDOM) for t in "fghij"
        ]
        outcomes = [0.1, 0.2, 0.6, 0.9, None, 0.3, 0.7, 0.8, 0.95, None]
        scored = [
            (
                labeled,
                ScoreOutcome.scored(v) if v is not None else ScoreOutcome.unscorable("left-oov"),
            )
            for labeled, v in zip(positives + negatives, outcomes)
        ]
        report = evaluate(
            *score_arrays(scored), 0.5, ScoreMethod.WORD_SIMILARITY, PairSource.RANDOM
        )
        assert (report.tp, report.fp, report.fn, report.tn) == (2, 1, 2, 3)
        assert (report.unscorable_pos, report.unscorable_neg) == (1, 1)
        assert report.precision == float(Fraction(2, 3))
        assert report.recall == float(Fraction(1, 2))
        assert report.f1 == float(Fraction(4, 7))


def _bits(outcome: ScoreOutcome) -> tuple:
    value = None if outcome.value is None else struct.pack("<d", outcome.value)
    return (value, outcome.unscorable_reason)


def test_criterion_4_empty_stopword_filter_is_identity(announce, toy_table, toy_lexicon):
    """definition-content with empty stop words is bit-identical to definition."""
    with announce("4 (empty stop-word list degenerates to identity)"):
        vocab = sorted(toy_table.index) + ["unlisted"]
        compared = 0
        for left in vocab:
            for right in vocab:
                if left == right:
                    continue
                pair = LexemePair(left, right)
                filtered = score_pair(
                    ScoreMethod.DEFINITION_CONTENT_SIMILARITY, toy_table, toy_lexicon, frozenset(), pair
                )
                plain = score_pair(ScoreMethod.DEFINITION_SIMILARITY, toy_table, toy_lexicon, None, pair)
                assert _bits(filtered) == _bits(plain)
                compared += 1
        assert compared == 17 * 16


def _counts_nonnegative(report) -> bool:
    return min(report.tp, report.fp, report.fn, report.tn,
               report.unscorable_pos, report.unscorable_neg) >= 0


def test_criterion_5_end_to_end_fixture_run(announce, config_path, toy_table):
    """Toy run yields six reports with intact count identities; rerun is bit-identical."""
    with announce("5 (end-to-end fixture run, deterministic)"):
        assert len(toy_table) <= 20
        assert toy_table.dimension == 4

        config = load_config(config_path)
        result = run_experiment(config)
        assert len(result.reports) == 6
        for report in result.reports:
            assert _counts_nonnegative(report)
            assert report.tp + report.fn + report.unscorable_pos == 2
            assert report.fp + report.tn + report.unscorable_neg == 2

        again = run_experiment(load_config(config_path))
        assert again.reports == result.reports
        assert again.thresholds == result.thresholds
        assert again.dataset == result.dataset


def test_criterion_6_shared_threshold_recall_equality(announce, config_path):
    """Shared-threshold mode: recall is identical across negative sources."""
    with announce("6 (shared-threshold recall equality)"):
        result = run_experiment(load_config(config_path))
        assert result.config.threshold_mode == "shared"
        by_method = {}
        for report in result.reports:
            by_method.setdefault(report.method, {})[report.negative_source] = report
        for method, arms in by_method.items():
            random_arm = arms[PairSource.RANDOM]
            cooccur_arm = arms[PairSource.COOCCUR]
            assert random_arm.recall is not None
            assert random_arm.recall == cooccur_arm.recall
            assert random_arm.threshold == cooccur_arm.threshold


def test_criterion_7_full_data_reproduction(announce, tmp_path):
    """Best-effort reproduction on external GloVe + compound + corpus data.

    Requires MWEDETECT_REPRO_DIR pointing at a directory with glove.txt,
    compounds.csv, corpus.txt, definitions.tsv, and stopwords.txt; skipped
    otherwise because that data is not shipped with the repository.
    """
    with announce("7 (best-effort full-data reproduction)"):
        root = os.environ.get("MWEDETECT_REPRO_DIR")
        if not root:
            pytest.skip("MWEDETECT_REPRO_DIR not set; external embedding/corpus data required")
        root_path = Path(root)
        expected_files = [
            "glove.txt", "compounds.csv", "corpus.txt", "definitions.tsv", "stopwords.txt",
        ]
        missing = [name for name in expected_files if not (root_path / name).exists()]
        if missing:
            pytest.skip(f"reproduction data incomplete, missing: {', '.join(missing)}")

        config_file = tmp_path / "repro.conf"
        config_file.write_text(
            "\n".join(
                [
                    f"embeddings = {root_path / 'glove.txt'}",
                    f"compounds = {root_path / 'compounds.csv'}",
                    f"corpus = {root_path / 'corpus.txt'}",
                    f"definitions = {root_path / 'definitions.tsv'}",
                    f"stopwords = {root_path / 'stopwords.txt'}",
                    "sample_seed = 0",
                    "split_seed = 0",
                    "fraction = 0.5",
                    "threshold_mode = shared",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        start = time.perf_counter()
        result = run_experiment(load_config(config_file))
        elapsed = time.perf_counter() - start

        word = {
            report.negative_source: report
            for report in result.reports
            if report.method is ScoreMethod.WORD_SIMILARITY
        }
        random_arm = word[PairSource.RANDOM]
        cooccur_arm = word[PairSource.COOCCUR]
        threshold = result.thresholds[(ScoreMethod.WORD_SIMILARITY, PairSource.RANDOM)]

        tolerance = 0.05
        assert random_arm.recall == pytest.approx(0.840, abs=tolerance)
        assert random_arm.precision == pytest.approx(0.596, abs=tolerance)
        assert random_arm.f1 == pytest.approx(0.697, abs=tolerance)
        assert cooccur_arm.precision == pytest.approx(0.754, abs=tolerance)
        assert cooccur_arm.f1 == pytest.approx(0.795, abs=tolerance)
        assert threshold == pytest.approx(0.78, abs=tolerance)
        assert elapsed < 600.0, f"full-data run took {elapsed:.0f}s"


def test_criterion_8_scan_emits_exactly_the_qualifying_bigrams(announce, toy_table, tmp_path):
    """Scan output = all bigrams passing count and score predicates, ascending."""
    with announce("8 (frame-blind scan correctness)"):
        text = (
            "jet lag jet lag the video game hot dog. "
            "Worm time dog food, the dog food! unlistedtoken jet."
        )
        threshold, min_count = 0.5, 2

        # Independent recount: explicit bigram loop plus a from-scratch cosine.
        tokens = tokenize(text)
        counts: dict[tuple[str, str], int] = {}
        for left, right in zip(tokens, tokens[1:]):
            counts[(left, right)] = counts.get((left, right), 0) + 1

        def plain_cosine(u, v) -> float:
            dot = sum(x * y for x, y in zip(u, v))
            norm_u = math.sqrt(sum(x * x for x in u))
            norm_v = math.sqrt(sum(x * x for x in v))
            return dot / (norm_u * norm_v)

        expected = []
        for (left, right), count in counts.items():
            if count < min_count:
                continue
            u = toy_table.lookup(left)
            v = toy_table.lookup(right)
            if u is None or v is None:
                continue
            score = plain_cosine(u, v)
            if score < threshold:
                expected.append((left, right, count, score))
        expected.sort(key=lambda row: (row[3], row[0], row[1]))
        assert expected, "fixture must produce at least one hit"

        hits = scan_corpus(
            tokenize(text), toy_table, ScoreMethod.WORD_SIMILARITY, threshold, min_count
        )
        assert [(h.pair.left, h.pair.right, h.count) for h in hits] == [
            (left, right, count) for left, right, count, _ in expected
        ]
        for hit, (_, _, _, score) in zip(hits, expected):
            assert hit.score == pytest.approx(score, abs=1e-12)
            assert hit.score < threshold
            assert hit.count >= min_count
        emitted_scores = [h.score for h in hits]
        assert emitted_scores == sorted(emitted_scores)

        # The CLI front end must agree with the library scan.
        corpus_file = tmp_path / "scan_corpus.txt"
        corpus_file.write_text(text, encoding="utf-8")
        out_file = tmp_path / "hits.csv"
        code = main(
            [
                "scan",
                "--corpus", str(corpus_file),
                "--embeddings", str(Path(__file__).parent / "data" / "toy_embeddings.txt"),
                "--method", "word",
                "--threshold", str(threshold),
                "--min-count", str(min_count),
                "--output", str(out_file),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(out_file.read_text(encoding="utf-8").splitlines()))
        assert [(r["left"], r["right"], int(r["count"])) for r in rows] == [
            (h.pair.left, h.pair.right, h.count) for h in hits
        ]


def test_fixture_dataset_shape_matches_acceptance_contract(config_path):
    """The bundled experiment really is 4 positives + 4 random + 4 co-occurring."""
    result = run_experiment(load_config(config_path))
    pairs = result.dataset.calibration + result.dataset.heldout
    per_source = {source: 0 for source in PairSource}
    for labeled in pairs:
        per_source[labeled.source] += 1
    assert per_source == {PairSource.LADEC: 4, PairSource.RANDOM: 4, PairSource.COOCCUR: 4}
    assert dataclasses.asdict(load_config(config_path))["fraction"] == 0.5
