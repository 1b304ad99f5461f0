"""Dataset assembly, threshold calibration, and the end-to-end experiment.

The experiment mirrors a 1:1:1 design: known compounds as positives, an
equal number of uniformly random word pairs, and an equal number of the
corpus's most frequent bigrams as two separate negative populations.
Thresholds are calibrated on a seen split and applied to the held-out
split, producing one report per (method, negative source).
"""

from __future__ import annotations

import bisect
import csv
import dataclasses
import enum
import logging
import os
import random
import typing
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from .corpus import build_bigram_counts, read_corpus, sample_random_pairs, top_cooccurring_pairs
from .definitions import load_definitions, load_stopwords
from .embeddings import load_embeddings
from .errors import ConfigError, DatasetError
from .pairs import LexemePair
from .scoring import ScoreMethod, ScoreOutcome, score_pairs
# Bound here only for perfbench's pipeline.score_pair and pipeline.classify hooks.
from .scoring import classify, score_pair  # noqa: F401
from ._io import text_lines

logger = logging.getLogger(__name__)

METHODS = (
    ScoreMethod.WORD_SIMILARITY,
    ScoreMethod.DEFINITION_SIMILARITY,
    ScoreMethod.DEFINITION_CONTENT_SIMILARITY,
)

SHARED = "shared"
PER_SOURCE = "per-source"
THRESHOLD_MODES = (SHARED, PER_SOURCE)


class PairSource(enum.Enum):
    LADEC = "ladec"
    RANDOM = "random"
    COOCCUR = "cooccur"


NEGATIVE_SOURCES = (PairSource.RANDOM, PairSource.COOCCUR)


@dataclass(frozen=True)
class LabeledPair:
    """A pair and where it came from; only known compounds are positives."""

    pair: LexemePair
    source: PairSource

    @property
    def is_positive(self) -> bool:
        return self.source is PairSource.LADEC


@dataclass(frozen=True)
class LabeledDataset:
    """A calibration/held-out partition of labeled pairs."""

    calibration: tuple[LabeledPair, ...]
    heldout: tuple[LabeledPair, ...]
    split_seed: int
    split_fraction: float


@dataclass(frozen=True)
class EvalReport:
    """Per-method, per-negative-source metrics over one held-out arm.

    Metrics are None when their denominator is zero; unscorable pairs are
    tallied separately and never enter tp/fp/fn/tn.
    """

    method: ScoreMethod
    negative_source: PairSource
    threshold: float
    recall: float | None
    precision: float | None
    f1: float | None
    tp: int
    fp: int
    fn: int
    tn: int
    unscorable_pos: int
    unscorable_neg: int

    @property
    def positives_evaluated(self) -> int:
        return self.tp + self.fn + self.unscorable_pos

    @property
    def negatives_evaluated(self) -> int:
        return self.fp + self.tn + self.unscorable_neg


def load_compounds(
    source: str | os.PathLike | Iterable[str],
    left_column: str = "c1",
    right_column: str = "c2",
) -> list[LexemePair]:
    """Read the positive compound pairs from a headered CSV.

    One pair per row, lowercased, deduplicated in first-seen order. Rows
    whose two constituents are identical are skipped with a warning
    (self-pairs are rejected at ingestion).
    """
    with text_lines(source) as lines:
        reader = csv.DictReader(lines)
        if reader.fieldnames is None:
            raise DatasetError("compound CSV is empty")
        missing = [c for c in (left_column, right_column) if c not in reader.fieldnames]
        if missing:
            raise DatasetError(f"compound CSV lacks column(s): {', '.join(missing)}")
        pairs: list[LexemePair] = []
        seen: set[LexemePair] = set()
        self_pairs = 0
        for rownum, row in enumerate(reader, start=2):
            left = (row[left_column] or "").strip().lower()
            right = (row[right_column] or "").strip().lower()
            if not left or not right:
                raise DatasetError(f"compound CSV row {rownum}: empty constituent")
            if left == right:
                self_pairs += 1
                continue
            try:
                pair = LexemePair(left, right)
            except ValueError as exc:
                raise DatasetError(f"compound CSV row {rownum}: {exc}") from None
            if pair in seen:
                continue
            seen.add(pair)
            pairs.append(pair)
    if self_pairs:
        logger.warning("compound CSV: skipped %d self-pair row(s)", self_pairs)
    if not pairs:
        raise DatasetError("compound CSV contains no usable pairs")
    return pairs


def both_orientations(pairs: Iterable[LexemePair]) -> set[tuple[str, str]]:
    """The ``(left, right)`` keys of ``pairs`` in both orientations.

    Excluding both orientations keeps negatives label-clean: the scorers
    are symmetric, so a reversed compound would score like the compound.
    """
    return {key for p in pairs for key in ((p.left, p.right), (p.right, p.left))}


def split_dataset(
    pairs: Sequence[LabeledPair],
    fraction: float,
    seed: int,
) -> LabeledDataset:
    """Stratified random split: ``fraction`` of each group to calibration.

    Stratification runs per pair source, which refines label stratification
    and keeps each negative population represented proportionally on both
    sides. Group sizes are floored, then clamped so every group of two or
    more lands at least one pair on each side. Deterministic per seed.
    """
    if not 0.0 < fraction < 1.0:
        raise DatasetError(f"split fraction must be in (0, 1), got {fraction}")
    rng = random.Random(seed)
    calibration: list[LabeledPair] = []
    heldout: list[LabeledPair] = []
    for source in (PairSource.LADEC, PairSource.RANDOM, PairSource.COOCCUR):
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
                "(need at least two pairs of each label)"
            )
    return LabeledDataset(
        calibration=tuple(calibration),
        heldout=tuple(heldout),
        split_seed=seed,
        split_fraction=fraction,
    )


def calibrate_threshold(
    positive_scores: Sequence[float],
    negative_scores: Sequence[float],
) -> float:
    """Pick the threshold maximizing F1 of the compound class.

    Candidate thresholds are the midpoints between consecutive distinct
    values in the sorted union of all scores, plus one candidate below the
    minimum and one above the maximum. Classification is strictly-below,
    and ties in F1 break toward the smallest threshold. Unscorable
    outcomes must already be removed from both lists.
    """
    if not positive_scores or not negative_scores:
        raise DatasetError("calibration needs at least one positive and one negative score")
    pos = sorted(positive_scores)
    neg = sorted(negative_scores)
    values = sorted(set(pos) | set(neg))
    candidates = [values[0] - 1.0]
    candidates.extend((a + b) / 2.0 for a, b in zip(values, values[1:]))
    candidates.append(values[-1] + 1.0)

    total_pos = len(pos)
    best_threshold = candidates[0]
    best_f1 = -1.0
    for threshold in candidates:
        tp = bisect.bisect_left(pos, threshold)
        fp = bisect.bisect_left(neg, threshold)
        fn = total_pos - tp
        denominator = 2 * tp + fp + fn
        f1 = (2.0 * tp / denominator) if denominator else 0.0
        if f1 > best_f1:
            best_f1 = f1
            best_threshold = threshold
    return best_threshold


def evaluate(
    scored_heldout: Sequence[tuple[LabeledPair, ScoreOutcome]],
    threshold: float,
    method: ScoreMethod,
    negative_source: PairSource,
) -> EvalReport:
    """Judge every outcome and tally the confusion counts.

    A score strictly below ``threshold`` is a compound judgement, and a
    compound judgement on a positive is a true positive; unscorable
    outcomes are counted per label but excluded from the four metric
    counts and from all denominators.
    """
    # Keyed (is positive, judged compound), None for unscorable. The rule is
    # ``classify``'s without its range check: a degenerate calibration may
    # pick a threshold above 1, which judges every scored pair a compound.
    tally = Counter(
        (labeled.is_positive, None if outcome.value is None else outcome.value < threshold)
        for labeled, outcome in scored_heldout
    )
    tp, fn, unscorable_pos = tally[True, True], tally[True, False], tally[True, None]
    fp, tn, unscorable_neg = tally[False, True], tally[False, False], tally[False, None]

    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    if precision is None or recall is None:
        f1 = None
    else:
        # Single division keeps f1 correctly rounded; the harmonic-mean form
        # 2PR/(P+R) drifts one ulp away from the exact rational on cases
        # like tp=2, fp=1, fn=2 (f1 = 4/7).
        f1 = 2 * tp / (2 * tp + fp + fn)
    return EvalReport(
        method=method,
        negative_source=negative_source,
        threshold=threshold,
        recall=recall,
        precision=precision,
        f1=f1,
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
        unscorable_pos=unscorable_pos,
        unscorable_neg=unscorable_neg,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed `key = value` experiment configuration.

    The fields are the config keys, and the ones without a default are the
    required input files. All paths are resolved relative to the config
    file's directory when loaded from disk.
    """

    embeddings: Path
    compounds: Path
    corpus: Path
    definitions: Path
    stopwords: Path
    sample_seed: int = 0
    split_seed: int = 0
    fraction: float = 0.5
    threshold_mode: str = SHARED
    compound_left_column: str = "c1"
    compound_right_column: str = "c2"
    output_dir: Path = Path(".")


# The ConfigError wording for a value that does not parse as its field's type.
_NUMBER_KINDS = {int: "an integer", float: "a number"}


def load_config(path: str | os.PathLike) -> ExperimentConfig:
    """Parse a declarative `key = value` config file.

    The keys are the fields of ExperimentConfig: a field without a default
    is required, and each value is parsed as its field's type. Blank lines
    and lines starting with ``#`` are ignored. Unknown keys, unparsable
    values, and missing required keys all raise ConfigError naming the
    offending key.
    """
    path = Path(path)
    fields = {field.name: field for field in dataclasses.fields(ExperimentConfig)}
    types = typing.get_type_hints(ExperimentConfig)
    raw: dict[str, str] = {}
    try:
        content = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for lineno, line in enumerate(content.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected `key = value`")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in fields:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        raw[key] = value

    missing = [k for k, f in fields.items() if f.default is dataclasses.MISSING and k not in raw]
    if missing:
        raise ConfigError(f"config missing required key(s): {', '.join(missing)}")

    # A key left out takes its field's default, except that relative paths,
    # the default output_dir included, resolve against the config directory.
    values: dict[str, object] = {}
    for key, field in fields.items():
        kind = types[key]
        if kind is Path:
            value = Path(raw.get(key, field.default))
            values[key] = value if value.is_absolute() else (path.parent / value).resolve()
        elif key in raw:
            try:
                values[key] = kind(raw[key])
            except ValueError:  # only int and float parsing can fail
                raise ConfigError(
                    f"config key {key!r}: not {_NUMBER_KINDS[kind]}: {raw[key]!r}"
                ) from None

    config = ExperimentConfig(**values)
    if not 0.0 < config.fraction < 1.0:
        raise ConfigError(f"config key 'fraction': must be in (0, 1), got {config.fraction}")
    if config.threshold_mode not in THRESHOLD_MODES:
        raise ConfigError(
            f"config key 'threshold_mode': expected one of {THRESHOLD_MODES}, "
            f"got {config.threshold_mode!r}"
        )
    return config


@dataclass(frozen=True)
class ExperimentResult:
    """Everything a run produces: six reports, thresholds, and provenance."""

    reports: tuple[EvalReport, ...]
    thresholds: dict[tuple[ScoreMethod, PairSource], float]
    threshold_mode: str
    dataset: LabeledDataset
    config: ExperimentConfig
    vocabulary_size: int
    bigram_type_count: int


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the full calibrate-then-evaluate experiment.

    Builds the 1:1:1 labeled dataset (positives, uniform random pairs over
    the corpus vocabulary, top co-occurring bigrams), scores every pair
    under all three methods, calibrates per-method thresholds on the
    calibration split, and evaluates the held-out split once per negative
    source. In shared mode the threshold comes from the random-pair
    negatives alone and is applied to both arms, which makes held-out
    recall identical across negative sources by construction.
    """
    for field in dataclasses.fields(config):
        # The required fields are the input files.
        input_path = getattr(config, field.name)
        if field.default is dataclasses.MISSING and not input_path.exists():
            raise ConfigError(f"config key {field.name!r}: no such file: {input_path}")

    table = load_embeddings(config.embeddings)
    lexicon = load_definitions(config.definitions)
    stopwords = load_stopwords(config.stopwords)
    positives = load_compounds(
        config.compounds, config.compound_left_column, config.compound_right_column
    )
    stream = read_corpus(config.corpus)
    counts = build_bigram_counts(stream)
    vocabulary = set(stream.tokens)

    exclusions = both_orientations(positives)
    n = len(positives)
    randoms = sample_random_pairs(vocabulary, n, config.sample_seed, exclusions)
    cooccurs = top_cooccurring_pairs(counts, n, exclusions)

    labeled = (
        [LabeledPair(p, PairSource.LADEC) for p in positives]
        + [LabeledPair(p, PairSource.RANDOM) for p in randoms]
        + [LabeledPair(p, PairSource.COOCCUR) for p in cooccurs]
    )
    dataset = split_dataset(labeled, config.fraction, config.split_seed)

    unique_pairs = list(dict.fromkeys(lp.pair for lp in dataset.calibration + dataset.heldout))
    scores = {
        method: dict(zip(unique_pairs, score_pairs(method, table, lexicon, stopwords, unique_pairs)))
        for method in METHODS
    }

    def arm_scores(split: tuple[LabeledPair, ...], method: ScoreMethod, source: PairSource):
        return [
            (lp, scores[method][lp.pair])
            for lp in split
            if lp.source is PairSource.LADEC or lp.source is source
        ]

    def calibrate(method: ScoreMethod, source: PairSource) -> float:
        pos = [
            scores[method][lp.pair].value
            for lp in dataset.calibration
            if lp.is_positive and scores[method][lp.pair].is_scorable
        ]
        neg = [
            scores[method][lp.pair].value
            for lp in dataset.calibration
            if lp.source is source and scores[method][lp.pair].is_scorable
        ]
        if not pos or not neg:
            raise DatasetError(
                f"calibration impossible for {method.value} vs {source.value}: "
                "no scorable pairs on one side"
            )
        return calibrate_threshold(pos, neg)

    thresholds: dict[tuple[ScoreMethod, PairSource], float] = {}
    for method in METHODS:
        if config.threshold_mode == SHARED:
            threshold = calibrate(method, PairSource.RANDOM)
            for source in NEGATIVE_SOURCES:
                thresholds[(method, source)] = threshold
        else:
            for source in NEGATIVE_SOURCES:
                thresholds[(method, source)] = calibrate(method, source)

    reports = tuple(
        evaluate(
            arm_scores(dataset.heldout, method, source),
            thresholds[(method, source)],
            method,
            source,
        )
        for method in METHODS
        for source in NEGATIVE_SOURCES
    )
    return ExperimentResult(
        reports=reports,
        thresholds=thresholds,
        threshold_mode=config.threshold_mode,
        dataset=dataset,
        config=config,
        vocabulary_size=len(vocabulary),
        bigram_type_count=len(counts.counts),
    )


__all__ = [
    "PairSource",
    "LabeledPair",
    "LabeledDataset",
    "EvalReport",
    "load_compounds",
    "both_orientations",
    "split_dataset",
    "calibrate_threshold",
    "evaluate",
    "ExperimentConfig",
    "load_config",
    "ExperimentResult",
    "run_experiment",
    "METHODS",
    "NEGATIVE_SOURCES",
    "SHARED",
    "PER_SOURCE",
    "THRESHOLD_MODES",
]
