"""Dataset assembly, threshold calibration, the end-to-end experiment, and scans.

The experiment mirrors a 1:1:1 design: known compounds as positives, an
equal number of uniformly random word pairs, and an equal number of the
corpus's most frequent bigrams as two separate negative populations.
Thresholds are calibrated on a seen split and applied to the held-out
split, producing one report per (method, negative source). A scan applies
one threshold to every bigram of raw text.

Both score their pairs through ``scoring.score_ids`` as arrays: lexeme ids
in, one value array per method out, NaN where a pair is unscorable.
Calibration, evaluation and the scan's hit selection work on those arrays
with masks; no per-pair outcome objects are built.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import functools
import logging
import os
import random
import typing
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import BigramCounts, counting, sample_random_pairs, top_cooccurring_pairs
# Bound here for perfbench's pipeline.read_corpus and pipeline.build_bigram_counts hooks.
from .corpus import build_bigram_counts, read_corpus  # noqa: F401
from .definitions import DefinitionLexicon, load_definitions, load_stopwords, resolve_definitions
from .embeddings import EmbeddingTable, load_embeddings
from .errors import ConfigError, CorpusError, DatasetError
from .pairs import LexemePair
from .scoring import UNSCORABLE_REASONS, ScoreMethod, is_compound, lexeme_ids, score_ids
# Bound here for perfbench's pipeline.classify and pipeline.score_pair hooks.
from .scoring import classify, score_pair  # noqa: F401
from ._io import naming, read_text, text_lines

logger = logging.getLogger(__name__)

METHODS = tuple(ScoreMethod)

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
    with text_lines(source, DatasetError) as lines:
        reader = csv.DictReader(lines)
        # Setting a key again keeps its first position.
        pairs: dict[LexemePair, None] = {}
        self_pairs = 0
        try:
            if reader.fieldnames is None:
                raise DatasetError("compound CSV is empty")
            missing = [c for c in (left_column, right_column) if c not in reader.fieldnames]
            if missing:
                raise DatasetError(f"compound CSV lacks column(s): {', '.join(missing)}")
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
                pairs[pair] = None
        except csv.Error as exc:
            # DictReader's own line_num lags behind on a failed row; its reader's does not.
            raise DatasetError(f"compound CSV line {reader.reader.line_num}: {exc}") from None
        if self_pairs:
            logger.warning("compound CSV: skipped %d self-pair row(s)", self_pairs)
        if not pairs:
            raise DatasetError("compound CSV contains no usable pairs")
    return list(pairs)


def both_orientations(pairs: Iterable[LexemePair]) -> set[tuple[str, str]]:
    """The ``(left, right)`` keys of ``pairs`` in both orientations.

    Excluding both orientations keeps negatives label-clean: the scorers
    are symmetric, so a compound with its constituents swapped would score
    like the compound.
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
    minimum and one above the maximum. Where two values are adjacent floats
    their midpoint rounds onto the smaller, so the larger is the candidate.
    Classification is strictly-below, and ties in F1 break toward the
    smallest threshold. All candidates are counted at once, by
    ``np.searchsorted`` over the sorted scores. The scores may be sequences
    of floats or float arrays; unscorable pairs must already be removed.
    """
    pos = np.sort(np.asarray(positive_scores, dtype=np.float64))
    neg = np.sort(np.asarray(negative_scores, dtype=np.float64))
    if not len(pos) or not len(neg):
        raise DatasetError("calibration needs at least one positive and one negative score")
    values = np.unique(np.concatenate((pos, neg)))
    lower, upper = values[:-1], values[1:]
    midpoints = (lower + upper) / 2.0
    candidates = np.concatenate(
        ([values[0] - 1.0], np.where(midpoints == lower, upper, midpoints), [values[-1] + 1.0])
    )
    # Strictly below a candidate: the scores left of it in sorted order.
    tp = np.searchsorted(pos, candidates, side="left")
    fp = np.searchsorted(neg, candidates, side="left")
    fn = len(pos) - tp
    # The denominator is at least len(pos) >= 1; argmax takes the first,
    # smallest, of the thresholds that tie for the best F1.
    f1 = 2.0 * tp / (2 * tp + fp + fn)
    return float(candidates[np.argmax(f1)])


def evaluate(
    values: np.ndarray,
    positive: np.ndarray,
    threshold: float,
    method: ScoreMethod,
    negative_source: PairSource,
) -> EvalReport:
    """Judge every held-out score with ``is_compound`` and tally the confusion counts.

    ``values`` holds one score per pair, NaN where the pair is unscorable,
    and ``positive`` flags the positives. A compound judgement on a
    positive is a true positive; unscorable pairs are counted per label but
    excluded from the four metric counts and from all denominators.
    """
    values = np.asarray(values, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    compound = is_compound(values, threshold)
    judged = ~np.isnan(values)

    def count(mask: np.ndarray) -> int:
        return int(np.count_nonzero(mask))

    tp, fp = count(compound & positive), count(compound & ~positive)
    fn, tn = count(judged & ~compound & positive), count(judged & ~compound & ~positive)
    unscorable_pos, unscorable_neg = count(~judged & positive), count(~judged & ~positive)

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
    file and the offending key.
    """
    path = Path(path)
    try:
        content = read_text(path, ConfigError)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    with naming(path, ConfigError):
        return _parse_config(content, path.parent)


def _parse_config(content: str, base: Path) -> ExperimentConfig:
    fields = {field.name: field for field in dataclasses.fields(ExperimentConfig)}
    types = typing.get_type_hints(ExperimentConfig)
    raw: dict[str, str] = {}
    # read_text has made every line end a "\n"; splitlines would also break
    # at form feeds and other characters a value or a path may hold.
    for lineno, line in enumerate(content.split("\n"), start=1):
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
            if "\0" in raw.get(key, ""):  # no file system takes a NUL byte in a path
                raise ConfigError(f"config key {key!r}: not a path: {raw[key]!r}")
            value = Path(raw.get(key, field.default))
            values[key] = value if value.is_absolute() else (base / value).resolve()
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
    recall identical across negative sources by construction. The corpus
    is counted in a forked worker while the other inputs load.
    """
    for field in dataclasses.fields(config):
        # The required fields are the input files.
        input_path = getattr(config, field.name)
        if field.default is dataclasses.MISSING and not input_path.exists():
            raise ConfigError(f"config key {field.name!r}: no such file: {input_path}")

    with counting(config.corpus) as corpus:
        table = load_embeddings(config.embeddings)
        lexicon = load_definitions(config.definitions)
        stopwords = load_stopwords(config.stopwords)
        positives = load_compounds(
            config.compounds, config.compound_left_column, config.compound_right_column
        )
        counts = corpus.result()

    exclusions = both_orientations(positives)
    n = len(positives)
    randoms = sample_random_pairs(counts.vocabulary, n, config.sample_seed, exclusions)
    cooccurs = top_cooccurring_pairs(counts, n, exclusions)

    labeled = (
        [LabeledPair(p, PairSource.LADEC) for p in positives]
        + [LabeledPair(p, PairSource.RANDOM) for p in randoms]
        + [LabeledPair(p, PairSource.COOCCUR) for p in cooccurs]
    )
    dataset = split_dataset(labeled, config.fraction, config.split_seed)

    # Every labeled pair as ids into one lexeme list, with its source and split.
    pairs = dataset.calibration + dataset.heldout
    lexemes, left, right = lexeme_ids(lp.pair for lp in pairs)
    sources = list(PairSource)
    pair_source = np.array([sources.index(lp.source) for lp in pairs], np.intp)
    positive = pair_source == sources.index(PairSource.LADEC)
    calibration = np.arange(len(pairs)) < len(dataset.calibration)

    # Both definition methods sum from the same resolved definitions.
    resolved = resolve_definitions(lexicon, table, lexemes, stopwords)
    scores = {
        method: score_ids(method, table, lexicon, stopwords, lexemes, left, right, resolved)[0]
        for method in METHODS
    }

    # Cached: in shared mode both arms of a method share one calibration.
    @functools.cache
    def calibrate(method: ScoreMethod, source: PairSource) -> float:
        values = scores[method]
        scorable = calibration & ~np.isnan(values)
        pos = values[scorable & positive]
        neg = values[scorable & (pair_source == sources.index(source))]
        if not len(pos) or not len(neg):
            raise DatasetError(
                f"calibration impossible for {method.value} vs {source.value}: "
                "no scorable pairs on one side"
            )
        return calibrate_threshold(pos, neg)

    shared = config.threshold_mode == SHARED
    thresholds = {
        (method, source): calibrate(method, PairSource.RANDOM if shared else source)
        for method in METHODS
        for source in NEGATIVE_SOURCES
    }

    heldout_arms = {
        source: ~calibration & (positive | (pair_source == sources.index(source)))
        for source in NEGATIVE_SOURCES
    }
    reports = tuple(
        evaluate(
            scores[method][heldout_arms[source]],
            positive[heldout_arms[source]],
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
        dataset=dataset,
        config=config,
        vocabulary_size=len(counts.vocabulary),
        bigram_type_count=len(counts),
    )


@dataclass(frozen=True)
class ScanHit:
    """One corpus bigram judged COMPOUND under the active threshold."""

    pair: LexemePair
    count: int
    score: float

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"hit count must be positive, got {self.count}")


def scan_corpus(
    counts: BigramCounts,
    table: EmbeddingTable,
    method: ScoreMethod,
    threshold: float,
    min_count: int = 1,
    top_n: int | None = None,
    lexicon: DefinitionLexicon | None = None,
    stopwords: frozenset[str] | None = None,
) -> list[ScanHit]:
    """Classify every bigram of a corpus's counts; keep compound hits.

    Bigrams below ``min_count`` are masked out of the integer-coded counts,
    and the rest are scored as pairs of vocabulary ranks by ``score_ids``.
    When the method cannot score some of them, one warning gives their
    number per reason, e.g. ``scan: 37 of 4970 bigram(s) unscorable:
    no-definition 30, left-oov 7``. Hits come back sorted by ascending score
    (most non-compositional first), then by bigram code, which is the
    ``(left, right)`` order, truncated to ``top_n``; only those become
    ScanHits. A threshold outside [-1, 1], a
    ``min_count`` or a ``top_n`` below 1 raises ConfigError, and a corpus
    without tokens CorpusError.
    """
    if not -1.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must be in [-1, 1], got {threshold}")
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    if top_n is not None and top_n < 1:
        raise ConfigError(f"top_n must be >= 1, got {top_n}")
    if not counts.vocabulary:
        raise CorpusError("corpus contains no tokens")
    frequent = counts.counts >= min_count
    codes, tallies = counts.codes[frequent], counts.counts[frequent]
    # Only the lexemes of a frequent bigram are scored.
    needed, ids = np.unique(np.concatenate(counts.ranks(codes)), return_inverse=True)
    lexemes = [counts.vocabulary[rank] for rank in needed.tolist()]
    values, reasons = score_ids(
        method, table, lexicon, stopwords, lexemes, ids[: len(codes)], ids[len(codes) :]
    )
    unscorable = np.bincount(reasons, minlength=len(UNSCORABLE_REASONS) + 1)[1:]
    if unscorable.any():
        logger.warning(
            "scan: %d of %d bigram(s) unscorable: %s",
            unscorable.sum(),
            len(tallies),
            ", ".join(f"{r} {n}" for r, n in zip(UNSCORABLE_REASONS, unscorable.tolist()) if n),
        )
    hits = np.flatnonzero(is_compound(values, threshold))
    # By score, then by code: code order is (left, right) order, as in
    # top_cooccurring_pairs.
    hits = hits[np.lexsort((codes[hits], values[hits]))][:top_n]
    return [
        ScanHit(pair=pair, count=count, score=score)
        for pair, count, score in zip(
            counts.pairs(codes[hits]), tallies[hits].tolist(), values[hits].tolist()
        )
    ]


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
    "ScanHit",
    "scan_corpus",
    "METHODS",
    "NEGATIVE_SOURCES",
    "SHARED",
    "PER_SOURCE",
    "THRESHOLD_MODES",
]
