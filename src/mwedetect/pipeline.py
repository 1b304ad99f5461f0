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
with masks; no per-pair outcome objects are built. Every command loads its
input files with one ``load_inputs`` call.
"""

from __future__ import annotations

import contextlib
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

from .corpus import BigramCounts, count_corpus, sample_random_pairs, top_cooccurring_pairs
from .definitions import DefinitionLexicon, load_definitions, load_stopwords, resolve_definitions
from .embeddings import EmbeddingTable, Parsing
from .errors import ConfigError, CorpusError, DatasetError
from .pairs import LexemePair
from .scoring import UNSCORABLE_REASONS, ScoreMethod, is_compound, lexeme_ids, score_ids
from ._io import naming, read_text, text_lines
# Bound here for perfbench's pipeline.<name> hooks; nothing in this module calls them.
from .corpus import build_bigram_counts, read_corpus  # noqa: F401
from .embeddings import load_embeddings  # noqa: F401
from .scoring import classify, score_pair  # noqa: F401

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


def load_inputs(
    embeddings: str | os.PathLike | None = None,
    definitions: str | os.PathLike | None = None,
    stopwords: str | os.PathLike | None = None,
    compounds: str | os.PathLike | None = None,
    corpus: str | os.PathLike | None = None,
    columns: Sequence[str] = (),
) -> tuple[EmbeddingTable | None, DefinitionLexicon | None, frozenset[str] | None,
           list[LexemePair] | None, BigramCounts | None]:
    """The table, lexicon, stop words, compounds (``load_compounds``'s CSV
    columns, or ``columns``) and corpus counts of the files given, and None
    for each file not given.

    Every command loads through here. While a split embeddings file's
    children parse (``Parsing``), this process loads the other four, the
    corpus last; no child outlives the call. Errors come in the order
    embeddings, definitions, stop words, compounds, corpus. An interrupt
    kills every child.
    """
    with contextlib.nullcontext() if embeddings is None else Parsing(embeddings) as parse:
        lexicon = None if definitions is None else load_definitions(definitions)
        words = None if stopwords is None else load_stopwords(stopwords)
        pairs = None if compounds is None else load_compounds(compounds, *columns)
        counts = None if corpus is None else count_corpus(corpus)
        table = None if parse is None else parse.result()
    return table, lexicon, words, pairs, counts


def split_dataset(
    sources: Sequence[PairSource],
    fraction: float,
    seed: int,
) -> np.ndarray:
    """Stratified random split: the calibration mask over pairs from ``sources``.

    ``sources`` names each pair's source, and the boolean mask returned
    flags the pairs that go to calibration: ``fraction`` of each source's
    pairs, which refines label stratification and keeps each negative
    population represented proportionally on both sides. Group sizes are
    floored, then clamped so every group of two or more lands at least one
    pair on each side. Deterministic per seed.
    """
    if not 0.0 < fraction < 1.0:
        raise DatasetError(f"split fraction must be in (0, 1), got {fraction}")
    sources = np.asarray(sources, dtype=object)
    rng = random.Random(seed)
    calibration = np.zeros(len(sources), dtype=bool)
    for source in PairSource:
        group = np.flatnonzero(sources == source).tolist()
        if not group:
            continue
        rng.shuffle(group)
        k = int(len(group) * fraction)
        if len(group) >= 2:
            k = min(max(k, 1), len(group) - 1)
        calibration[group[:k]] = True
    positive = sources == PairSource.LADEC
    for side_name, side in (("calibration", calibration), ("heldout", ~calibration)):
        if not (positive & side).any() or not (~positive & side).any():
            raise DatasetError(
                f"stratified split infeasible: {side_name} split lacks a label "
                "(each label needs a source with at least two pairs)"
            )
    return calibration


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
    of floats or float arrays; unscorable pairs must already be removed,
    and a NaN or infinite score raises DatasetError.
    """
    pos = np.sort(np.asarray(positive_scores, dtype=np.float64))
    neg = np.sort(np.asarray(negative_scores, dtype=np.float64))
    if not len(pos) or not len(neg):
        raise DatasetError("calibration needs at least one positive and one negative score")
    bad_pos, bad_neg = (int(np.count_nonzero(~np.isfinite(side))) for side in (pos, neg))
    if bad_pos or bad_neg:
        raise DatasetError(
            f"calibration scores must be finite: {bad_pos} positive and {bad_neg} negative "
            "score(s) are NaN or infinite"
        )
    # Sorted, each value once, as np.unique gives them; np.unique itself
    # loads numpy.ma the first time it runs in a process (15 ms, numpy 2.4).
    values = np.sort(np.concatenate((pos, neg)))
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
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

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction < 1.0:
            raise ConfigError(f"config key 'fraction': must be in (0, 1), got {self.fraction}")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ConfigError(
                f"config key 'threshold_mode': expected one of {THRESHOLD_MODES}, "
                f"got {self.threshold_mode!r}"
            )


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
            if key in raw and not raw[key]:  # Path("") would be the config directory
                raise ConfigError(f"config key {key!r}: empty path")
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

    return ExperimentConfig(**values)


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Everything a run produces: six reports, thresholds, scores, and provenance.

    ``pairs`` holds every pair in the order it was drawn: the positives,
    then each negative arm. ``sources`` names each pair's source, and
    ``calibration`` flags the pairs of the calibration split; the rest are
    held out. ``values`` and ``reasons`` hold, per method, the float64
    values and int8 reason codes that ``score_ids`` gave the pairs, in the
    same order: NaN and ``k`` for ``UNSCORABLE_REASONS[k - 1]`` where a
    pair is unscorable, 0 where it is scored. The thresholds and reports
    are computed from these arrays; they take 27 bytes a pair. ``counts``
    is the corpus's ``BigramCounts``, which both negative arms are drawn from.
    """

    reports: tuple[EvalReport, ...]
    thresholds: dict[tuple[ScoreMethod, PairSource], float]
    pairs: tuple[LexemePair, ...]
    sources: np.ndarray
    calibration: np.ndarray
    values: dict[ScoreMethod, np.ndarray]
    reasons: dict[ScoreMethod, np.ndarray]
    config: ExperimentConfig
    counts: BigramCounts


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the full calibrate-then-evaluate experiment.

    Builds the 1:1:1 labeled dataset (positives, uniform random pairs over
    the corpus vocabulary, top co-occurring bigrams), scores every pair
    under all three methods, calibrates per-method thresholds on the
    calibration split, and evaluates the held-out split once per negative
    source. In shared mode the threshold comes from the random-pair
    negatives alone and is applied to both arms, which makes held-out
    recall identical across negative sources by construction. One
    ``load_inputs`` call loads every input file; only then are both
    negative arms drawn and the pairs split, so a load error comes before
    a sampling or split error, and the embeddings' error before any other.
    Every pair is scored once under each method, in the order drawn,
    positives first; calibration and evaluation count pairs through masks,
    so they do not depend on order. The result keeps the counts and every
    pair's value and reason per method.
    """
    for field in dataclasses.fields(config):
        # The required fields are the input files.
        input_path = getattr(config, field.name)
        if field.default is dataclasses.MISSING and not input_path.exists():
            raise ConfigError(f"config key {field.name!r}: no such file: {input_path}")

    table, lexicon, stopwords, positives, counts = load_inputs(
        config.embeddings, config.definitions, config.stopwords, config.compounds, config.corpus,
        (config.compound_left_column, config.compound_right_column),
    )
    exclusions = both_orientations(positives)
    n = len(positives)
    arms = {
        PairSource.LADEC: positives,
        PairSource.RANDOM: sample_random_pairs(
            counts.vocabulary, n, config.sample_seed, exclusions
        ),
        PairSource.COOCCUR: top_cooccurring_pairs(counts, n, exclusions),
    }
    pair_source = np.repeat(np.array(list(arms), object), [len(arm) for arm in arms.values()])
    calibration = split_dataset(pair_source, config.fraction, config.split_seed)
    pairs = tuple(pair for arm in arms.values() for pair in arm)
    lexemes, left, right = lexeme_ids(pairs)
    # Both definition methods sum from the same resolved definitions.
    resolved = resolve_definitions(lexicon, table, lexemes, stopwords)
    values, reasons = {}, {}
    for method in METHODS:
        values[method], reasons[method] = score_ids(
            method, table, lexicon, stopwords, lexemes, left, right, resolved
        )
    positive = pair_source == PairSource.LADEC

    # Cached: in shared mode both arms of a method share one calibration.
    @functools.cache
    def calibrate(method: ScoreMethod, source: PairSource) -> float:
        scorable = calibration & ~np.isnan(values[method])
        pos = values[method][scorable & positive]
        neg = values[method][scorable & (pair_source == source)]
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
        source: ~calibration & (positive | (pair_source == source))
        for source in NEGATIVE_SOURCES
    }
    reports = tuple(
        evaluate(
            values[method][heldout_arms[source]],
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
        pairs=pairs,
        sources=pair_source,
        calibration=calibration,
        values=values,
        reasons=reasons,
        config=config,
        counts=counts,
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
    "EvalReport",
    "load_compounds",
    "both_orientations",
    "load_inputs",
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
