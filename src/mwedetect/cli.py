"""Command-line front end: score pairs, run experiments, scan corpora.

Exit codes: 0 success, 1 usage/configuration/ingestion error, 2 for runs
that complete but produce an unscorable or empty result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import enum
import logging
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from .corpus import TokenStream, build_bigram_counts, read_corpus, sample_random_pairs, top_cooccurring_pairs
from .definitions import DefinitionLexicon, load_definitions, load_stopwords
from .embeddings import EmbeddingTable, load_embeddings
from .errors import CorpusError, MweDetectError
from .pairs import LexemePair
from .pipeline import (
    SHARED,
    EvalReport,
    both_orientations,
    load_compounds,
    load_config,
    run_experiment,
)
from .scoring import Judgement, ScoreMethod, classify, score_pair, score_pairs

logger = logging.getLogger(__name__)

REPORT_COLUMNS = tuple(field.name for field in dataclasses.fields(EvalReport))


class _UsageError(Exception):
    """Bad flags or flag combinations; reported on stderr with exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


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
    stream: TokenStream,
    table: EmbeddingTable,
    method: ScoreMethod,
    threshold: float,
    min_count: int = 1,
    top_n: int | None = None,
    lexicon: DefinitionLexicon | None = None,
    stopwords: frozenset[str] | None = None,
) -> list[ScanHit]:
    """Classify every adjacent bigram of the corpus; keep compound hits.

    Bigrams below ``min_count`` and pairs the method cannot score are
    dropped silently. Hits come back sorted by ascending score (most
    non-compositional first), then alphabetically, truncated to ``top_n``.
    """
    if not -1.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [-1, 1], got {threshold}")
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    if not stream.tokens:
        raise CorpusError("corpus contains no tokens")
    counts = build_bigram_counts(stream)
    frequent = [
        (LexemePair(left, right), count)
        for (left, right), count in counts.counts.items()
        if count >= min_count
    ]
    outcomes = score_pairs(method, table, lexicon, stopwords, [pair for pair, _ in frequent])
    hits: list[ScanHit] = []
    for (pair, count), outcome in zip(frequent, outcomes):
        if not outcome.is_scorable:
            continue
        if classify(outcome, threshold) is Judgement.COMPOUND:
            assert outcome.value is not None
            hits.append(ScanHit(pair=pair, count=count, score=outcome.value))
    hits.sort(key=lambda hit: (hit.score, hit.pair.left, hit.pair.right))
    if top_n is not None:
        hits = hits[:top_n]
    return hits


def _require_method_inputs(method: ScoreMethod, definitions, stopwords) -> None:
    if method is not ScoreMethod.WORD_SIMILARITY and definitions is None:
        raise _UsageError(f"--definitions is required for method {method.value!r}")
    if method is ScoreMethod.DEFINITION_CONTENT_SIMILARITY and stopwords is None:
        raise _UsageError(f"--stopwords is required for method {method.value!r}")


def _load_method_inputs(args) -> tuple[EmbeddingTable, DefinitionLexicon | None, frozenset[str] | None]:
    table = load_embeddings(args.embeddings)
    lexicon = load_definitions(args.definitions) if args.definitions else None
    stopwords = load_stopwords(args.stopwords) if args.stopwords else None
    return table, lexicon, stopwords


def cmd_score(args) -> int:
    method = ScoreMethod(args.method)
    _require_method_inputs(method, args.definitions, args.stopwords)
    table, lexicon, stopwords = _load_method_inputs(args)
    pair = LexemePair(args.left, args.right)
    outcome = score_pair(method, table, lexicon, stopwords, pair)
    if outcome.is_scorable:
        print(f"{outcome.value:.6f}")
        return 0
    print(f"unscorable: {outcome.unscorable_reason}")
    return 2


def _metric_cell(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.3f}"


def _format_report_table(reports: Sequence[EvalReport]) -> str:
    header = ("method", "negatives", "threshold", "recall", "precision", "f1")
    rows = [
        (
            report.method.value,
            report.negative_source.value,
            f"{report.threshold:.6f}",
            _metric_cell(report.recall),
            _metric_cell(report.precision),
            _metric_cell(report.f1),
        )
        for report in reports
    ]
    widths = [max(len(header[i]), *(len(row[i]) for row in rows)) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _csv_cell(value):
    if isinstance(value, enum.Enum):
        return value.value
    return "" if value is None else value


def _write_csv_rows(path: str | Path | None, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write ``header`` and ``rows`` as CSV to ``path``, or to standard output.

    An enum cell is written as its value and None as an empty cell.
    """
    with (
        contextlib.nullcontext(sys.stdout)
        if path is None
        else open(path, "w", encoding="utf-8", newline="")
    ) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_csv_cell(value) for value in row] for row in rows)


def cmd_run(args) -> int:
    config = load_config(args.config)
    if args.output_dir is not None:
        config = dataclasses.replace(config, output_dir=Path(args.output_dir).resolve())
    result = run_experiment(config)

    out_dir = config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    reports_path = out_dir / "reports.csv"
    thresholds_path = out_dir / "thresholds.csv"
    _write_csv_rows(
        reports_path,
        REPORT_COLUMNS,
        [[getattr(report, column) for column in REPORT_COLUMNS] for report in result.reports],
    )
    _write_csv_rows(
        thresholds_path,
        ("method", "negative_source", "threshold", "mode"),
        [(*key, threshold, result.threshold_mode) for key, threshold in result.thresholds.items()],
    )

    dataset = result.dataset
    # The split ratio and the choice of calibration negatives are assumptions,
    # not givens; surface them on every run so reports are self-describing.
    print(f"threshold mode: {result.threshold_mode}")
    if result.threshold_mode == SHARED:
        print("assumption: thresholds calibrated against random negatives, applied to both arms")
    else:
        print("assumption: thresholds calibrated per negative source")
    print(
        f"assumption: dataset split {len(dataset.calibration)} calibration / "
        f"{len(dataset.heldout)} held-out pairs (fraction {dataset.split_fraction}, "
        f"seed {dataset.split_seed})"
    )
    for (method, source), threshold in result.thresholds.items():
        if not -1.0 <= threshold <= 1.0:
            judged = Judgement.COMPOUND if threshold > 1.0 else Judgement.NOT_COMPOUND
            print(
                f"assumption: {method.value} vs {source.value} calibration is degenerate: "
                f"threshold {threshold:.6f} lies outside [-1, 1], so every scored pair is "
                f"judged {judged.value}"
            )
    print(
        f"corpus: {result.vocabulary_size} vocabulary types, "
        f"{result.bigram_type_count} bigram types"
    )
    print()
    print(_format_report_table(result.reports))
    print()
    print(f"wrote {reports_path}")
    print(f"wrote {thresholds_path}")
    return 0


def cmd_scan(args) -> int:
    method = ScoreMethod(args.method)
    _require_method_inputs(method, args.definitions, args.stopwords)
    if not -1.0 <= args.threshold <= 1.0:
        raise _UsageError(f"--threshold must be in [-1, 1], got {args.threshold}")
    if args.min_count < 1:
        raise _UsageError(f"--min-count must be >= 1, got {args.min_count}")
    if args.top_n is not None and args.top_n < 1:
        raise _UsageError(f"--top-n must be >= 1, got {args.top_n}")
    table, lexicon, stopwords = _load_method_inputs(args)
    stream = read_corpus(args.corpus)
    hits = scan_corpus(
        stream,
        table,
        method,
        args.threshold,
        min_count=args.min_count,
        top_n=args.top_n,
        lexicon=lexicon,
        stopwords=stopwords,
    )
    _write_csv_rows(
        args.output,
        ["left", "right", "count", "score"],
        [(hit.pair.left, hit.pair.right, hit.count, hit.score) for hit in hits],
    )
    return 0 if hits else 2


def cmd_sample_negatives(args) -> int:
    if args.n < 1:
        raise _UsageError(f"--n must be >= 1, got {args.n}")
    stream = read_corpus(args.corpus)
    exclusions: set[tuple[str, str]] = set()
    if args.exclusions:
        exclusions = both_orientations(
            load_compounds(args.exclusions, args.exclusions_left_column, args.exclusions_right_column)
        )
    if args.kind == "random":
        sampled = sample_random_pairs(set(stream.tokens), args.n, args.seed, exclusions)
        header = ["left", "right"]
        rows = [(pair.left, pair.right) for pair in sampled]
    else:
        counts = build_bigram_counts(stream)
        sampled = top_cooccurring_pairs(counts, args.n, exclusions)
        header = ["left", "right", "count"]
        rows = [(pair.left, pair.right, counts.counts[(pair.left, pair.right)]) for pair in sampled]
    _write_csv_rows(args.output, header, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mwedetect",
        description="Detect compound multiword expressions from embedding non-compositionality.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    method_choices = [method.value for method in ScoreMethod]

    score = subparsers.add_parser("score", help="score one word pair")
    score.add_argument("left")
    score.add_argument("right")
    score.add_argument("--method", required=True, choices=method_choices)
    score.add_argument("--embeddings", required=True)
    score.add_argument("--definitions")
    score.add_argument("--stopwords")
    score.set_defaults(func=cmd_score)

    run = subparsers.add_parser("run", help="calibrate and evaluate a full experiment")
    run.add_argument("config")
    run.add_argument("--output-dir", help="override the config's output_dir")
    run.set_defaults(func=cmd_run)

    scan = subparsers.add_parser("scan", help="classify every co-occurring bigram of a corpus")
    scan.add_argument("--corpus", required=True)
    scan.add_argument("--embeddings", required=True)
    scan.add_argument("--method", required=True, choices=method_choices)
    scan.add_argument("--threshold", required=True, type=float)
    scan.add_argument("--min-count", type=int, default=1)
    scan.add_argument("--top-n", type=int, default=None)
    scan.add_argument("--definitions")
    scan.add_argument("--stopwords")
    scan.add_argument("--output", help="write hits CSV here instead of standard output")
    scan.set_defaults(func=cmd_scan)

    sample = subparsers.add_parser("sample-negatives", help="draw negative pairs from a corpus")
    sample.add_argument("--corpus", required=True)
    sample.add_argument("--kind", required=True, choices=["random", "cooccur"])
    sample.add_argument("--n", required=True, type=int)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--exclusions", help="CSV of pairs to exclude (both orientations)")
    sample.add_argument("--exclusions-left-column", default="c1")
    sample.add_argument("--exclusions-right-column", default="c2")
    sample.add_argument("--output", help="write pairs CSV here instead of standard output")
    sample.set_defaults(func=cmd_sample_negatives)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MweDetectError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
