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
import os
import sys
from collections.abc import Sequence
from pathlib import Path

from .corpus import sample_random_pairs, top_cooccurring_pairs
from .errors import ConfigError, MweDetectError
from .pairs import LexemePair
from .pipeline import (
    SHARED,
    EvalReport,
    both_orientations,
    load_config,
    load_inputs,
    run_experiment,
    scan_corpus,
)
from .scoring import UNSCORABLE_REASONS, Judgement, ScoreMethod, is_compound, lexeme_ids, score_ids
# Bound here for perfbench's cli.<name> hooks; nothing in this module calls them.
from .corpus import build_bigram_counts, read_corpus  # noqa: F401
from .definitions import load_definitions, load_stopwords  # noqa: F401
from .embeddings import load_embeddings  # noqa: F401
from .pipeline import load_compounds  # noqa: F401
from .scoring import classify, score_pair  # noqa: F401

logger = logging.getLogger(__name__)

REPORT_COLUMNS = tuple(field.name for field in dataclasses.fields(EvalReport))


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def _path(value: str) -> str:
    if not value:  # Path("") would be the working directory
        raise argparse.ArgumentTypeError("empty path")
    return value


def _require_output_dir(path: str | None) -> None:
    """Raise the error that opening ``path`` would raise once the work is
    done, before it starts, when the directory of ``path`` cannot be found."""
    if path is not None:
        try:
            os.stat(Path(path).parent)
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, path) from None


def _require_method_inputs(method: ScoreMethod, definitions, stopwords) -> None:
    if method is not ScoreMethod.WORD_SIMILARITY and not definitions:
        raise ConfigError(f"--definitions is required for method {method.value!r}")
    if method is ScoreMethod.DEFINITION_CONTENT_SIMILARITY and stopwords is None:
        raise ConfigError(f"--stopwords is required for method {method.value!r}")


def cmd_score(args) -> int:
    method = ScoreMethod(args.method)
    _require_method_inputs(method, args.definitions, args.stopwords)
    try:
        pair = LexemePair(args.left, args.right)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    table, lexicon, stopwords, _, _ = load_inputs(
        args.embeddings, args.definitions or None, args.stopwords or None
    )
    (value,), (reason,) = score_ids(method, table, lexicon, stopwords, *lexeme_ids((pair,)))
    print(f"unscorable: {UNSCORABLE_REASONS[reason - 1]}" if reason else f"{value:.6f}")
    return 2 if reason else 0


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
    out_dir = config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_experiment(config)
    mode = result.config.threshold_mode

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
        [(*key, threshold, mode) for key, threshold in result.thresholds.items()],
    )

    calibrated = int(result.calibration.sum())
    # The split ratio and the choice of calibration negatives are assumptions,
    # not givens; surface them on every run so reports are self-describing.
    print(f"threshold mode: {mode}")
    if mode == SHARED:
        print("assumption: thresholds calibrated against random negatives, applied to both arms")
    else:
        print("assumption: thresholds calibrated per negative source")
    print(
        f"assumption: dataset split {calibrated} calibration / "
        f"{len(result.calibration) - calibrated} held-out pairs (fraction {config.fraction}, "
        f"seed {config.split_seed})"
    )
    for (method, source), threshold in result.thresholds.items():
        if not -1.0 <= threshold <= 1.0:
            # Every score in [-1, 1] falls on the same side of this threshold.
            judged = Judgement.COMPOUND if is_compound(0.0, threshold) else Judgement.NOT_COMPOUND
            print(
                f"assumption: {method.value} vs {source.value} calibration is degenerate: "
                f"threshold {threshold:.6f} lies outside [-1, 1], so every scored pair is "
                f"judged {judged.value}"
            )
    counts = result.counts
    print(f"corpus: {len(counts.vocabulary)} vocabulary types, {len(counts)} bigram types")
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
        raise ConfigError(f"--threshold must be in [-1, 1], got {args.threshold}")
    if args.min_count < 1:
        raise ConfigError(f"--min-count must be >= 1, got {args.min_count}")
    if args.top_n is not None and args.top_n < 1:
        raise ConfigError(f"--top-n must be >= 1, got {args.top_n}")
    _require_output_dir(args.output)
    table, lexicon, stopwords, _, counts = load_inputs(
        args.embeddings, args.definitions or None, args.stopwords or None, corpus=args.corpus
    )
    hits = scan_corpus(
        counts,
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
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    _require_output_dir(args.output)
    columns = (args.exclusions_left_column, args.exclusions_right_column)
    _, _, _, compounds, counts = load_inputs(
        compounds=args.exclusions or None, corpus=args.corpus, columns=columns
    )
    exclusions = both_orientations(compounds or ())
    if args.kind == "random":
        sampled = sample_random_pairs(counts, args.n, args.seed, exclusions)
        header = ["left", "right"]
        rows = [(pair.left, pair.right) for pair in sampled]
    else:
        sampled = top_cooccurring_pairs(counts, args.n, exclusions)
        header = ["left", "right", "count"]
        rows = [(pair.left, pair.right, counts.count(pair.left, pair.right)) for pair in sampled]
    _write_csv_rows(args.output, header, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mwedetect",
        description="Detect compound multiword expressions from embedding non-compositionality.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    # The inputs of a scoring method, shared by score and scan.
    method_inputs = argparse.ArgumentParser(add_help=False)
    method_inputs.add_argument("--method", required=True, choices=[m.value for m in ScoreMethod])
    method_inputs.add_argument("--embeddings", required=True, type=_path)
    method_inputs.add_argument("--definitions")
    method_inputs.add_argument("--stopwords")

    score = subparsers.add_parser("score", parents=[method_inputs], help="score one word pair")
    score.add_argument("left")
    score.add_argument("right")
    score.set_defaults(func=cmd_score)

    run = subparsers.add_parser("run", help="calibrate and evaluate a full experiment")
    run.add_argument("config", type=_path)
    run.add_argument("--output-dir", type=_path, help="override the config's output_dir")
    run.set_defaults(func=cmd_run)

    scan = subparsers.add_parser(
        "scan", parents=[method_inputs], help="classify every co-occurring bigram of a corpus"
    )
    scan.add_argument("--corpus", required=True, type=_path)
    scan.add_argument("--threshold", required=True, type=float)
    scan.add_argument("--min-count", type=int, default=1)
    scan.add_argument("--top-n", type=int, default=None)
    scan.add_argument("--output", type=_path, help="write hits CSV here instead of standard output")
    scan.set_defaults(func=cmd_scan)

    sample = subparsers.add_parser("sample-negatives", help="draw negative pairs from a corpus")
    sample.add_argument("--corpus", required=True, type=_path)
    sample.add_argument("--kind", required=True, choices=["random", "cooccur"])
    sample.add_argument("--n", required=True, type=int)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--exclusions", help="CSV of pairs to exclude (both orientations)")
    sample.add_argument("--exclusions-left-column", default="c1")
    sample.add_argument("--exclusions-right-column", default="c2")
    sample.add_argument(
        "--output", type=_path, help="write pairs CSV here instead of standard output"
    )
    sample.set_defaults(func=cmd_sample_negatives)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except (MweDetectError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
