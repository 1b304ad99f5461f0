"""Command-line behavior: flags, exit codes, and emitted files."""

from __future__ import annotations

import csv
import shutil
from pathlib import Path

import pytest

from mwedetect.cli import ScanHit, main, scan_corpus
from mwedetect.corpus import tokenize
from mwedetect.errors import CorpusError
from mwedetect.pairs import LexemePair
from mwedetect.scoring import ScoreMethod

_DATA = Path(__file__).parent / "data"
EMB = str(_DATA / "toy_embeddings.txt")
DEFS = str(_DATA / "toy_definitions.tsv")
COMPOUNDS = str(_DATA / "compounds.csv")
CORPUS = str(_DATA / "toy_corpus.txt")
CONFIG = str(_DATA / "experiment.conf")


class TestScanHit:
    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            ScanHit(pair=LexemePair("a", "b"), count=0, score=0.5)


class TestScanCorpus:
    def test_repeated_bigram_is_one_hit(self, toy_table):
        hits = scan_corpus(tokenize("jet lag jet lag"), toy_table, ScoreMethod.WORD_SIMILARITY, 0.5, min_count=2)
        assert len(hits) == 1
        assert hits[0].pair == LexemePair("jet", "lag")
        assert hits[0].count == 2
        assert hits[0].score == 0.0

    def test_hits_satisfy_documented_predicates(self, toy_table, data_dir):
        corpus = tokenize((data_dir / "toy_corpus.txt").read_text(encoding="utf-8"))
        threshold, min_count = 0.3, 1
        hits = scan_corpus(corpus, toy_table, ScoreMethod.WORD_SIMILARITY, threshold, min_count)
        assert hits
        for hit in hits:
            assert hit.score < threshold
            assert hit.count >= min_count

    def test_ascending_score_then_alphabetical_order(self, toy_table, data_dir):
        corpus = tokenize((data_dir / "toy_corpus.txt").read_text(encoding="utf-8"))
        hits = scan_corpus(corpus, toy_table, ScoreMethod.WORD_SIMILARITY, 0.3)
        keys = [(hit.score, hit.pair.left, hit.pair.right) for hit in hits]
        assert keys == sorted(keys)

    def test_threshold_at_lower_bound_yields_nothing(self, toy_table):
        hits = scan_corpus(tokenize("jet lag"), toy_table, ScoreMethod.WORD_SIMILARITY, -1.0)
        assert hits == []

    def test_min_count_above_max_yields_nothing(self, toy_table):
        hits = scan_corpus(
            tokenize("jet lag jet lag"), toy_table, ScoreMethod.WORD_SIMILARITY, 0.5, min_count=3
        )
        assert hits == []

    def test_top_n_truncates_after_sorting(self, toy_table, data_dir):
        corpus = tokenize((data_dir / "toy_corpus.txt").read_text(encoding="utf-8"))
        full = scan_corpus(corpus, toy_table, ScoreMethod.WORD_SIMILARITY, 0.3)
        top = scan_corpus(corpus, toy_table, ScoreMethod.WORD_SIMILARITY, 0.3, top_n=2)
        assert top == full[:2]

    def test_unscorable_bigrams_skipped(self, toy_table):
        # "xyzzy" has no vector, so its bigrams silently drop out of the scan.
        hits = scan_corpus(
            tokenize("jet lag xyzzy jet"), toy_table, ScoreMethod.WORD_SIMILARITY, 0.5
        )
        assert [hit.pair for hit in hits] == [LexemePair("jet", "lag")]

    def test_empty_corpus_rejected(self, toy_table):
        with pytest.raises(CorpusError, match="no tokens"):
            scan_corpus(tokenize("123 !!"), toy_table, ScoreMethod.WORD_SIMILARITY, 0.5)

    def test_out_of_range_threshold_rejected(self, toy_table):
        with pytest.raises(ValueError, match="threshold"):
            scan_corpus(tokenize("jet lag"), toy_table, ScoreMethod.WORD_SIMILARITY, 1.5)


class TestScoreCommand:
    def test_scored_pair_prints_six_decimals(self, capsys):
        code = main(["score", "jet", "lag", "--method", "word", "--embeddings", EMB])
        assert code == 0
        assert capsys.readouterr().out == "0.000000\n"

    def test_unscorable_pair_prints_reason_and_exits_two(self, capsys):
        code = main(["score", "jet", "zzz", "--method", "word", "--embeddings", EMB])
        assert code == 2
        assert capsys.readouterr().out == "unscorable: right-oov\n"

    def test_definition_method_without_lexicon_is_usage_error(self, capsys):
        code = main(["score", "jet", "lag", "--method", "definition", "--embeddings", EMB])
        assert code == 1
        assert "--definitions" in capsys.readouterr().err

    def test_content_method_needs_stopwords(self, capsys):
        code = main(
            ["score", "jet", "lag", "--method", "definition-content",
             "--embeddings", EMB, "--definitions", DEFS]
        )
        assert code == 1
        assert "--stopwords" in capsys.readouterr().err

    def test_definition_method_scores(self, capsys):
        code = main(
            ["score", "hot", "the", "--method", "definition",
             "--embeddings", EMB, "--definitions", DEFS]
        )
        assert code == 0
        assert capsys.readouterr().out == "1.000000\n"

    def test_missing_embedding_file_is_error(self, capsys):
        code = main(["score", "a", "b", "--method", "word", "--embeddings", "no/such/file"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


EXPECTED_REPORTS_CSV = """\
method,negative_source,threshold,recall,precision,f1,tp,fp,fn,tn,unscorable_pos,unscorable_neg
word,random,0.25,1.0,0.6666666666666666,0.8,2,1,0,1,0,0
word,cooccur,0.25,1.0,1.0,1.0,2,0,0,2,0,0
definition,random,0.41075416384147506,1.0,0.6666666666666666,0.8,2,1,0,1,0,0
definition,cooccur,0.41075416384147506,1.0,1.0,1.0,2,0,0,2,0,0
definition-content,random,0.25,1.0,0.6666666666666666,0.8,2,1,0,1,0,0
definition-content,cooccur,0.25,1.0,1.0,1.0,2,0,0,2,0,0
"""

EXPECTED_THRESHOLDS_CSV = """\
method,negative_source,threshold,mode
word,random,0.25,shared
word,cooccur,0.25,shared
definition,random,0.41075416384147506,shared
definition,cooccur,0.41075416384147506,shared
definition-content,random,0.25,shared
definition-content,cooccur,0.25,shared
"""


class TestRunCommand:
    def test_writes_golden_reports_and_thresholds(self, tmp_path, capsys):
        code = main(["run", CONFIG, "--output-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "reports.csv").read_text(encoding="utf-8") == EXPECTED_REPORTS_CSV
        assert (tmp_path / "thresholds.csv").read_text(encoding="utf-8") == EXPECTED_THRESHOLDS_CSV

    def test_prints_assumption_header_and_table(self, tmp_path, capsys):
        main(["run", CONFIG, "--output-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "threshold mode: shared" in out
        assert "assumption:" in out
        assert "fraction 0.5" in out
        header_line = next(line for line in out.splitlines() if line.startswith("method"))
        assert header_line.split() == ["method", "negatives", "threshold", "recall", "precision", "f1"]
        assert sum(1 for line in out.splitlines() if line.startswith(("word", "definition"))) == 6

    def test_rerun_emits_identical_files(self, tmp_path, capsys):
        main(["run", CONFIG, "--output-dir", str(tmp_path / "one")])
        main(["run", CONFIG, "--output-dir", str(tmp_path / "two")])
        first = (tmp_path / "one" / "reports.csv").read_bytes()
        second = (tmp_path / "two" / "reports.csv").read_bytes()
        assert first == second

    def test_bad_config_names_offending_key(self, tmp_path, capsys):
        config = tmp_path / "broken.conf"
        config.write_text("embeddings = nope.txt\n", encoding="utf-8")
        code = main(["run", str(config)])
        assert code == 1
        assert "missing required key" in capsys.readouterr().err

    def test_degenerate_calibration_still_reports(self, tmp_path, capsys):
        # No compound here scores below a negative, so every method calibrates
        # to the candidate above all scores, a threshold past 1.
        for source in _DATA.iterdir():
            shutil.copy(source, tmp_path)
        (tmp_path / "compounds.csv").write_text(
            "c1,c2\nvideo,game\nplay,time\nfood,water\nthe,a\n", encoding="utf-8"
        )
        code = main(["run", str(tmp_path / "experiment.conf"), "--output-dir", str(tmp_path / "out")])
        assert code == 0
        with open(tmp_path / "out" / "reports.csv", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 6
        for row in rows:
            assert float(row["threshold"]) > 1.0
            assert (row["tp"], row["fn"], row["tn"]) == ("2", "0", "0")
        out = capsys.readouterr().out
        degenerate = [line for line in out.splitlines() if "outside [-1, 1]" in line]
        assert len(degenerate) == 6
        assert all(line.startswith("assumption:") for line in degenerate)

        main(["run", CONFIG, "--output-dir", str(tmp_path / "golden")])
        assert "outside [-1, 1]" not in capsys.readouterr().out

    def test_missing_input_file_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "exp.conf"
        config.write_text(
            "embeddings = gone.txt\ncompounds = gone.csv\ncorpus = gone.txt\n"
            "definitions = gone.tsv\nstopwords = gone.txt\n",
            encoding="utf-8",
        )
        code = main(["run", str(config)])
        assert code == 1
        assert "no such file" in capsys.readouterr().err


class TestScanCommand:
    def test_repeated_bigram_hit_as_csv(self, capsys, tmp_path):
        corpus = tmp_path / "scan.txt"
        corpus.write_text("jet lag jet lag", encoding="utf-8")
        code = main(
            ["scan", "--corpus", str(corpus), "--embeddings", EMB,
             "--method", "word", "--threshold", "0.5", "--min-count", "2"]
        )
        assert code == 0
        assert capsys.readouterr().out == "left,right,count,score\njet,lag,2,0.0\n"

    def test_no_hits_exits_two_with_header_only(self, capsys, tmp_path):
        corpus = tmp_path / "scan.txt"
        corpus.write_text("jet lag", encoding="utf-8")
        code = main(
            ["scan", "--corpus", str(corpus), "--embeddings", EMB,
             "--method", "word", "--threshold", "-1.0"]
        )
        assert code == 2
        assert capsys.readouterr().out == "left,right,count,score\n"

    def test_output_flag_writes_file(self, tmp_path, capsys):
        out = tmp_path / "hits.csv"
        code = main(
            ["scan", "--corpus", CORPUS, "--embeddings", EMB,
             "--method", "word", "--threshold", "0.3", "--output", str(out)]
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()))
        scores = [float(row["score"]) for row in rows]
        assert scores == sorted(scores)
        assert {"left", "right", "count", "score"} == set(rows[0])

    def test_out_of_range_threshold_is_usage_error(self, capsys):
        code = main(
            ["scan", "--corpus", CORPUS, "--embeddings", EMB,
             "--method", "word", "--threshold", "2.0"]
        )
        assert code == 1
        assert "threshold" in capsys.readouterr().err

    def test_definition_scan_needs_lexicon(self, capsys):
        code = main(
            ["scan", "--corpus", CORPUS, "--embeddings", EMB,
             "--method", "definition", "--threshold", "0.5"]
        )
        assert code == 1
        assert "--definitions" in capsys.readouterr().err


class TestSampleNegativesCommand:
    def test_random_sample_is_seeded_and_stable(self, capsys):
        argv = [
            "sample-negatives", "--corpus", CORPUS, "--kind", "random",
            "--n", "4", "--seed", "7", "--exclusions", COMPOUNDS,
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert first.splitlines()[0] == "left,right"
        assert len(first.splitlines()) == 5

    def test_cooccur_sample_carries_counts(self, capsys):
        code = main(
            ["sample-negatives", "--corpus", CORPUS, "--kind", "cooccur",
             "--n", "4", "--exclusions", COMPOUNDS]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "left,right,count"
        assert out.splitlines()[1] == "video,game,3"

    def test_hand_counted_cooccur_example(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("the cat sat the cat", encoding="utf-8")
        code = main(["sample-negatives", "--corpus", str(corpus), "--kind", "cooccur", "--n", "1"])
        assert code == 0
        assert capsys.readouterr().out == "left,right,count\nthe,cat,2\n"

    def test_excluded_compounds_never_sampled(self, capsys):
        code = main(
            ["sample-negatives", "--corpus", CORPUS, "--kind", "random",
             "--n", "50", "--seed", "0", "--exclusions", COMPOUNDS]
        )
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        forbidden = {"jet,lag", "lag,jet", "home,work", "work,home",
                     "hot,dog", "dog,hot", "book,worm", "worm,book"}
        assert forbidden.isdisjoint(rows)

    def test_oversampling_is_an_error(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("one two", encoding="utf-8")
        code = main(
            ["sample-negatives", "--corpus", str(corpus), "--kind", "random", "--n", "99"]
        )
        assert code == 1
        assert "short by" in capsys.readouterr().err

    def test_output_flag_writes_file(self, tmp_path):
        out = tmp_path / "pairs.csv"
        code = main(
            ["sample-negatives", "--corpus", CORPUS, "--kind", "cooccur",
             "--n", "2", "--output", str(out)]
        )
        assert code == 0
        assert out.read_text(encoding="utf-8").splitlines()[0] == "left,right,count"


class TestArgumentHandling:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_method_is_usage_error(self, capsys):
        code = main(["score", "a", "b", "--method", "vibes", "--embeddings", EMB])
        assert code == 1

    def test_negative_min_count_rejected(self, capsys):
        code = main(
            ["scan", "--corpus", CORPUS, "--embeddings", EMB,
             "--method", "word", "--threshold", "0.5", "--min-count", "0"]
        )
        assert code == 1
        assert "min-count" in capsys.readouterr().err
