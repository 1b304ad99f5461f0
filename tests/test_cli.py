"""Command-line behavior: flags, exit codes, and emitted files."""

from __future__ import annotations

import csv
import os
import re
import shutil
import signal
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mwedetect import cli, corpus, embeddings
from mwedetect.cli import main
from mwedetect.errors import CorpusError, MweDetectError, SamplingError
from mwedetect.pipeline import load_config, run_experiment

_DATA = Path(__file__).parent / "data"
EMB = str(_DATA / "toy_embeddings.txt")
DEFS = str(_DATA / "toy_definitions.tsv")
COMPOUNDS = str(_DATA / "compounds.csv")
CORPUS = str(_DATA / "toy_corpus.txt")
CONFIG = str(_DATA / "experiment.conf")


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

    def test_whitespace_token_is_usage_error(self, capsys):
        code = main(["score", "hot dog", "x", "--method", "word", "--embeddings", EMB])
        assert code == 1
        assert capsys.readouterr().err == "error: left token contains whitespace: 'hot dog'\n"

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
        assert "assumption: thresholds calibrated against random negatives, applied to both arms" in out
        assert "fraction 0.5" in out
        header_line = next(line for line in out.splitlines() if line.startswith("method"))
        assert header_line.split() == ["method", "negatives", "threshold", "recall", "precision", "f1"]
        assert sum(1 for line in out.splitlines() if line.startswith(("word", "definition"))) == 6

        for source in _DATA.iterdir():
            shutil.copy(source, tmp_path)
        config = tmp_path / "experiment.conf"
        config.write_text(
            config.read_text(encoding="utf-8").replace("= shared", "= per-source"),
            encoding="utf-8",
        )
        main(["run", str(config), "--output-dir", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert "threshold mode: per-source" in out
        assert "assumption: thresholds calibrated per negative source" in out.splitlines()

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
        assert all(line.endswith("every scored pair is judged compound") for line in degenerate)

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
        code = main(["sample-negatives", "--corpus", str(corpus), "--kind", "random", "--n", "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: --n must be >= 1, got 0\n"

    def test_oversized_exclusions_field_is_an_error(self, capsys, tmp_path):
        exclusions = tmp_path / "compounds.csv"
        exclusions.write_text("c1,c2\njet,lag\n" + "x" * 140_000 + ",y\n", encoding="utf-8")
        code = main(
            ["sample-negatives", "--corpus", CORPUS, "--kind", "random", "--n", "2",
             "--exclusions", str(exclusions)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {exclusions}: compound CSV line 3: field larger than field limit (131072)\n"
        )

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
        for flag in ("--min-count", "--top-n"):
            code = main(
                ["scan", "--corpus", CORPUS, "--embeddings", EMB,
                 "--method", "word", "--threshold", "0.5", flag, "0"]
            )
            assert code == 1
            assert capsys.readouterr().err == f"error: {flag} must be >= 1, got 0\n"

    def test_value_error_from_a_command_propagates(self, monkeypatch):
        # A ValueError is a bug, not a user error: main must not report it as exit 1.
        def broken(args):
            raise ValueError("bug")

        monkeypatch.setattr(cli, "cmd_score", broken)
        with pytest.raises(ValueError, match="bug"):
            main(["score", "jet", "lag", "--method", "word", "--embeddings", EMB])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the corpus is counted in a forked worker")
class TestCorpusWorker:
    """run and scan count the corpus in a forked worker beside the loaders."""

    @pytest.fixture
    def inputs(self, tmp_path):
        for source in _DATA.iterdir():
            shutil.copy(source, tmp_path)
        return tmp_path.resolve()

    @staticmethod
    def scan_argv(d):
        return ["scan", "--corpus", f"{d}/toy_corpus.txt", "--embeddings", f"{d}/toy_embeddings.txt",
                "--method", "word", "--threshold", "0.5"]

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_empty_corpus(self, inputs, capsys):
        (inputs / "toy_corpus.txt").write_text("123 !!\n", encoding="utf-8")
        with pytest.raises(SamplingError, match="need at least 2 vocabulary tokens"):
            run_experiment(load_config(inputs / "experiment.conf"))
        assert main(self.scan_argv(inputs)) == 1
        assert capsys.readouterr().err == "error: corpus contains no tokens\n"
        self.assert_no_child_left()

    def test_failed_load_stops_the_counting_worker(self, inputs, monkeypatch):
        count_corpus = corpus.count_corpus

        def slow(path):
            time.sleep(60)  # the parent must kill the worker, not wait for it
            return count_corpus(path)

        monkeypatch.setattr(corpus, "count_corpus", slow)
        (inputs / "toy_embeddings.txt").write_text("jet 1 0\nlag x 1\n", encoding="utf-8")
        started = time.monotonic()
        assert main(["run", f"{inputs}/experiment.conf", "--output-dir", f"{inputs}/out"]) == 1
        assert main(self.scan_argv(inputs)) == 1
        assert time.monotonic() - started < 30
        self.assert_no_child_left()

    def test_killed_worker_is_a_child_process_error_naming_the_corpus(
        self, inputs, monkeypatch, capsys
    ):
        def killed(path):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(corpus, "count_corpus", killed)
        path = inputs / "toy_corpus.txt"
        expected = f"^{re.escape(str(path))}: the worker counting the corpus ended without a result$"
        with pytest.raises(ChildProcessError, match=expected):
            run_experiment(load_config(inputs / "experiment.conf"))
        self.assert_no_child_left()
        for argv in (["run", f"{inputs}/experiment.conf"], self.scan_argv(inputs)):
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith(f"error: {path}: the worker counting")
        self.assert_no_child_left()

    def test_corpus_error_comes_after_the_loaders_errors(self, inputs, capsys):
        (inputs / "toy_corpus.txt").write_bytes(b"caf\xe9\n")
        (inputs / "toy_definitions.tsv").write_text("no tab here\n", encoding="utf-8")
        assert main(["run", f"{inputs}/experiment.conf", "--output-dir", f"{inputs}/out"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {inputs}/toy_definitions.tsv: line 1")
        (inputs / "toy_definitions.tsv").write_text("jet\ta jet\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="toy_corpus.txt: line 1: not UTF-8"):
            run_experiment(load_config(inputs / "experiment.conf"))
        self.assert_no_child_left()


def _swap_columns(data: bytes) -> bytes:
    """Swap the first two fields of every line around its first separator."""
    lines = []
    for line in data.split(b"\n"):
        for separator in (b",", b"\t", b" "):
            left, found, right = line.partition(separator)
            if found:
                line = right + separator + left
                break
        lines.append(line)
    return b"\n".join(lines)


_BAD_UTF8 = (b"\xe9", b"\xc3", b"\xff", b"\xed\xa0\x80", b"\xf0\x9f\x98")


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    """``data`` after one to three byte-level mutations."""
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(["truncate", "insert", "swap", "crlf", "utf8"]))
        at = draw(st.integers(min_value=0, max_value=len(data)))
        if kind == "truncate":
            data = data[:at]
        elif kind == "insert":
            data = data[:at] + draw(st.binary(min_size=1, max_size=8)) + data[at:]
        elif kind == "swap":
            data = _swap_columns(data)
        elif kind == "crlf":
            data = data.replace(b"\n", b"\r\n")
        else:
            data = data[:at] + draw(st.sampled_from(_BAD_UTF8)) + data[at:]
    return data


# The files each command reads, and its arguments given a directory of inputs.
_COMMANDS = {
    "score": (
        ("toy_embeddings.txt", "toy_definitions.tsv", "stopwords.txt"),
        lambda d, method: ["score", "jet", "lag", "--method", method,
                           "--embeddings", f"{d}/toy_embeddings.txt",
                           "--definitions", f"{d}/toy_definitions.tsv",
                           "--stopwords", f"{d}/stopwords.txt"],
    ),
    "scan": (
        ("toy_corpus.txt", "toy_embeddings.txt", "toy_definitions.tsv", "stopwords.txt"),
        lambda d, method: ["scan", "--corpus", f"{d}/toy_corpus.txt", "--method", method,
                           "--threshold", "0.5", "--embeddings", f"{d}/toy_embeddings.txt",
                           "--definitions", f"{d}/toy_definitions.tsv",
                           "--stopwords", f"{d}/stopwords.txt"],
    ),
    "run": (
        ("experiment.conf", "compounds.csv", "toy_corpus.txt", "toy_embeddings.txt",
         "toy_definitions.tsv", "stopwords.txt"),
        lambda d, method: ["run", f"{d}/experiment.conf", "--output-dir", f"{d}/out"],
    ),
}


class TestMutatedInputs:
    """On damaged input files, main exits 0, 1 or 2 and raises nothing; exit 1
    comes only from a typed error, never from an OSError on a readable file.
    Damaged embeddings are read in blocks of one to four lines by up to three
    processes, so that the loader splits even the small fixture."""

    @pytest.mark.parametrize("command", _COMMANDS)
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), method=st.sampled_from(["word", "definition", "definition-content"]))
    def test_exit_code_is_0_1_or_2(self, command, data, method):
        names, argv = _COMMANDS[command]
        name = data.draw(st.sampled_from(names), label="file")
        damaged = data.draw(_mutated((_DATA / name).read_bytes()), label="bytes")
        handler = getattr(cli, f"cmd_{command}")
        raised = []

        def recording(args):
            try:
                return handler(args)
            except Exception as exc:
                raised.append(exc)
                raise

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            for source in _DATA.iterdir():
                shutil.copy(source, tmp)
            Path(tmp, name).write_bytes(damaged)
            patch.setattr(cli, f"cmd_{command}", recording)
            if name == "toy_embeddings.txt":
                block_lines = data.draw(st.integers(1, 4), label="block lines")
                patch.setattr(embeddings, "BLOCK_LINES", block_lines)
                patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
            code = main(argv(tmp, method))
        assert code in (0, 1, 2)
        # main catches only typed errors and OSErrors; an OSError here is a bug.
        assert [exc for exc in raised if not isinstance(exc, MweDetectError)] == []
