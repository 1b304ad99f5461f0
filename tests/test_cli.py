"""Command-line behavior: flags, exit codes, and emitted files."""

from __future__ import annotations

import csv
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mwedetect
from mwedetect import cli, embeddings, pipeline
from mwedetect.cli import main
from mwedetect.corpus import BigramCounts
from mwedetect.embeddings import EmbeddingTable
from mwedetect.errors import (
    CorpusError,
    EmbeddingFormatError,
    LexiconFormatError,
    MweDetectError,
    SamplingError,
)
from mwedetect.pipeline import load_config, run_experiment

from conftest import assert_no_child_left

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

    def test_stdout_is_the_readme_example(self, tmp_path, capsys):
        readme = (_DATA.parent.parent / "README.md").read_text(encoding="utf-8")
        example = re.search(
            r"```sh\n\$ mwedetect run experiment\.conf --output-dir results/\n(.*?)```",
            readme,
            re.DOTALL,
        ).group(1)
        results = tmp_path / "results"
        assert main(["run", CONFIG, "--output-dir", str(results)]) == 0
        out = capsys.readouterr().out
        assert out.replace(f"{results}{os.sep}", "results/") == example

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

    def test_an_output_dir_that_is_a_file_fails_before_the_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("the run started"))
        output = tmp_path / "compounds.csv"
        output.write_text("c1,c2\n", encoding="utf-8")
        with pytest.raises(FileExistsError) as exists:
            output.mkdir(parents=True, exist_ok=True)
        assert main(["run", CONFIG, "--output-dir", str(output)]) == 1
        assert capsys.readouterr() == ("", f"error: {exists.value}\n")
        assert output.read_text(encoding="utf-8") == "c1,c2\n"

    def test_an_empty_compound_column_is_named(self, tmp_path, capsys):
        for source in _DATA.iterdir():
            shutil.copy(source, tmp_path)
        config = tmp_path / "experiment.conf"
        config.write_text(
            config.read_text(encoding="utf-8") + "compound_left_column =\n", encoding="utf-8"
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == (
            "", f"error: {tmp_path / 'compounds.csv'}: compound CSV lacks column(s): ''\n"
        )

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

    def test_an_empty_exclusions_column_is_named(self, capsys):
        code = main(
            ["sample-negatives", "--corpus", CORPUS, "--kind", "random", "--n", "2",
             "--exclusions", COMPOUNDS, "--exclusions-left-column", ""]
        )
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: {COMPOUNDS}: compound CSV lacks column(s): ''\n"
        )

    def test_a_negative_seed_is_an_error(self, capsys, monkeypatch):
        # random.Random(-3) draws what random.Random(3) draws.
        monkeypatch.setattr(cli, "load_inputs", lambda *a, **k: pytest.fail("inputs were read"))
        code = main(
            ["sample-negatives", "--corpus", CORPUS, "--kind", "random", "--n", "4",
             "--seed", "-3"]
        )
        assert code == 1
        assert capsys.readouterr() == ("", "error: --seed must be >= 0, got -3\n")

    def test_output_flag_writes_file(self, tmp_path):
        out = tmp_path / "pairs.csv"
        code = main(
            ["sample-negatives", "--corpus", CORPUS, "--kind", "cooccur",
             "--n", "2", "--output", str(out)]
        )
        assert code == 0
        assert out.read_text(encoding="utf-8").splitlines()[0] == "left,right,count"


class TestOutputInAMissingDirectory:
    """An --output whose directory is missing fails with open's error
    before any input is read, not after the work."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--method", "word", "--embeddings", EMB, "--corpus", CORPUS,
             "--threshold", "0.9"],
            ["sample-negatives", "--corpus", CORPUS, "--kind", "random", "--n", "4"],
            ["sample-negatives", "--corpus", CORPUS, "--kind", "cooccur", "--n", "4"],
        ],
        ids=["scan", "sample-negatives random", "sample-negatives cooccur"],
    )
    def test_fails_before_the_inputs_are_read(self, argv, tmp_path, monkeypatch, capsys):
        output = tmp_path / "missing" / "out.csv"
        with pytest.raises(FileNotFoundError) as missing:
            open(output, "w")
        monkeypatch.setattr(cli, "load_inputs", lambda *a, **k: pytest.fail("inputs were read"))
        assert main([*argv, "--output", str(output)]) == 1
        assert capsys.readouterr() == ("", f"error: {missing.value}\n")
        assert not output.parent.exists()


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

    def test_an_empty_file_option_means_no_file(self, capsys):
        def out(argv):
            assert main(argv) == 0
            return capsys.readouterr().out

        sample = ["sample-negatives", "--corpus", CORPUS, "--kind", "cooccur", "--n", "4"]
        assert out([*sample, "--exclusions", ""]) == out(sample)
        score = ["score", "jet", "lag", "--embeddings", EMB]
        assert out([*score, "--method", "word", "--definitions", "", "--stopwords", ""]) == out(
            [*score, "--method", "word"]
        )
        # No stop-word set: definition content similarity is definition similarity.
        content = out([*score, "--method", "definition-content", "--definitions", DEFS,
                       "--stopwords", ""])
        assert content == out([*score, "--method", "definition", "--definitions", DEFS])
        scan = ["scan", "--corpus", CORPUS, "--embeddings", EMB, "--threshold", "0.9"]
        assert out([*scan, "--method", "definition-content", "--definitions", DEFS,
                    "--stopwords", ""]) == out([*scan, "--method", "definition", "--definitions", DEFS])

    def test_definition_content_without_stop_words_warns(self, tmp_path):
        """``score`` and ``scan`` say on stderr that an empty ``--stopwords``
        scores definition-content as definition; ``run`` warns of nothing."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(Path(mwedetect.__file__).parents[1]), os.environ.get("PYTHONPATH")))
        )}

        def command(*argv):
            done = subprocess.run([sys.executable, "-m", "mwedetect.cli", *map(str, argv)],
                                  env=env, capture_output=True, text=True, timeout=120)
            return done.returncode, done.stderr

        content = ["--method", "definition-content", "--embeddings", EMB, "--definitions", DEFS,
                   "--stopwords", ""]
        warning = ("WARNING mwedetect.scoring: "
                   "definition-content without a stop-word set scores as definition\n")
        assert command("score", "jet", "lag", *content) == (0, warning)
        assert command("scan", "--corpus", CORPUS, "--threshold", "0.9", *content) == (0, warning)
        assert command("run", CONFIG, "--output-dir", tmp_path) == (0, "")

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample-negatives", "--corpus", "", "--kind", "cooccur", "--n", "2"],
            ["scan", "--corpus", "", "--embeddings", EMB, "--method", "word", "--threshold", "0.5"],
            ["run", CONFIG, "--output-dir", ""],
            ["score", "jet", "lag", "--method", "word", "--embeddings", ""],
            ["scan", "--corpus", CORPUS, "--embeddings", "", "--method", "word", "--threshold", "0.5"],
            ["scan", "--corpus", CORPUS, "--embeddings", EMB, "--method", "word", "--threshold", "0.5",
             "--output", ""],
            ["sample-negatives", "--corpus", CORPUS, "--kind", "cooccur", "--n", "2", "--output", ""],
            ["run", ""],
        ],
        ids=["sample-negatives", "scan", "run", "score --embeddings", "scan --embeddings",
             "scan --output", "sample-negatives --output", "run config"],
    )
    def test_an_empty_corpus_or_output_dir_is_an_error(self, argv, tmp_path, monkeypatch, capsys):
        # Path("") is the working directory: its files would be counted as
        # the corpus, or the reports written among them.
        (tmp_path / "notes.txt").write_text("zebra crossing here zebra crossing\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        for name in ("load_config", "load_inputs"):
            monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("a file was read"))
        assert main(argv) == 1
        before = argv[argv.index("") - 1]
        # An empty flag value names its flag, and the empty run positional its name.
        name = before if before.startswith("--") else "config"
        assert capsys.readouterr() == ("", f"error: argument {name}: empty path\n")
        assert [path.name for path in tmp_path.iterdir()] == ["notes.txt"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["score", "jet", "lag", "--embeddings", EMB],
            ["scan", "--corpus", CORPUS, "--embeddings", EMB, "--threshold", "0.5"],
        ],
        ids=["score", "scan"],
    )
    def test_an_empty_definitions_is_missing_for_a_definition_method(
        self, argv, monkeypatch, capsys
    ):
        # Checked before any load, so no embeddings are parsed in vain.
        monkeypatch.setattr(cli, "load_inputs", lambda *args, **kwargs: pytest.fail("a file was read"))
        assert main([*argv, "--method", "definition", "--definitions", ""]) == 1
        assert capsys.readouterr() == (
            "", "error: --definitions is required for method 'definition'\n"
        )

    def test_value_error_from_a_command_propagates(self, monkeypatch):
        # A ValueError is a bug, not a user error: main must not report it as exit 1.
        def broken(args):
            raise ValueError("bug")

        monkeypatch.setattr(cli, "cmd_score", broken)
        with pytest.raises(ValueError, match="bug"):
            main(["score", "jet", "lag", "--method", "word", "--embeddings", EMB])


# Everything the commands produce under one hash seed, as JSON on stdout:
# each command's exit code and its stdout without the "wrote" lines, each
# output file, and a digest of what two runs keep in their results.
_HASH_SEED_SCRIPT = """
import contextlib, hashlib, io, itertools, json, shutil, string, sys
from pathlib import Path
from mwedetect.cli import main
from mwedetect.pipeline import THRESHOLD_MODES, load_config, run_experiment

data, out = Path(sys.argv[1]), Path(sys.argv[2])
produced = {}

def command(name, *argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([str(arg) for arg in argv])
    lines = stdout.getvalue().splitlines(keepends=True)
    produced[name] = [code, "".join(line for line in lines if not line.startswith("wrote "))]
    for path in sorted(out.glob("*.csv")):
        produced[f"{name} {path.name}"] = path.read_text(encoding="utf-8")
        path.unlink()

# 1,320 distinct tokens lie above the 1,000 words up to which earlier versions
# enumerated the random negatives' candidates; 120 of them are longer than the
# 12 letters count_corpus packs into a key.
letters = itertools.product(string.ascii_lowercase, repeat=3)
tokens = ["".join(t) for t in itertools.islice(letters, 1200)]
large = out / "large-corpus.txt"
large.write_text((" ".join(tokens + [t * 5 for t in tokens[::10]] + tokens[::7]) + "\\n") * 200)
inputs = shutil.copytree(data, out / "data")
digest = hashlib.sha256()
for mode in THRESHOLD_MODES:
    conf = inputs / f"{mode}.conf"
    conf.write_text((data / "experiment.conf").read_text().replace("= shared", f"= {mode}"))
    command(f"run {mode}", "run", conf, "--output-dir", out)
    result = run_experiment(load_config(conf))
    for method in result.values:
        digest.update(result.values[method].tobytes() + result.reasons[method].tobytes())
    digest.update("\\n".join(result.counts.vocabulary).encode())
    for name in ("codes", "counts", "unigrams"):
        digest.update(getattr(result.counts, name).tobytes())
produced["kept"] = digest.hexdigest()
for method in ("word", "definition", "definition-content"):
    command(f"scan {method}", "scan", "--corpus", inputs / "toy_corpus.txt",
            "--embeddings", inputs / "toy_embeddings.txt",
            "--definitions", inputs / "toy_definitions.tsv", "--stopwords", inputs / "stopwords.txt",
            "--method", method, "--threshold", "0.9", "--output", out / "hits.csv")
for kind in ("random", "cooccur"):
    command(f"sample {kind}", "sample-negatives", "--corpus", inputs / "toy_corpus.txt",
            "--kind", kind, "--exclusions", inputs / "compounds.csv", "--n", "4", "--seed", "7")
    command(f"sample large {kind}", "sample-negatives", "--corpus", large, "--kind", kind,
            "--n", "500", "--seed", "7")
print(json.dumps(produced))
"""


class TestHashSeedIndependence:
    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        """Two fresh interpreters, with PYTHONHASHSEED 0 and 1, produce the
        same bytes: ``run`` in both threshold modes, ``scan`` by every
        method, ``sample-negatives`` of both kinds on the toy corpus and on
        one above 1,000 words, and what a run keeps."""
        paths = (str(Path(mwedetect.__file__).parents[1]), os.environ.get("PYTHONPATH"))
        produced = []
        for seed in ("0", "1"):
            out = tmp_path / seed
            out.mkdir()
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, paths))}
            done = subprocess.run(
                [sys.executable, "-c", _HASH_SEED_SCRIPT, str(_DATA), str(out)],
                env=env, capture_output=True, text=True, check=True, timeout=300,
            )
            produced.append(json.loads(done.stdout))
        first, second = produced
        assert first == second
        # Every command exits 0, and no output file is empty.
        assert len(first) == 17
        assert {value[0] for value in first.values() if isinstance(value, list)} == {0}
        assert all(value for value in first.values() if isinstance(value, str))
        assert len(first["sample large random"][1].splitlines()) == 501


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or not hasattr(os, "mkfifo"),
    reason="the loader splits files on Linux only, and the pipe needs mkfifo",
)
class TestSameOutputsHoweverTheEmbeddingsAreRead:
    """``score`` and ``scan`` by every method and ``run`` in both threshold
    modes print and write the same bytes whether the embeddings file is
    parsed as one range, as three ranges by forked children, or read from a
    named pipe as one stream."""

    def test_one_range_three_ranges_and_a_pipe(self, tmp_path, monkeypatch, capsys):
        data = shutil.copytree(_DATA, tmp_path / "data")
        out = tmp_path / "out"
        out.mkdir()
        file = data / "toy_embeddings.txt"
        pipe = data / "embeddings.pipe"
        os.mkfifo(pipe)
        monkeypatch.setattr(embeddings, "BLOCK_LINES", 2)

        def produced(path):
            """Each command's exit code and stdout, and each file it wrote."""
            inputs = ["--embeddings", path, "--definitions", data / "toy_definitions.tsv",
                      "--stopwords", data / "stopwords.txt"]
            commands = {}
            for method in ("word", "definition", "definition-content"):
                commands[f"score {method}"] = ["score", "jet", "lag", "--method", method, *inputs]
                commands[f"scan {method}"] = [
                    "scan", "--corpus", data / "toy_corpus.txt", "--threshold", "0.5",
                    "--method", method, *inputs, "--output", out / "hits.csv",
                ]
            config = (data / "experiment.conf").read_text(encoding="utf-8")
            for mode in pipeline.THRESHOLD_MODES:
                conf = data / f"{mode}.conf"
                conf.write_text(
                    config.replace(f"= {file.name}", f"= {path.name}").replace("= shared", f"= {mode}"),
                    encoding="utf-8",
                )
                assert load_config(conf).embeddings == path
                commands[f"run {mode}"] = ["run", conf, "--output-dir", out]
            outputs = {}
            for name, argv in commands.items():
                writer = None
                if path == pipe:
                    writer = threading.Thread(
                        target=pipe.write_bytes, args=(file.read_bytes(),), daemon=True
                    )
                    writer.start()
                outputs[name] = (main([str(arg) for arg in argv]), capsys.readouterr().out)
                if writer:
                    writer.join(timeout=10)
                    assert not writer.is_alive()
                for written in sorted(out.glob("*.csv")):
                    outputs[f"{name} {written.name}"] = written.read_bytes()
                    written.unlink()
            return outputs

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert len(embeddings._line_ranges(str(file))) == 1
        one_range = produced(file)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert len(embeddings._line_ranges(str(file))) == 3
        assert produced(file) == one_range
        assert embeddings._line_ranges(str(pipe)) == []
        assert produced(pipe) == one_range
        # Every command exits 0; each scan writes a hits file and each run two.
        assert [value[0] for value in one_range.values() if isinstance(value, tuple)] == [0] * 8
        assert len(one_range) == 8 + 3 + 2 * 2


class TestCorpusCount:
    """Every command counts the corpus in its own process, after its other
    loads, so a corpus error comes last."""

    @pytest.fixture
    def inputs(self, tmp_path):
        for source in _DATA.iterdir():
            shutil.copy(source, tmp_path)
        return tmp_path.resolve()

    @staticmethod
    def scan_argv(d):
        return ["scan", "--corpus", f"{d}/toy_corpus.txt", "--embeddings", f"{d}/toy_embeddings.txt",
                "--method", "word", "--threshold", "0.5"]

    def test_empty_corpus(self, inputs, capsys):
        (inputs / "toy_corpus.txt").write_text("123 !!\n", encoding="utf-8")
        with pytest.raises(SamplingError, match="need at least 2 vocabulary tokens"):
            run_experiment(load_config(inputs / "experiment.conf"))
        assert main(self.scan_argv(inputs)) == 1
        assert capsys.readouterr().err == "error: corpus contains no tokens\n"
        assert_no_child_left()

    def test_corpus_error_comes_after_the_loaders_errors(self, inputs, capsys):
        (inputs / "toy_corpus.txt").write_bytes(b"caf\xe9\n")
        (inputs / "toy_definitions.tsv").write_text("no tab here\n", encoding="utf-8")
        assert main(["run", f"{inputs}/experiment.conf", "--output-dir", f"{inputs}/out"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {inputs}/toy_definitions.tsv: line 1")
        (inputs / "toy_definitions.tsv").write_text("jet\ta jet\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="toy_corpus.txt: line 1: not UTF-8"):
            run_experiment(load_config(inputs / "experiment.conf"))
        assert_no_child_left()

    @staticmethod
    def sample_argv(d, corpus_path):
        return ["sample-negatives", "--corpus", str(corpus_path), "--kind", "cooccur", "--n", "4",
                "--exclusions", f"{d}/compounds.csv"]

    @staticmethod
    def bad_corpus(d, kind):
        """A corpus that count_corpus rejects; return it and its error."""
        if kind == "bytes":
            (d / "toy_corpus.txt").write_bytes(b"caf\xe9\n")
            return d / "toy_corpus.txt", f"error: {d}/toy_corpus.txt: line 1: not UTF-8"
        (d / "empty").mkdir()
        return d / "empty", f"error: corpus directory contains no files: {d}/empty"

    @pytest.mark.parametrize("kind", ["bytes", "empty directory"])
    def test_sample_negatives_reports_bad_exclusions_before_a_bad_corpus(
        self, inputs, capsys, kind
    ):
        path, _ = self.bad_corpus(inputs, kind)
        (inputs / "compounds.csv").write_text("c1,c2\njet,\n", encoding="utf-8")
        assert main(self.sample_argv(inputs, path)) == 1
        assert capsys.readouterr().err == (
            f"error: {inputs}/compounds.csv: compound CSV row 2: empty constituent\n"
        )
        assert_no_child_left()

    @pytest.mark.parametrize("kind", ["bytes", "empty directory"])
    def test_sample_negatives_reports_a_bad_corpus(self, inputs, capsys, kind):
        path, expected = self.bad_corpus(inputs, kind)
        assert main(self.sample_argv(inputs, path)) == 1
        assert capsys.readouterr().err.startswith(expected)
        assert_no_child_left()

    def test_sample_negatives_forks_no_worker(self, inputs, monkeypatch, capsys):
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
        assert main(self.sample_argv(inputs, inputs / "toy_corpus.txt")) == 0
        assert capsys.readouterr().out.startswith("left,right,count\n")
        assert forks == []


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="the loader splits files on Linux only"
)
class TestEmbeddingsParsedBesideTheLoaders:
    """score, scan and run load the other inputs while forked children parse
    a split embeddings file; errors come in the order of one load after
    another, and every child is reaped."""

    @pytest.fixture
    def inputs(self, tmp_path, monkeypatch):
        for source in _DATA.iterdir():
            shutil.copy(source, tmp_path)
        monkeypatch.setattr(embeddings, "BLOCK_LINES", 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert len(embeddings._line_ranges(str(tmp_path / "toy_embeddings.txt"))) == 3
        return tmp_path.resolve()

    @staticmethod
    def argv(command, d):
        loaders = ["--method", "definition-content", "--embeddings", f"{d}/toy_embeddings.txt",
                   "--definitions", f"{d}/toy_definitions.tsv", "--stopwords", f"{d}/stopwords.txt"]
        if command == "score":
            return ["score", "jet", "lag", *loaders]
        if command == "scan":
            return ["scan", "--corpus", f"{d}/toy_corpus.txt", "--threshold", "0.5", *loaders]
        return ["run", f"{d}/experiment.conf", "--output-dir", f"{d}/out"]

    @staticmethod
    def damage(d, name):
        """Give the input ``name`` a bad line; return the error's start."""
        if name == "embeddings":
            path = d / "toy_embeddings.txt"
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            lines[11] = lines[11].replace(" 0", " x", 1)  # same length, same ranges
            path.write_text("".join(lines), encoding="utf-8")
            return f"error: {path}: line 12: non-numeric"
        if name == "definitions":
            (d / "toy_definitions.tsv").write_text("jet\ta jet\nno tab here\n", encoding="utf-8")
            return f"error: {d}/toy_definitions.tsv: line 2: expected"
        if name == "stopwords":
            (d / "stopwords.txt").write_text("the\nstop word\n", encoding="utf-8")
            return f"error: {d}/stopwords.txt: line 2: stop word contains whitespace"
        if name == "corpus":
            (d / "toy_corpus.txt").write_bytes(b"jet lag\ncaf\xe9\n")
            return f"error: {d}/toy_corpus.txt: line 2: not UTF-8"
        (d / "compounds.csv").write_text("c1,c2\njet,\n", encoding="utf-8")
        return f"error: {d}/compounds.csv: compound CSV row 2: empty constituent"

    # The inputs besides the embeddings that each command reads.
    OTHERS = {
        "score": ("definitions", "stopwords"),
        "scan": ("definitions", "stopwords", "corpus"),
        "run": ("definitions", "stopwords", "compounds", "corpus"),
    }

    @pytest.mark.parametrize(
        "command, other", [(command, other) for command, others in OTHERS.items() for other in others]
    )
    def test_embeddings_error_comes_before_another_inputs_error(
        self, inputs, capsys, command, other
    ):
        self.damage(inputs, other)
        expected = self.damage(inputs, "embeddings")
        assert main(self.argv(command, inputs)) == 1
        assert capsys.readouterr().err.startswith(expected)
        assert_no_child_left()

    @pytest.mark.parametrize("command", ["score", "scan", "run"])
    def test_bad_definitions_alone_name_their_own_line(self, inputs, capsys, command):
        expected = self.damage(inputs, "definitions")
        assert main(self.argv(command, inputs)) == 1
        assert capsys.readouterr().err.startswith(expected)
        assert_no_child_left()

    @pytest.mark.parametrize("command", ["scan", "run"])
    def test_bad_corpus_alone_is_reported(self, inputs, capsys, command):
        expected = self.damage(inputs, "corpus")
        assert main(self.argv(command, inputs)) == 1
        assert capsys.readouterr().err.startswith(expected)
        assert_no_child_left()

    @pytest.mark.parametrize("command", ["scan", "run"])
    def test_interrupt_while_counting_the_corpus_kills_the_children(
        self, inputs, monkeypatch, command
    ):
        read_range = embeddings._read_range
        parent = os.getpid()

        def slow(*args):
            time.sleep(60)  # the parent must kill the child, not wait for it
            return read_range(*args)

        def interrupted(path):
            assert os.getpid() == parent
            raise KeyboardInterrupt

        monkeypatch.setattr(embeddings, "_read_range", slow)
        monkeypatch.setattr(pipeline, "count_corpus", interrupted)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(self.argv(command, inputs))
        assert time.monotonic() - started < 30
        assert_no_child_left()

    @pytest.mark.parametrize("command", ["score", "scan", "run"])
    def test_interrupt_while_loading_definitions_kills_the_children(
        self, inputs, monkeypatch, command
    ):
        read_range = embeddings._read_range
        parent = os.getpid()

        def slow(*args):
            time.sleep(60)  # the parent must kill the child, not wait for it
            return read_range(*args)

        def interrupted(source):
            assert os.getpid() == parent
            raise KeyboardInterrupt

        monkeypatch.setattr(embeddings, "_read_range", slow)
        monkeypatch.setattr(cli, "load_definitions", interrupted)
        monkeypatch.setattr(pipeline, "load_definitions", interrupted)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(self.argv(command, inputs))
        assert time.monotonic() - started < 30
        assert_no_child_left()


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="the loader splits files on Linux only"
)
class TestLoadInputs:
    """``pipeline.load_inputs``, the one loader of every command's inputs, on
    the split embeddings file of TestEmbeddingsParsedBesideTheLoaders."""

    inputs = TestEmbeddingsParsedBesideTheLoaders.inputs
    FILES = ("toy_embeddings.txt", "toy_definitions.tsv", "stopwords.txt", "compounds.csv",
             "toy_corpus.txt")
    TYPES = (EmbeddingTable, dict, frozenset, list, BigramCounts)

    def test_each_file_not_given_is_none(self, inputs):
        for given in itertools.product((False, True), repeat=len(self.FILES)):
            paths = [inputs / name if on else None for name, on in zip(self.FILES, given)]
            loaded = pipeline.load_inputs(*paths)
            assert len(loaded) == len(self.FILES)
            for value, on, kind in zip(loaded, given, self.TYPES):
                assert isinstance(value, kind) if on else value is None, (given, value)
        assert_no_child_left()

    def test_forks_only_for_an_embeddings_file(self, inputs, monkeypatch):
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
        pipeline.load_inputs(
            definitions=inputs / "toy_definitions.tsv",
            stopwords=inputs / "stopwords.txt",
            compounds=inputs / "compounds.csv",
            corpus=inputs / "toy_corpus.txt",
        )
        assert forks == []
        pipeline.load_inputs(inputs / "toy_embeddings.txt")
        assert len(forks) == 3  # one child per range
        pipeline.load_inputs(inputs / "toy_embeddings.txt", corpus=inputs / "toy_corpus.txt")
        assert len(forks) == 3 + 3  # the corpus is counted here
        assert_no_child_left()

    def test_corpus_error_comes_last_without_an_embeddings_file(self, inputs):
        (inputs / "toy_corpus.txt").write_bytes(b"caf\xe9\n")
        (inputs / "stopwords.txt").write_text("two words\n", encoding="utf-8")
        with pytest.raises(LexiconFormatError, match="stopwords.txt: line 1"):
            pipeline.load_inputs(stopwords=inputs / "stopwords.txt", corpus=inputs / "toy_corpus.txt")
        with pytest.raises(CorpusError, match="toy_corpus.txt: line 1: not UTF-8"):
            pipeline.load_inputs(corpus=inputs / "toy_corpus.txt")

    def test_bad_embeddings_come_before_bad_compounds(self, inputs):
        damage = TestEmbeddingsParsedBesideTheLoaders.damage
        damage(inputs, "compounds")
        expected = damage(inputs, "embeddings").removeprefix("error: ")
        with pytest.raises(EmbeddingFormatError, match=f"^{re.escape(expected)}"):
            pipeline.load_inputs(inputs / "toy_embeddings.txt", compounds=inputs / "compounds.csv")
        assert_no_child_left()

    def test_interrupt_while_the_definitions_load_leaves_no_child(self, inputs, monkeypatch):
        read_range = embeddings._read_range
        parent = os.getpid()

        def slow(*args):
            time.sleep(60)  # the parent must kill the child, not wait for it
            return read_range(*args)

        def interrupted(source):
            assert os.getpid() == parent
            raise KeyboardInterrupt

        monkeypatch.setattr(embeddings, "_read_range", slow)
        monkeypatch.setattr(pipeline, "load_definitions", interrupted)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            pipeline.load_inputs(
                inputs / "toy_embeddings.txt",
                inputs / "toy_definitions.tsv",
                corpus=inputs / "toy_corpus.txt",
            )
        assert time.monotonic() - started < 30
        assert_no_child_left()


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
