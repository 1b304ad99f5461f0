"""Tests of the benchmark itself, on its smoke scales (a few seconds each)."""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from gen_inputs import SCALES, make_truth, sha256_file, write_inputs  # noqa: E402
from output_checks import check_reports, check_scan, expected_scan  # noqa: E402
from run import WORKLOADS  # noqa: E402
from tracer import HOOKS, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _mwedetect(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "mwedetect.cli", *argv], env=ENV, capture_output=True, text=True
    )


def _bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=cwd, capture_output=True, text=True, timeout=120
    )


@pytest.fixture(scope="module")
def smoke_inputs(tmp_path_factory):
    truth = make_truth(SCALES["smoke-mid"], 5, "smoke-mid")
    inputs = tmp_path_factory.mktemp("inputs")
    write_inputs(truth, inputs)
    return truth, inputs


def test_generation_is_deterministic_per_seed(tmp_path):
    first, second, other = (make_truth(SCALES["smoke-sparse"], seed, "smoke-sparse") for seed in (3, 3, 4))
    for name in first.__dataclass_fields__:
        assert np.array_equal(getattr(first, name), getattr(second, name)), name
    assert not np.array_equal(first.corpus, other.corpus)
    write_inputs(first, tmp_path / "a")
    write_inputs(second, tmp_path / "b")
    for path in (tmp_path / "a").iterdir():
        assert sha256_file(path) == sha256_file(tmp_path / "b" / path.name), path.name


def test_scan_output_passes_and_corruptions_fail(smoke_inputs, tmp_path):
    truth, inputs = smoke_inputs
    hits = tmp_path / "hits.csv"
    done = _mwedetect(
        "scan", "--method", "definition-content", "--min-count", "2", "--threshold", "-0.1",
        "--corpus", str(inputs / "corpus.txt"), "--embeddings", str(inputs / "embeddings.txt"),
        "--definitions", str(inputs / "definitions.tsv"), "--stopwords", str(inputs / "stopwords.txt"),
        "--output", str(hits),
    )
    assert done.returncode == 0, done.stderr
    expected = expected_scan(truth, True, 2)
    assert check_scan(hits, truth, expected, -0.1, 2) == []

    header, *rows = list(csv.reader(hits.open(encoding="utf-8")))
    assert len(rows) > 3
    shifted = [rows[0][:3] + [str(float(rows[0][3]) + 1e-6)]] + rows[1:]
    corruptions = {
        "score": shifted,
        "dropped": rows[1:],
        "order": [rows[1], rows[0]] + rows[2:],
        "count": [rows[0][:2] + [str(int(rows[0][2]) + 1), rows[0][3]]] + rows[1:],
    }
    for name, corrupted in corruptions.items():
        path = tmp_path / f"{name}.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows([header, *corrupted])
        assert check_scan(path, truth, expected, -0.1, 2), name


def test_reports_pass_and_corruptions_fail(smoke_inputs, tmp_path):
    truth, inputs = smoke_inputs
    config = tmp_path / "experiment.conf"
    config.write_text(
        "".join(
            f"{key} = {inputs / name}\n"
            for key, name in (
                ("embeddings", "embeddings.txt"), ("definitions", "definitions.tsv"),
                ("stopwords", "stopwords.txt"), ("corpus", "corpus.txt"), ("compounds", "compounds.csv"),
            )
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    done = _mwedetect("run", str(config), "--output-dir", str(out))
    assert done.returncode == 0, done.stderr
    assert check_reports(out, len(truth.compounds), 0.5) == []

    original = (out / "reports.csv").read_text(encoding="utf-8")
    header, first, *rest = original.splitlines()
    cells = first.split(",")
    for column, value in ((6, str(int(cells[6]) + 1)), (5, "0.5")):  # tp, f1
        corrupted = cells[:column] + [value] + cells[column + 1 :]
        (out / "reports.csv").write_text("\n".join([header, ",".join(corrupted), *rest]) + "\n")
        assert check_reports(out, len(truth.compounds), 0.5), column


def test_benchmark_workloads_are_runnable():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_smoke_run_reports_every_layer_metric(workload):
    done = _bench("--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", "1", "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert result["metrics"]["trace.unattached"]["value"] == 0
    assert "unattached hooks" not in done.stdout


def test_smoke_run_reports_every_end_to_end_metric():
    done = _bench("--workload", "scan-sparse", "--seed", "2", "--seconds", "0.1", "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "scan-sparse", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_missing_hook_is_listed_not_fatal():
    def fn():
        return 1

    modules = {site: types.SimpleNamespace() for site, _, _, _ in HOOKS}
    for site, attr, _, _ in HOOKS:
        setattr(modules[site], attr, fn)
    del modules["cli"].scan_corpus
    tracer = Tracer()
    tracer.attach(modules)
    assert tracer.unattached == ["cli.scan_corpus"]
    assert tracer.layer_metrics()["trace.unattached"] == 1
