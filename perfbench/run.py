"""Seeded planted-signal benchmark of the mwedetect command line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a source checkout (it needs ``src/mwedetect``). The
inputs are generated from ``--seed`` with numpy only and cached under
``.perfbench/``. Each operation is one fresh process running one mwedetect
command to exit, in a closed loop with one client, until ``--seconds`` have
passed; every output is checked against the planted truth.

With ``--trace 0`` the run also starts fresh set-up probes (import
mwedetect and load the workload's inputs) and reports the end-to-end
metrics of BENCHMARK.json. With ``--trace 1`` it alternates untraced and
traced operations and reports the per-layer metrics; the traced ones run
through child.py with tracer.HOOKS attached.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(metadata, input and output hashes, samples, spans) goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from gen_inputs import INPUT_FILES, SCALES, prepare, sha256_file
from output_checks import check_reports, check_scan, expected_scan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

MIN_COUNT = 2
FRACTION = 0.5
SETUP_PROBES = 3
# Every child must end well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0

WORKLOADS = {
    # The paper's calibrate-then-evaluate path; the only one that samples,
    # calibrates and evaluates.
    "experiment": {"scale": "mid", "inputs": ("embeddings", "definitions", "stopwords", "corpus", "compounds")},
    # Scoring-heavy scan: ~74k bigram types, each lexeme's definition summed
    # again for every bigram it is part of.
    "scan-dense": {
        "scale": "mid",
        "inputs": ("embeddings", "definitions", "stopwords", "corpus"),
        "method": "definition-content",
        "threshold": -0.1,
    },
    # Loading-heavy scan: a 150k-word vocabulary and lexicon, ~5k bigrams.
    "scan-sparse": {
        "scale": "sparse",
        "inputs": ("embeddings", "definitions", "corpus"),
        "method": "definition",
        "threshold": 0.05,
    },
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_child(argv: list[str], env: dict, log: Path, deadline: float) -> tuple[int, float, float]:
    """Run one child to exit; return (exit code, wall seconds, peak RSS in MB)."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=sink, stderr=subprocess.STDOUT, cwd=ROOT)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6


def command(name: str, spec: dict, inputs: Path, out: Path, seed: int) -> list[str]:
    if name == "experiment":
        config = out.parent / "experiment.conf"
        config.write_text(
            "".join(f"{key} = {inputs / INPUT_FILES[key]}\n" for key in spec["inputs"])
            + f"sample_seed = {seed}\nsplit_seed = {seed + 1}\n"
            + f"fraction = {FRACTION}\nthreshold_mode = shared\n",
            encoding="utf-8",
        )
        return ["run", str(config), "--output-dir", str(out)]
    argv = ["scan", "--method", spec["method"], "--min-count", str(MIN_COUNT)]
    argv += ["--threshold", str(spec["threshold"]), "--output", str(out / "hits.csv")]
    for key in spec["inputs"]:
        argv += [f"--{key}", str(inputs / INPUT_FILES[key])]
    return argv


def metadata(scale: str, manifest: dict) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import mwedetect

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mwedetect": mwedetect.__version__,
        "mwedetect_file": mwedetect.__file__,
        "commit": commit,
        "scale": scale,
        "sizes": SCALES[scale].__dict__,
        "inputs": manifest["files"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    # Turn SIGTERM into SystemExit, so that run_child stops the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "mwedetect" / "__init__.py").is_file():
        fail(f"no mwedetect sources under {ROOT / 'src'}; run from a source checkout")
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    spec = WORKLOADS[args.workload]
    scale = ("smoke-" if args.smoke else "") + spec["scale"]
    inputs, truth, manifest = prepare(WORK / "cache", scale, args.seed)
    meta = metadata(scale, manifest)
    if not Path(meta["mwedetect_file"]).resolve().is_relative_to(ROOT / "src"):
        fail(f"mwedetect resolves to {meta['mwedetect_file']}, not this checkout")

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    ops_dir = WORK / "ops" / args.workload
    shutil.rmtree(ops_dir, ignore_errors=True)
    ops_dir.mkdir(parents=True)
    out = ops_dir / "out"
    argv = command(args.workload, spec, inputs, out, args.seed)
    scan = args.workload != "experiment"
    if scan:
        expected = expected_scan(truth, spec["method"] == "definition-content", MIN_COUNT)
        pairs = len(expected)
    else:
        pairs = 3 * 3 * len(truth.compounds)  # three methods x (positives + two negative arms)

    attempted = failed = 0
    problems: list[str] = []
    samples: dict[str, list[float]] = {"wall_s": [], "traced_wall_s": [], "setup_s": [], "peak_rss_mb": []}
    traces: list[dict] = []
    output_sha256 = None

    def operation(traced: bool) -> None:
        nonlocal attempted, failed, output_sha256
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        trace_path = ops_dir / "trace.json"
        if traced:
            child = [sys.executable, str(HERE / "child.py"), "traced", str(trace_path), *argv]
        else:
            child = [sys.executable, "-m", "mwedetect.cli", *argv]
        rc, wall, rss = run_child(child, env, ops_dir / "log.txt", deadline)
        attempted += 1
        found = [f"exit code {rc}"] if rc != 0 else []
        if not found:
            result = out / ("hits.csv" if scan else "reports.csv")
            found = (
                check_scan(result, truth, expected, spec["threshold"], MIN_COUNT)
                if scan
                else check_reports(out, len(truth.compounds), FRACTION)
            )
            output_sha256 = sha256_file(result) if result.exists() else None
        if found:
            failed += 1
            problems.extend(found[:5])
            log = (ops_dir / "log.txt").read_text(encoding="utf-8", errors="replace")
            print(f"operation failed: {found[:5]}\n{log[-2000:]}", file=sys.stderr)
            return
        if traced:
            samples["traced_wall_s"].append(wall)
            traces.append(json.loads(trace_path.read_text(encoding="utf-8")))
        else:
            samples["wall_s"].append(wall)
            samples["peak_rss_mb"].append(rss)

    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = [sys.executable, str(HERE / "child.py"), "setup"]
            probe += [f"{key}={inputs / INPUT_FILES[key]}" for key in spec["inputs"]]
            rc, wall, _ = run_child(probe, env, ops_dir / "setup-log.txt", deadline)
            attempted += 1
            if rc != 0:
                failed += 1
                problems.append(f"set-up probe exit code {rc}")
            samples["setup_s"].append(wall)

    start = time.monotonic()
    traced_next = False
    while not failed:
        operation(traced_next)
        if args.trace:
            traced_next = not traced_next
        done = time.monotonic() - start >= args.seconds
        if done and (not args.trace or not traced_next):
            break

    metrics: dict[str, float] = {}
    if samples["wall_s"]:
        wall = statistics.median(samples["wall_s"])
        metrics["wall_s"] = wall
        metrics["pairs_per_s"] = pairs / wall
        metrics["peak_rss_mb"] = statistics.median(samples["peak_rss_mb"])
    if samples["setup_s"]:
        metrics["setup_s"] = statistics.median(samples["setup_s"])
    unattached: list[str] = []
    if traces:
        for name in traces[0]["metrics"]:
            metrics[name] = statistics.median(trace["metrics"][name] for trace in traces)
        if samples["wall_s"]:
            metrics["trace.overhead_s"] = (
                statistics.median(samples["traced_wall_s"]) - metrics["wall_s"]
            )
        unattached = traces[-1]["unattached"]

    ops = len(samples["wall_s"])
    counts = {"wall_s": ops, "pairs_per_s": ops, "peak_rss_mb": ops, "setup_s": len(samples["setup_s"])}
    report = {
        m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted
    }
    for name, entry in report.items():
        n = counts.get(name, len(traces))
        print(f"{name:<52} {entry['value']:.6g} {entry['unit']} (median of {n})")
    print(f"{'fail_ratio':<52} {failed / max(attempted, 1):.6g} ({failed} of {attempted} operations)")
    print(f"{'pairs per operation':<52} {pairs}")
    if unattached:
        print(f"unattached hooks: {', '.join(unattached)}")
    print(f"output sha256: {output_sha256}")

    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "metadata": meta,
        "pairs_per_operation": pairs,
        "output_sha256": output_sha256,
        "problems": problems,
        "samples": samples,
        "unattached": unattached,
        "traces": traces,
        "metrics": report,
    }
    result_path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"record: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": report}))


if __name__ == "__main__":
    main()
