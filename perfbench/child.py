"""Child processes of the benchmark, each started fresh by run.py.

    python3 perfbench/child.py setup <kind>=<path>...
        Import mwedetect and load each input through its public loader;
        kind is embeddings, definitions, stopwords, corpus or compounds.

    python3 perfbench/child.py traced <trace json> <mwedetect argument>...
        Run one mwedetect command with every hook of tracer.HOOKS attached,
        then write the spans, per-call aggregates and per-layer metrics.

Both need mwedetect importable, e.g. PYTHONPATH=src.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def setup(inputs: list[str]) -> int:
    import mwedetect

    loaders = {
        "embeddings": mwedetect.load_embeddings,
        "definitions": mwedetect.load_definitions,
        "stopwords": mwedetect.load_stopwords,
        "corpus": mwedetect.read_corpus,
        "compounds": mwedetect.load_compounds,
    }
    for item in inputs:
        kind, _, path = item.partition("=")
        loaders[kind](path)
    return 0


def traced(trace_path: Path, argv: list[str]) -> int:
    start = time.perf_counter()
    import mwedetect.cli as cli
    import mwedetect.pipeline as pipeline
    import mwedetect.scoring as scoring

    import_s = time.perf_counter() - start

    from tracer import SPAN, Tracer

    tracer = Tracer()
    tracer.attach({"cli": cli, "pipeline": pipeline, "scoring": scoring})
    main = tracer.wrap(cli.main, "cli.main", SPAN)
    try:
        return main(argv)
    finally:
        metrics = tracer.layer_metrics()
        metrics["process.import_s"] = import_s
        trace = {
            "metrics": metrics,
            "unattached": tracer.unattached,
            "unobserved": sorted(tracer.unobserved),
            "spans": tracer.spans,
            "calls": [
                {"name": name, "parent": parent, "key": key, "calls": n, "s": total, "self_s": self_s}
                for (name, parent, key), (n, total, self_s) in tracer.calls.items()
            ],
        }
        trace_path.write_text(json.dumps(trace), encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        sys.exit(setup(sys.argv[2:]))
    sys.exit(traced(Path(sys.argv[2]), sys.argv[3:]))
