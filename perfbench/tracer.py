"""Spans and call counts around mwedetect's public functions, attached from outside.

mwedetect binds these names at import time (``from .scoring import
score_pair``), so each one is wrapped in every module that looks it up.
Functions that run once per operation get one span each; functions that
run once per pair are aggregated into a call count and a total time under
their enclosing span, so a run holds a few dozen spans, not 10^5. A name
that no longer exists where it is hooked is listed as unattached and the
run goes on without it.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

SPAN = "span"
PER_CALL = "per-call"

# (module that looks the name up, attribute, layer metric prefix, kind)
HOOKS = (
    ("cli", "load_embeddings", "embeddings.load_embeddings", SPAN),
    ("pipeline", "load_embeddings", "embeddings.load_embeddings", SPAN),
    ("cli", "load_definitions", "definitions.load_definitions", SPAN),
    ("pipeline", "load_definitions", "definitions.load_definitions", SPAN),
    ("cli", "load_stopwords", "definitions.load_stopwords", SPAN),
    ("pipeline", "load_stopwords", "definitions.load_stopwords", SPAN),
    ("cli", "read_corpus", "corpus.read_corpus", SPAN),
    ("pipeline", "read_corpus", "corpus.read_corpus", SPAN),
    ("cli", "build_bigram_counts", "corpus.build_bigram_counts", SPAN),
    ("pipeline", "build_bigram_counts", "corpus.build_bigram_counts", SPAN),
    ("cli", "sample_random_pairs", "corpus.sample_random_pairs", SPAN),
    ("pipeline", "sample_random_pairs", "corpus.sample_random_pairs", SPAN),
    ("cli", "top_cooccurring_pairs", "corpus.top_cooccurring_pairs", SPAN),
    ("pipeline", "top_cooccurring_pairs", "corpus.top_cooccurring_pairs", SPAN),
    ("cli", "load_compounds", "pipeline.load_compounds", SPAN),
    ("pipeline", "load_compounds", "pipeline.load_compounds", SPAN),
    ("pipeline", "split_dataset", "pipeline.split_dataset", SPAN),
    ("pipeline", "calibrate_threshold", "pipeline.calibrate_threshold", SPAN),
    ("pipeline", "evaluate", "pipeline.evaluate", SPAN),
    ("cli", "run_experiment", "pipeline.run_experiment", SPAN),
    ("cli", "scan_corpus", "cli.scan_corpus", SPAN),
    ("cli", "score_pair", "scoring.score_pair", PER_CALL),
    ("pipeline", "score_pair", "scoring.score_pair", PER_CALL),
    ("cli", "classify", "scoring.classify", PER_CALL),
    ("pipeline", "classify", "scoring.classify", PER_CALL),
    ("scoring", "definition_embedding", "definitions.definition_embedding", PER_CALL),
    ("scoring", "cosine", "embeddings.cosine", PER_CALL),
)

METHODS = ("word", "definition", "definition-content")
UNSCORABLE_REASONS = ("left-oov", "right-oov", "no-definition", "all-oov", "all-stopwords", "zero-norm")


def _arg(args, kwargs, position, name, default=None):
    return args[position] if len(args) > position else kwargs.get(name, default)


def _observe_load_embeddings(tracer, args, kwargs, result):
    source = _arg(args, kwargs, 0, "source")
    tracer.counters["embeddings.load_embeddings.bytes"] += os.path.getsize(source)


def _observe_read_corpus(tracer, args, kwargs, result):
    tracer.counters["corpus.tokens"] += len(result)


def _observe_bigrams(tracer, args, kwargs, result):
    tracer.counters["corpus.bigram_types"] += len(result)


def _observe_score_pair(tracer, args, kwargs, result):
    if not result.is_scorable:
        tracer.counters[f"scoring.unscorable.{result.unscorable_reason}"] += 1


def _observe_definition_embedding(tracer, args, kwargs, result):
    stopwords = _arg(args, kwargs, 3, "stopwords")
    key = (_arg(args, kwargs, 2, "lexeme"), None if stopwords is None else id(stopwords))
    tracer.distinct["definitions.definition_embedding"].add(key)


OBSERVERS = {
    "embeddings.load_embeddings": _observe_load_embeddings,
    "corpus.read_corpus": _observe_read_corpus,
    "corpus.build_bigram_counts": _observe_bigrams,
    "scoring.score_pair": _observe_score_pair,
    "definitions.definition_embedding": _observe_definition_embedding,
}
# Per-call time of score_pair is split by scoring method, its first argument.
SUBKEYS = {"scoring.score_pair": lambda args, kwargs: _arg(args, kwargs, 0, "method").value}


class Tracer:
    """In-memory spans and per-call aggregates, written out once at the end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.calls: dict[tuple, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.unattached: list[str] = []
        self.unobserved: set[str] = set()
        self._frames: list[list[float]] = []  # child time of each open call
        self._open_spans: list[int] = []

    def wrap(self, fn, name: str, kind: str):
        observe = OBSERVERS.get(name)
        subkey = SUBKEYS.get(name)

        def traced(*args, **kwargs):
            parent = self._frames[-1] if self._frames else None
            frame = [0.0]
            self._frames.append(frame)
            if kind == SPAN:
                span_id = len(self.spans)
                self.spans.append({"id": span_id, "name": name})
                enclosing = self._open_spans[-1] if self._open_spans else None
                self._open_spans.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._frames.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                if kind == SPAN:
                    self._open_spans.pop()
                    self.spans[span_id].update(
                        parent=enclosing, start=start, end=end, self_s=duration - frame[0]
                    )
                else:
                    key = (
                        name,
                        self._open_spans[-1] if self._open_spans else None,
                        self._subkey(subkey, name, args, kwargs),
                    )
                    totals = self.calls[key]
                    totals[0] += 1
                    totals[1] += duration
                    totals[2] += duration - frame[0]
            if observe is not None:
                try:
                    observe(self, args, kwargs, result)
                except Exception:  # a changed signature must not break the traced run
                    self.unobserved.add(name)
            return result

        traced.__wrapped__ = fn
        return traced

    def _subkey(self, subkey, name, args, kwargs):
        if subkey is None:
            return None
        try:
            return subkey(args, kwargs)
        except Exception:  # a changed signature must not break the traced run
            self.unobserved.add(name)
            return None

    def attach(self, modules: dict) -> None:
        """Wrap every hook in ``modules`` (site name -> module); list the missing ones."""
        for site, attribute, name, kind in HOOKS:
            fn = getattr(modules.get(site), attribute, None)
            if not callable(fn):
                self.unattached.append(f"{site}.{attribute}")
                continue
            setattr(modules[site], attribute, self.wrap(fn, name, kind))

    def _span_total(self, name: str, field: str = "duration") -> float:
        return sum(
            span["end"] - span["start"] if field == "duration" else span[field]
            for span in self.spans
            if span["name"] == name and "end" in span
        )

    def _calls(self, name: str, sub=None) -> tuple[int, float, float]:
        calls = total = self_s = 0
        for (call_name, _, call_sub), (n, t, s) in self.calls.items():
            if call_name == name and (sub is None or call_sub == sub):
                calls, total, self_s = calls + n, total + t, self_s + s
        return calls, total, self_s

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this process, named ``<module>.<function>.<quantity>``."""
        metrics: dict[str, float] = {}
        load_s = self._span_total("embeddings.load_embeddings")
        metrics["embeddings.load_embeddings.s"] = load_s
        metrics["embeddings.load_embeddings.mb_per_s"] = (
            self.counters["embeddings.load_embeddings.bytes"] / 1e6 / load_s if load_s else 0.0
        )
        for name in ("embeddings.cosine", "definitions.definition_embedding", "scoring.classify"):
            calls, total, _ = self._calls(name)
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.s"] = total
        calls = metrics["definitions.definition_embedding.calls"]
        metrics["definitions.definition_embedding.distinct_ratio"] = (
            len(self.distinct["definitions.definition_embedding"]) / calls if calls else 0.0
        )
        for name in (
            "definitions.load_definitions",
            "definitions.load_stopwords",
            "corpus.read_corpus",
            "corpus.build_bigram_counts",
            "corpus.sample_random_pairs",
            "corpus.top_cooccurring_pairs",
            "pipeline.load_compounds",
            "pipeline.split_dataset",
            "pipeline.calibrate_threshold",
            "pipeline.evaluate",
        ):
            metrics[f"{name}.s"] = self._span_total(name)
        metrics["corpus.tokens"] = self.counters["corpus.tokens"]
        metrics["corpus.bigram_types"] = self.counters["corpus.bigram_types"]
        for method in METHODS:
            calls, _, self_s = self._calls("scoring.score_pair", method)
            metrics[f"scoring.score_pair.calls.{method}"] = calls
            metrics[f"scoring.score_pair.self_s.{method}"] = self_s
        for reason in UNSCORABLE_REASONS:
            metrics[f"scoring.unscorable.{reason}"] = self.counters[f"scoring.unscorable.{reason}"]
        for name in ("pipeline.run_experiment", "cli.scan_corpus", "cli.main"):
            metrics[f"{name}.self_s"] = self._span_total(name, "self_s")
        metrics["trace.unattached"] = len(self.unattached)
        return metrics
