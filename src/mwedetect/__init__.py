"""Compound multiword-expression detection from embedding non-compositionality.

A compound like "hot dog" means something its parts do not. That gap is
visible in pretrained word embeddings: the vectors (or summed definition
vectors) of the constituents sit far apart in cosine space exactly when
the pair is non-compositional. This package scores word pairs three ways,
calibrates a per-method decision threshold against sampled negatives, and
can scan raw text for candidate compounds with no prior segmentation.
"""

from __future__ import annotations

from .corpus import (
    BigramCounts,
    build_bigram_counts,
    count_corpus,
    read_corpus,
    sample_random_pairs,
    tokenize,
    top_cooccurring_pairs,
)
from .definitions import (
    ALL_OOV,
    ALL_STOPWORDS,
    NO_DEFINITION,
    DefinitionLexicon,
    definition_embedding,
    load_definitions,
    load_stopwords,
)
from .embeddings import EmbeddingTable, cosine, load_embeddings
from .errors import (
    ConfigError,
    CorpusError,
    DatasetError,
    EmbeddingFormatError,
    LexiconFormatError,
    MweDetectError,
    NonFiniteError,
    SamplingError,
    ZeroNormError,
)
from .pairs import LexemePair
from .pipeline import (
    EvalReport,
    ExperimentConfig,
    ExperimentResult,
    LabeledDataset,
    LabeledPair,
    PairSource,
    ScanHit,
    calibrate_threshold,
    evaluate,
    load_compounds,
    load_config,
    run_experiment,
    scan_corpus,
    split_dataset,
)
from .scoring import (
    LEFT_OOV,
    NON_FINITE,
    RIGHT_OOV,
    UNSCORABLE_REASONS,
    ZERO_NORM,
    Judgement,
    ScoreMethod,
    ScoreOutcome,
    classify,
    is_compound,
    score_ids,
    score_pair,
    score_pairs,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # embeddings
    "EmbeddingTable",
    "load_embeddings",
    "cosine",
    # pairs
    "LexemePair",
    # corpus
    "BigramCounts",
    "tokenize",
    "read_corpus",
    "count_corpus",
    "build_bigram_counts",
    "sample_random_pairs",
    "top_cooccurring_pairs",
    # definitions
    "DefinitionLexicon",
    "load_definitions",
    "load_stopwords",
    "definition_embedding",
    "NO_DEFINITION",
    "ALL_OOV",
    "ALL_STOPWORDS",
    # scoring
    "ScoreMethod",
    "Judgement",
    "ScoreOutcome",
    "score_ids",
    "score_pairs",
    "score_pair",
    "is_compound",
    "classify",
    "LEFT_OOV",
    "RIGHT_OOV",
    "ZERO_NORM",
    "NON_FINITE",
    "UNSCORABLE_REASONS",
    # pipeline
    "PairSource",
    "LabeledPair",
    "LabeledDataset",
    "EvalReport",
    "load_compounds",
    "split_dataset",
    "calibrate_threshold",
    "evaluate",
    "ExperimentConfig",
    "load_config",
    "ExperimentResult",
    "run_experiment",
    "ScanHit",
    "scan_corpus",
    # errors
    "MweDetectError",
    "EmbeddingFormatError",
    "ZeroNormError",
    "NonFiniteError",
    "LexiconFormatError",
    "CorpusError",
    "SamplingError",
    "DatasetError",
    "ConfigError",
]
