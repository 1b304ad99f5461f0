"""Exception types shared across the package."""


class MweDetectError(Exception):
    """Base class for all errors raised by this package."""


class EmbeddingFormatError(MweDetectError):
    """Malformed embedding file (bad dimension, non-numeric value, empty stream)."""


class ZeroNormError(MweDetectError):
    """Cosine similarity requested for a zero-norm vector."""


class NonFiniteError(MweDetectError):
    """Cosine similarity whose formula overflows float64 (an inf component or norm)."""


class LexiconFormatError(MweDetectError):
    """Malformed definitions or stop-word file."""


class CorpusError(MweDetectError):
    """Unusable corpus input (no readable files, zero tokens)."""


class SamplingError(MweDetectError):
    """Negative sampling cannot satisfy the request (too few candidate pairs)."""


class DatasetError(MweDetectError):
    """Labeled-dataset construction, splitting, or calibration failed."""


class ConfigError(MweDetectError):
    """Invalid experiment configuration (bad key, bad value, missing file)."""
