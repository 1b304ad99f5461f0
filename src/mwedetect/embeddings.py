"""Pretrained word-embedding storage and the vector algebra built on it.

Embedding files use the plain-text GloVe convention: one entry per line,
token first, then a fixed number of decimal floats, all separated by single
ASCII spaces, no header line.
"""

from __future__ import annotations

import logging
import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ._io import text_lines
from .errors import EmbeddingFormatError, ZeroNormError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EmbeddingTable:
    """Immutable token -> vector map with a single fixed dimension.

    Tokens are stored lowercase; lookups lowercase their argument, so case
    never causes a spurious out-of-vocabulary miss. Vectors are read-only
    float64 arrays of length ``dimension``.
    """

    dimension: int
    entries: dict[str, np.ndarray]
    source_label: str = ""
    duplicate_tokens: tuple[str, ...] = field(default=(), compare=False)

    def lookup(self, token: str) -> np.ndarray | None:
        """Return the vector for ``token`` (case-insensitive), or None."""
        return self.entries.get(token.lower())

    def __contains__(self, token: str) -> bool:
        return token.lower() in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def load_embeddings(
    source: str | os.PathLike | Iterable[str],
    expected_dimension: int | None = None,
    source_label: str = "",
) -> EmbeddingTable:
    """Parse a GloVe-format text stream into an EmbeddingTable.

    Every non-blank line must carry the same number of values; the first
    line fixes the dimension unless ``expected_dimension`` pins it up front.
    On a duplicate token the first occurrence wins and the token is recorded
    in ``duplicate_tokens`` alongside a logged warning. Values must be
    finite decimal floats.

    Raises EmbeddingFormatError naming the offending line on any format
    violation, and for an empty stream.
    """
    if isinstance(source, (str, os.PathLike)) and not source_label:
        source_label = os.fspath(source)

    entries: dict[str, np.ndarray] = {}
    duplicates: list[str] = []
    dimension = expected_dimension

    with text_lines(source) as lines:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            parts = line.split(" ")
            token = parts[0].lower()
            if not token or any(ch.isspace() for ch in token):
                raise EmbeddingFormatError(f"line {lineno}: empty or whitespace token")
            found = len(parts) - 1
            if found == 0:
                raise EmbeddingFormatError(f"line {lineno}: token without values")
            if dimension is None:
                dimension = found
            elif found != dimension:
                raise EmbeddingFormatError(
                    f"line {lineno}: expected {dimension} values, found {found}"
                )
            try:
                vector = np.array(parts[1:], dtype=np.float64)
            except ValueError as exc:
                raise EmbeddingFormatError(f"line {lineno}: non-numeric value ({exc})") from None
            if not np.all(np.isfinite(vector)):
                raise EmbeddingFormatError(f"line {lineno}: non-finite value")
            if token in entries:
                duplicates.append(token)
                continue
            vector.flags.writeable = False
            entries[token] = vector

    if not entries:
        raise EmbeddingFormatError("embedding source contains no entries")
    if duplicates:
        logger.warning(
            "embedding source %s: %d duplicate token(s) ignored (first occurrence kept), e.g. %r",
            source_label or "<stream>",
            len(duplicates),
            duplicates[0],
        )
    assert dimension is not None
    return EmbeddingTable(
        dimension=dimension,
        entries=entries,
        source_label=source_label,
        duplicate_tokens=tuple(duplicates),
    )


def cosine(a: np.ndarray | Sequence[float], b: np.ndarray | Sequence[float]) -> float:
    """Cosine similarity of two equal-length vectors, clamped to [-1, 1].

    The clamp guards against floating-point overshoot; without it a score
    of 1.0000000000000002 could leak past a threshold of 1.0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"vector length mismatch: {a.shape[0]} vs {b.shape[0]}")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroNormError("cosine similarity is undefined for a zero-norm vector")
    if np.array_equal(a, b):
        # Identical vectors must score exactly 1.0: a self-pair stays on the
        # NOT_COMPOUND side of every threshold <= 1.0, which sqrt round-off
        # in the general formula cannot guarantee.
        return 1.0
    value = float(np.dot(a, b)) / (norm_a * norm_b)
    return max(-1.0, min(1.0, value))


def vector_sum(vectors: Sequence[np.ndarray | Sequence[float]]) -> np.ndarray:
    """Elementwise sum of one or more equal-length vectors.

    Summation runs left to right in input order, so results are
    bit-deterministic for a fixed input sequence.
    """
    if len(vectors) == 0:
        raise ValueError("vector_sum needs at least one vector")
    total = np.array(vectors[0], dtype=np.float64)
    for i, vec in enumerate(vectors[1:], start=1):
        arr = np.asarray(vec, dtype=np.float64)
        if arr.shape != total.shape:
            raise ValueError(
                f"vector length mismatch at position {i}: {arr.shape[0]} vs {total.shape[0]}"
            )
        total = total + arr
    return total


__all__ = [
    "EmbeddingTable",
    "load_embeddings",
    "cosine",
    "vector_sum",
]
