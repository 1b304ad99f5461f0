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
from .errors import EmbeddingFormatError, NonFiniteError, ZeroNormError

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


def load_embeddings(source: str | os.PathLike | Iterable[str]) -> EmbeddingTable:
    """Parse a GloVe-format text stream into an EmbeddingTable.

    Every non-blank line must carry the same number of values as the first.
    On a duplicate token the first occurrence wins and the token is recorded
    in ``duplicate_tokens`` alongside a logged warning. Values must be
    finite decimal floats. The table's ``source_label`` is the path, or
    empty for a stream of lines.

    Raises EmbeddingFormatError naming the offending line on any format
    violation, and for an empty stream.
    """
    source_label = os.fspath(source) if isinstance(source, (str, os.PathLike)) else ""
    entries: dict[str, np.ndarray] = {}
    duplicates: list[str] = []
    dimension: int | None = None

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


def row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product of each row of the (n, d) matrix ``u`` with the same row of ``v``.

    The (n, 1, d) @ (n, d, 1) matmul takes the same vector-vector product
    as ``np.dot`` for each row, so every result is bit-identical to
    ``np.dot(u[i], v[i])``.
    """
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def row_cosines(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosine of each row of the (n, d) matrix ``u`` with the same row of ``v``.

    Returns ``(values, zero_norm)``. ``zero_norm`` flags the rows where
    either vector has norm 0. ``values`` is NaN on those rows and on rows
    whose formula overflows float64 (an inf component, or a squared norm or
    product of norms past the float64 range). Every other value lies in
    [-1, 1] and is bit-identical to ``np.dot(a, b) / (norm(a) * norm(b))``
    with ``np.linalg.norm``, clamped; the clamp guards against round-off,
    without which a score of 1.0000000000000002 could leak past a threshold
    of 1.0.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        norm_u = np.sqrt(row_dots(u, u))
        norm_v = np.sqrt(row_dots(v, v))
        denominator = norm_u * norm_v
        values = row_dots(u, v) / denominator
    finite = np.isfinite(values) & np.isfinite(denominator)
    values = np.clip(values, -1.0, 1.0)
    # Identical vectors must score exactly 1.0: a self-pair stays on the
    # NOT_COMPOUND side of every threshold <= 1.0, which sqrt round-off in
    # the general formula cannot guarantee.
    values[(u == v).all(axis=1)] = 1.0
    values[~finite] = np.nan
    return values, (norm_u == 0.0) | (norm_v == 0.0)


def cosine(a: np.ndarray | Sequence[float], b: np.ndarray | Sequence[float]) -> float:
    """Cosine similarity of two equal-length vectors: the one-row ``row_cosines``.

    Raises ZeroNormError when either vector has norm 0, and NonFiniteError
    when the formula overflows float64.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"vector length mismatch: {a.shape[0]} vs {b.shape[0]}")
    values, zero_norm = row_cosines(a[None, :], b[None, :])
    if zero_norm[0]:
        raise ZeroNormError("cosine similarity is undefined for a zero-norm vector")
    if np.isnan(values[0]):
        raise NonFiniteError("cosine similarity overflows float64")
    return float(values[0])


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
    "row_dots",
    "row_cosines",
    "cosine",
    "vector_sum",
]
