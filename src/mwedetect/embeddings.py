"""Pretrained word-embedding storage and the vector algebra built on it.

Embedding files use the plain-text GloVe convention: one entry per line,
token first, then a fixed number of decimal floats, all separated by single
ASCII spaces. A word2vec ``V D`` header line is also accepted.
"""

from __future__ import annotations

import itertools
import logging
import os
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ._io import text_lines
from .errors import EmbeddingFormatError, NonFiniteError, ZeroNormError

logger = logging.getLogger(__name__)

# Entry lines parsed per call of numpy's text reader. Larger blocks parse no
# faster and raise the peak memory of a load.
BLOCK_LINES = 1024

_LOADTXT_OPTIONS = dict(dtype=np.float64, delimiter=" ", comments=None, quotechar=None, ndmin=2)

# loadtxt's position in its error messages; the line number replaces the row.
_AT_ROW = re.compile(r" at row \d+,")


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Immutable token -> vector map with a single fixed dimension.

    ``index`` maps each token to its row of ``matrix``, one (V, d) float64
    array that the loader makes read-only. Tokens are stored lowercase;
    lookups lowercase their argument, so case never causes a spurious
    out-of-vocabulary miss.
    """

    index: dict[str, int]
    matrix: np.ndarray
    source_label: str = ""
    duplicate_tokens: tuple[str, ...] = ()

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    def lookup(self, token: str) -> np.ndarray | None:
        """Return the row of ``token`` (case-insensitive) as a view, or None."""
        row = self.index.get(token.lower())
        return None if row is None else self.matrix[row]

    def __contains__(self, token: str) -> bool:
        return token.lower() in self.index

    def __len__(self) -> int:
        return len(self.index)


def load_embeddings(source: str | os.PathLike | Iterable[str]) -> EmbeddingTable:
    """Parse a GloVe-format text stream into an EmbeddingTable.

    Every entry line must carry the same number of values as the first. A
    first line of two integers ``V D`` that is followed by lines of ``D``
    values is a word2vec header: it is not an entry, and the file must then
    hold exactly ``V`` entry lines. On a duplicate token the first
    occurrence wins and the token is recorded in ``duplicate_tokens``
    alongside a logged warning. Values must be finite decimal floats as
    numpy's text reader parses them. The table's ``source_label`` is the
    path, or empty for a stream of lines.

    Each block of ``BLOCK_LINES`` entry lines is parsed and copied into the
    table's matrix. A regular file's matrix is allocated once, with one row
    per line of the file, and shrunk to the entries at the end; any other
    source's matrix grows by doubling.

    Raises EmbeddingFormatError naming the first offending line on any format
    violation, and for an empty stream; for a path or an open file the
    message starts with its name.
    """
    source_label = os.fspath(source) if isinstance(source, (str, os.PathLike)) else ""
    index: dict[str, int] = {}
    matrix = np.empty((0, 0))
    duplicates: list[str] = []
    dimension: int | None = None
    # The pending block: the lowercase token, the value text and the line
    # number of each entry line not yet parsed.
    tokens: list[str] = []
    rests: list[str] = []
    linenos: list[int] = []

    def parse_pending() -> None:
        nonlocal matrix
        if not rests:
            return
        block = _parse_rows(rests, linenos)
        start = len(index)
        kept = []
        for position, token in enumerate(tokens):
            if token in index:
                duplicates.append(token)
            else:
                index[token] = start + len(kept)
                kept.append(position)
        stop = len(index)
        if stop > len(matrix):
            # A regular file's matrix has a row per newline: only a stream, a
            # pipe, lone carriage-return line ends (text mode splits lines on
            # them too) or a file that grew since the count gets here.
            grown = np.empty((max(stop, 2 * len(matrix)), dimension))
            grown[:start] = matrix[:start]
            matrix = grown
        matrix[start:stop] = block if len(kept) == len(block) else block[kept]
        tokens.clear()
        rests.clear()
        linenos.clear()

    with text_lines(source, EmbeddingFormatError) as lines:
        declared, numbered = _skip_header(iter(lines))
        for lineno, raw in numbered:
            line = raw.rstrip("\r\n")
            if not line:
                continue
            token, sep, rest = line.partition(" ")
            found = rest.count(" ") + 1
            if dimension is None and sep:
                dimension = found
                matrix = np.empty((_reserved_rows(source_label), dimension))
            if token.split() != [token]:
                problem = "empty or whitespace token"
            elif not sep:
                problem = "token without values"
            elif found != dimension:
                problem = f"expected {dimension} values, found {found}"
            elif not rest:
                # loadtxt would skip an empty row instead of rejecting it.
                problem = "non-numeric value (empty field)"
            else:
                tokens.append(token.lower())
                rests.append(rest)
                linenos.append(lineno)
                if len(rests) == BLOCK_LINES:
                    parse_pending()
                continue
            # A bad value on an earlier line of the pending block comes first.
            parse_pending()
            raise EmbeddingFormatError(f"line {lineno}: {problem}")
        parse_pending()
        if not index:
            raise EmbeddingFormatError("embedding source contains no entries")
        entry_lines = len(index) + len(duplicates)
        if declared is not None and declared != entry_lines:
            raise EmbeddingFormatError(
                f"line 1: header declares {declared} entries, found {entry_lines}"
            )

    if duplicates:
        logger.warning(
            "embedding source %s: %d duplicate token(s) ignored (first occurrence kept), e.g. %r",
            source_label or "<stream>",
            len(duplicates),
            duplicates[0],
        )
    if len(matrix) > len(index):
        # Shrinks in place; the rows past the entries were never written.
        # No view of the matrix exists yet, so the reference check is moot.
        matrix.resize((len(index), dimension), refcheck=False)
    matrix.flags.writeable = False
    return EmbeddingTable(
        index=index,
        matrix=matrix,
        source_label=source_label,
        duplicate_tokens=tuple(duplicates),
    )


def _reserved_rows(path: str) -> int:
    """Rows to reserve for the entries of ``path``: its line count.

    Each entry takes a line, so a regular file with newline line ends holds
    at most its newlines plus one (a last line without one) entries.
    Counting them reads the file once more, in chunks. Anything else (no
    path, or a pipe that cannot be read twice) reserves nothing.
    """
    if not path or not os.path.isfile(path):
        return 0
    with open(path, "rb") as handle:
        chunks = iter(lambda: handle.read(1 << 20), b"")
        return sum(chunk.count(b"\n") for chunk in chunks) + 1


def _skip_header(lines: Iterator[str]) -> tuple[int | None, Iterator[tuple[int, str]]]:
    """Take a word2vec ``V D`` header off the front of ``lines``.

    Line 1 is a header when it holds exactly two ASCII integers >= 1 and the
    next non-blank line carries ``D`` values; a 1-d GloVe entry such as
    ``2 3`` is not. Returns ``V`` (None without a header) and the numbered
    lines left to parse.
    """
    first = next(lines, None)
    if first is None:
        return None, iter(())
    fields = first.rstrip("\r\n").split(" ")
    ahead = [first]
    if len(fields) == 2 and all(f.isascii() and f.isdigit() and int(f) >= 1 for f in fields):
        for raw in lines:
            ahead.append(raw)
            line = raw.rstrip("\r\n")
            if line:
                if line.count(" ") == int(fields[1]):
                    return int(fields[0]), enumerate(itertools.chain(ahead[1:], lines), start=2)
                break
    return None, enumerate(itertools.chain(ahead, lines), start=1)


def _parse_rows(rests: list[str], linenos: list[int]) -> np.ndarray:
    """Parse the value text of a block of entry lines into a matrix.

    Raises EmbeddingFormatError naming the first line in file order whose
    values are non-numeric or non-finite.
    """
    try:
        block = np.loadtxt(rests, **_LOADTXT_OPTIONS)
    except ValueError as exc:
        if len(rests) > 1:
            # loadtxt does not always name the row it stopped at, and a
            # non-finite row before it must win: parse the lines one by one.
            for rest, lineno in zip(rests, linenos):
                _parse_rows([rest], [lineno])
        reason = _AT_ROW.sub(" at", str(exc))
        raise EmbeddingFormatError(f"line {linenos[0]}: non-numeric value ({reason})") from None
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        raise EmbeddingFormatError(f"line {linenos[int(finite.argmin())]}: non-finite value")
    return block


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


__all__ = [
    "EmbeddingTable",
    "load_embeddings",
    "row_dots",
    "row_cosines",
    "cosine",
]
