"""Pretrained word-embedding storage and the vector algebra built on it.

Embedding files use the plain-text GloVe convention: one entry per line,
token first, then a fixed number of decimal floats, all separated by single
ASCII spaces. A word2vec ``V D`` header line is also accepted.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import logging
import mmap
import os
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ._io import Worker, count_lines, naming
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
    array that the loader makes read-only: a token's vector is
    ``matrix[index[token]]``. Tokens are stored lowercase; ``in`` and
    ``scoring.score_ids`` lowercase what they look up, so case never causes
    a spurious out-of-vocabulary miss.
    """

    index: dict[str, int]
    matrix: np.ndarray
    source_label: str = ""
    duplicate_tokens: tuple[str, ...] = ()

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

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

    The lines are parsed as one or more ranges. A range's entry lines are
    judged a block of ``BLOCK_LINES`` at a time, in file order, and copied
    into the table's matrix. A regular file's matrix is allocated once,
    with one row per line of the file; any other source's matrix grows by
    doubling.

    On Linux a regular file of at least ``2 * BLOCK_LINES`` lines is split
    into one byte range per CPU the process may run on (at most one per
    ``BLOCK_LINES`` lines). This process reads only the header; a forked
    child parses each range, the first from byte 0, into the same shared
    matrix and sends back only its tokens or its exception. Any other
    source is one range, which this process parses from the reader that
    read the header. The table and the first error in file order are those
    of a one-range parse, with one exception: text is decoded up to 8 KiB
    ahead of the lines read, and only a byte that is not UTF-8 within that
    read-ahead can be named in place of an earlier bad line. Where a range
    starts moves it. On Python 3.12 and later ``os.fork`` warns when the
    process runs other threads, as numpy's BLAS pool does; the children
    only parse text and leave through ``os._exit``. ``Parsing`` lets a
    caller load other inputs while they parse.

    Raises EmbeddingFormatError naming the first offending line on any format
    violation, and for an empty stream; for a path or an open file the
    message starts with its name. Raises ChildProcessError, naming the file,
    when a child ends without a result (it was killed, for instance).
    """
    with Parsing(source) as parse:
        return parse.result()


class Parsing:
    """``load_embeddings(source)`` begun, to load the other inputs in the ``with`` block.

    Entering reads the header and forks a split file's children; leaving
    the block kills those still running. ``result()`` returns the table or
    raises the load's error; a source that is not split is parsed there.
    When the block raises an Exception before ``result()``, the embeddings
    are joined first, and their error, if any, is raised in place of the
    block's: errors come in the order of one load after another. Any other
    exit, an interrupt for instance, kills the children without joining them.
    """

    def __init__(self, source: str | os.PathLike | Iterable[str]) -> None:
        self.source = source
        self._joined = False

    def __enter__(self) -> Parsing:
        source = self.source
        is_path = isinstance(source, (str, os.PathLike))
        self.label = os.fspath(source) if is_path else ""
        with contextlib.ExitStack() as stack:
            lines = stack.enter_context(open(source, encoding="utf-8-sig")) if is_path else source
            with naming(source, EmbeddingFormatError):
                self.declared, self.dimension, self.numbered = _read_head(iter(lines))
            ranges = _line_ranges(self.label) if self.dimension else []
            # Each range's first row, then the rows of all ranges.
            *firsts, rows = itertools.accumulate((count for _, count in ranges), initial=0)
            self.workers = []
            if len(ranges) < 2:
                self.matrix = np.empty((rows, self.dimension or 0))
            else:
                # Anonymous and shared, so the children's writes land here.
                shared = mmap.mmap(-1, rows * self.dimension * 8)
                self.matrix = np.frombuffer(shared).reshape(rows, self.dimension)
                for (start, count), row in zip(ranges, firsts):
                    what = f"{self.label}: the child parsing from line {row + 1}"
                    header = start == 0 and self.declared is not None
                    args = (self.label, start, count, header, self.dimension, self.matrix, row)
                    worker = Worker(what, _read_range, *args)
                    self.workers.append((row, stack.enter_context(worker)))
            self._stack = stack.pop_all()
        return self

    def __exit__(self, kind: object, error: object, traceback: object) -> None:
        with self._stack:
            if isinstance(error, Exception) and not self._joined:
                self.result()

    def result(self) -> EmbeddingTable:
        """The table: the children joined, or the one range parsed here."""
        self._joined = True
        with naming(self.source, EmbeddingFormatError):
            if self.workers:
                parts = [(row, worker.result()) for row, worker in self.workers]
                matrix = self.matrix
            else:
                tokens, matrix = _read_entries(self.numbered, self.dimension, self.matrix, 0)
                parts = [(0, tokens)]
            index, duplicates, kept = _first_wins(parts, len(matrix))
            if not index:
                raise EmbeddingFormatError("embedding source contains no entries")
            entry_lines = len(index) + len(duplicates)
            if self.declared is not None and self.declared != entry_lines:
                raise EmbeddingFormatError(
                    f"line 1: header declares {self.declared} entries, found {entry_lines}"
                )

        if duplicates:
            logger.warning(
                "embedding source %s: %d duplicate token(s) ignored (first occurrence kept), e.g. %r",
                self.label or "<stream>",
                len(duplicates),
                duplicates[0],
            )
        _close_gaps(matrix, kept)
        if matrix.base is None:
            # Shrinks in place; the rows past the entries hold nothing needed.
            # No view of the matrix exists yet, so the reference check is moot.
            matrix.resize((len(index), self.dimension), refcheck=False)
        else:
            matrix = matrix[: len(index)]
        matrix.flags.writeable = False
        return EmbeddingTable(
            index=index,
            matrix=matrix,
            source_label=self.label,
            duplicate_tokens=tuple(duplicates),
        )


def _read_entries(
    numbered: Iterable[tuple[int, str]], dimension: int | None, matrix: np.ndarray, row: int
) -> tuple[list[str], np.ndarray]:
    """Parse the entry lines of ``numbered`` into ``matrix`` from ``row`` on.

    ``_parse_rows`` judges and parses the non-blank lines a block of
    ``BLOCK_LINES`` at a time; each entry line takes the next row,
    duplicates included. Returns the entry tokens, lowercase and in line
    order, and the matrix: a larger copy if the entries outgrew it.
    """
    tokens: list[str] = []
    # The pending block: each non-blank line not yet parsed, and its number.
    lines: list[str] = []
    linenos: list[int] = []

    def parse_pending() -> None:
        nonlocal matrix
        if not lines:
            return
        values, block_tokens = _parse_rows(lines, linenos, dimension)
        start = row + len(tokens)
        stop = start + len(values)
        if stop > len(matrix):
            # Only a stream, a pipe or a file that grew since its lines were
            # counted gets here.
            grown = np.empty((max(stop, 2 * len(matrix)), dimension))
            grown[:start] = matrix[:start]
            matrix = grown
        matrix[start:stop] = values
        tokens.extend(block_tokens)
        lines.clear()
        linenos.clear()

    try:
        for lineno, raw in numbered:
            if line := raw.rstrip("\r\n"):
                lines.append(line)
                linenos.append(lineno)
                if len(lines) == BLOCK_LINES:
                    parse_pending()
    except UnicodeDecodeError:
        # The lines read before the bad byte are judged first.
        parse_pending()
        raise
    parse_pending()
    return tokens, matrix


def _read_range(
    path: str, start: int, count: int, header: bool, dimension: int, matrix: np.ndarray, row: int
) -> list[str]:
    """Parse ``count`` lines of ``path`` from byte ``start`` into ``matrix``
    from ``row`` on; return their entry tokens. The range at byte 0 drops a
    byte-order mark; with ``header``, its first line is a ``V D`` header."""
    with open(path, "rb") as handle:
        handle.seek(start)
        text = io.TextIOWrapper(handle, encoding="utf-8" if start else "utf-8-sig")
        numbered = enumerate(itertools.islice(text, count), start=row + 1)
        if header:
            next(numbered, None)
        return _read_entries(numbered, dimension, matrix, row)[0]


def _first_wins(
    parts: list[tuple[int, list[str]]], rows: int
) -> tuple[dict[str, int], list[str], np.ndarray]:
    """Index the entry tokens of ``parts`` in file order, first occurrence kept.

    ``parts`` holds each range's first row and its tokens, a row each, out
    of ``rows`` rows. Returns the token -> row index, the duplicate tokens
    and, in order, the rows that hold a kept entry.
    """
    index: dict[str, int] = {}
    duplicates: list[str] = []
    kept = np.zeros(rows, dtype=bool)
    for row, tokens in parts:
        kept[row : row + len(tokens)] = True
        for position, token in enumerate(tokens, start=row):
            if token in index:
                duplicates.append(token)
                kept[position] = False
            else:
                index[token] = len(index)
    return index, duplicates, np.flatnonzero(kept)


def _close_gaps(matrix: np.ndarray, rows: np.ndarray) -> None:
    """Move row ``rows[i]`` of ``matrix`` to row ``i``, in place.

    ``rows`` rises strictly, so every row moves down or stays. Blocks move
    front to back, and no row is overwritten before it has moved.
    """
    for start in range(0, len(rows), BLOCK_LINES):
        block = rows[start : start + BLOCK_LINES]
        if block[-1] != start + len(block) - 1:
            matrix[start : start + len(block)] = matrix[block]


def _line_ranges(path: str) -> list[tuple[int, int]]:
    """Split the file at ``path`` into byte ranges to parse side by side.

    There are ``min(CPUs available, lines // BLOCK_LINES)`` ranges, at least
    one, and range k starts after the first ``\\n`` at or after byte
    ``size * k / ranges`` (ranges that come out empty are dropped). Returns
    each range's first byte and line count; the counts sum to the file's
    lines as ``count_lines`` counts them. Anything but a regular file (no
    path, or a pipe that cannot be read twice) has no ranges.
    """
    if not path or not os.path.isfile(path):
        return []
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        ranges = _count_ranges(handle, size, cpus)
        parts = min(cpus, sum(count for _, count in ranges) // BLOCK_LINES)
        if parts < cpus:
            ranges = _count_ranges(handle, size, max(parts, 1))
    return ranges


def _count_ranges(handle: io.BufferedReader, size: int, parts: int) -> list[tuple[int, int]]:
    """The first byte and line count of each of ``parts`` ranges of ``handle``."""
    starts = [0]
    for k in range(1, parts):
        handle.seek(size * k // parts)
        while (piece := handle.readline(1 << 16)) and not piece.endswith(b"\n"):
            pass
        position = handle.tell()
        if starts[-1] < position < size:
            starts.append(position)
    counts = [count_lines(handle, start, stop) for start, stop in zip(starts, starts[1:] + [size])]
    return list(zip(starts, counts))


def _read_head(lines: Iterator[str]) -> tuple[int | None, int | None, Iterator[tuple[int, str]]]:
    """Take a word2vec ``V D`` header off the front of ``lines`` and fix the dimension.

    Line 1 is a header when it holds exactly two ASCII integers >= 1 and the
    next non-blank line carries ``D`` values; a 1-d GloVe entry such as
    ``2 3`` is not. Returns ``V`` (None without a header), the number of
    values on the first entry line (None when there is no non-blank line,
    or the first has no values) and the numbered lines left to parse.
    """
    ahead: list[str] = []

    def next_filled() -> str | None:
        for raw in lines:
            ahead.append(raw)
            line = raw.rstrip("\r\n")
            if line:
                return line
        return None

    first = next_filled()
    fields = first.split(" ") if first is not None and len(ahead) == 1 else []
    if len(fields) == 2 and all(f.isascii() and f.isdigit() and int(f) >= 1 for f in fields):
        following = next_filled()
        if following is not None and following.count(" ") == int(fields[1]):
            numbered = enumerate(itertools.chain(ahead[1:], lines), start=2)
            return int(fields[0]), int(fields[1]), numbered
    dimension = None if first is None else first.count(" ") or None
    return None, dimension, enumerate(itertools.chain(ahead, lines), start=1)


def _parse_rows(
    lines: list[str], linenos: list[int], dimension: int | None
) -> tuple[np.ndarray, list[str]]:
    """The values and the lowercase tokens of a block of entry lines; raises
    EmbeddingFormatError naming the first bad line, in file order."""
    split = [line.partition(" ") for line in lines]
    tokens = [token for token, _, _ in split]
    rests = [rest for _, _, rest in split]
    # Joined and split again, the tokens come back unchanged only if none is
    # empty or holds whitespace. loadtxt skips an empty row, or warns if all are.
    if all(rests) and " ".join(tokens).split() == tokens:
        with contextlib.suppress(ValueError):
            values = np.loadtxt(rests, **_LOADTXT_OPTIONS)
            if values.shape == (len(lines), dimension) and np.isfinite(values).all():
                return values, [token.lower() for token in tokens]
    # The block fails, so one of its lines fails alone: judge each in file order.
    for (token, sep, rest), lineno in zip(split, linenos):
        if token.split() != [token]:
            problem = "empty or whitespace token"
        elif not sep:
            problem = "token without values"
        elif (found := rest.count(" ") + 1) != dimension:
            problem = f"expected {dimension} values, found {found}"
        elif not rest:
            problem = "non-numeric value (empty field)"
        else:
            try:
                if np.isfinite(np.loadtxt([rest], **_LOADTXT_OPTIONS)).all():
                    continue
                problem = "non-finite value"
            except ValueError as exc:
                problem = f"non-numeric value ({_AT_ROW.sub(' at', str(exc))})"
        raise EmbeddingFormatError(f"line {lineno}: {problem}")
    raise AssertionError("a block that fails has a bad line")


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
    either vector is all zeros. ``values`` is NaN on those rows and on rows
    whose formula overflows float64 (an inf component, or a squared norm or
    product of norms past the float64 range). Every other value lies in
    [-1, 1]. Where both vectors have a component of magnitude 2**-500 or
    more, it is bit-identical to ``np.dot(a, b) / (norm(a) * norm(b))``
    with ``np.linalg.norm``, clamped; the clamp guards against round-off,
    without which a score of 1.0000000000000002 could leak past a threshold
    of 1.0. A smaller vector's squared norm could underflow to 0 or lose
    bits, so on such a row both vectors are first scaled up by powers of
    two, which is exact.
    """
    values = _row_cosines(u, v)
    u_max, v_max = np.abs(u).max(axis=1), np.abs(v).max(axis=1)
    redo = np.minimum(u_max, v_max) < 2.0**-500
    if redo.any():
        values[redo] = _row_cosines(_scaled_up(u[redo]), _scaled_up(v[redo]))
    return values, (u_max == 0) | (v_max == 0)


def _row_cosines(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The values of ``row_cosines``, by the formula alone."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        denominator = np.sqrt(row_dots(u, u)) * np.sqrt(row_dots(v, v))
        values = row_dots(u, v) / denominator
    finite = np.isfinite(values) & np.isfinite(denominator)
    values = np.clip(values, -1.0, 1.0)
    # Identical vectors must score exactly 1.0: a self-pair stays on the
    # NOT_COMPOUND side of every threshold <= 1.0, which sqrt round-off in
    # the general formula cannot guarantee. Their formula gives 1 within
    # 4 * 2**-53 (one rounding each in sqrt, the product and the division
    # of the same dot product), so only rows from 1 - 2**-50 up are compared.
    near = np.flatnonzero(values >= 1.0 - 2.0**-50)
    values[near[(u[near] == v[near]).all(axis=1)]] = 1.0
    values[~finite] = np.nan
    return values


def _scaled_up(rows: np.ndarray) -> np.ndarray:
    """``rows``, each row whose largest |component| is below 0.5 scaled up by
    the power of two that brings it into [0.5, 1); scaling up is exact."""
    exponents = np.minimum(np.frexp(np.abs(rows).max(axis=1))[1], 0)
    return np.ldexp(rows, -exponents[:, None])


def cosine(a: np.ndarray | Sequence[float], b: np.ndarray | Sequence[float]) -> float:
    """Cosine similarity of two equal-length vectors: the one-row ``row_cosines``.

    Raises ZeroNormError when either vector is all zeros, and NonFiniteError
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
