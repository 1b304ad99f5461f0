"""Small helpers for loaders that read UTF-8 text from a path or an open stream."""

from __future__ import annotations

import contextlib
import os
from collections.abc import Iterable, Iterator
from pathlib import Path

from .errors import MweDetectError


@contextlib.contextmanager
def text_lines(
    source: str | os.PathLike | Iterable[str], error: type[MweDetectError]
) -> Iterator[Iterable[str]]:
    """Yield an iterable of lines from a path or a pre-opened line source.

    Strings and PathLikes are treated as file system paths and opened UTF-8;
    a byte that is not UTF-8 raises ``error`` naming the path and the line.
    Anything else is assumed to already iterate over lines and is not closed.
    """
    if isinstance(source, (str, os.PathLike)):
        with decoding(source, error), open(source, encoding="utf-8") as handle:
            yield handle
    else:
        yield source


def read_text(path: str | os.PathLike, error: type[MweDetectError]) -> str:
    """The whole of a UTF-8 file; a byte that is not UTF-8 raises ``error``."""
    with decoding(path, error):
        return Path(path).read_text(encoding="utf-8")


@contextlib.contextmanager
def decoding(path: str | os.PathLike, error: type[MweDetectError]) -> Iterator[None]:
    """Turn a UnicodeDecodeError raised while reading ``path`` into ``error``.

    Text is decoded in chunks, so neither the error's offset nor a loader's
    line counter locates the bad byte. Only on this path, the file's bytes
    are read again and the newlines before the first bad byte are counted.
    """
    try:
        yield
    except UnicodeDecodeError as exc:
        data = Path(path).read_bytes()
        where = "line unknown"  # the file no longer fails to decode
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as first:
            exc = first
            lineno = data.count(b"\n", 0, first.start) + 1
            where = f"line {lineno}"
        bad = exc.object[exc.start : exc.start + 1].hex()
        raise error(f"{os.fspath(path)}: {where}: not UTF-8 ({exc.reason}, byte 0x{bad})") from None
