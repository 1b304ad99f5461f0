"""Small helpers for loaders that read UTF-8 text from a path or an open stream.

A loader's own error raised while it reads a source names that source once:
``<path>: line 3: ...``. The name is the path of a path source, or the
``name`` of an open file; other line sources go unnamed.
"""

from __future__ import annotations

import codecs
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
    a leading byte-order mark is dropped. Anything else is assumed to
    already iterate over lines and is not closed.
    An ``error`` raised in the block is prefixed with the source's name, and
    a byte that is not UTF-8 raises ``error`` naming the line.
    """
    if isinstance(source, (str, os.PathLike)):
        with naming(source, error), open(source, encoding="utf-8-sig") as handle:
            yield handle
    else:
        with naming(source, error):
            yield source


def read_text(path: str | os.PathLike, error: type[MweDetectError]) -> str:
    """The whole of a UTF-8 file, without a leading byte-order mark.

    A byte that is not UTF-8 raises ``error``.
    """
    with naming(path, error):
        return Path(path).read_text(encoding="utf-8-sig")


@contextlib.contextmanager
def naming(source: object, error: type[MweDetectError]) -> Iterator[None]:
    """Prefix an ``error`` raised in the block with the name of ``source``.

    A UnicodeDecodeError becomes ``error`` too. Text is decoded in chunks, so
    neither the error's offset nor a loader's line counter locates the bad
    byte. Only on this path, a named regular file's bytes are read again and
    the newlines before the first bad byte are counted.
    """
    if isinstance(source, (str, os.PathLike)):
        name = os.fspath(source)
    else:
        name = getattr(source, "name", None)
        name = name if isinstance(name, str) else None
    prefix = "" if name is None else f"{name}: "
    try:
        yield
    except UnicodeDecodeError as exc:
        where = "line unknown"  # no file to read again, or it no longer fails to decode
        if name is not None and os.path.isfile(name):
            found = _first_bad_byte(name)
            if found is not None:
                exc, lineno = found
                where = f"line {lineno}"
        bad = exc.object[exc.start : exc.start + 1].hex()
        raise error(f"{prefix}{where}: not UTF-8 ({exc.reason}, byte 0x{bad})") from None
    except error as exc:
        if name is None:
            raise
        raise error(f"{prefix}{exc}") from None


def _first_bad_byte(path: str) -> tuple[UnicodeDecodeError, int] | None:
    """The decode error at the first byte of ``path`` that is not UTF-8, and its line.

    The file is decoded in 1 MiB chunks, so memory stays flat however large
    it is; a character split between two chunks decodes as a whole. Lines
    are counted at ``\n``. None when the whole file decodes.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    newlines = 0
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            try:
                decoder.decode(chunk)
            except UnicodeDecodeError as exc:
                # exc.object is the undecoded tail of the last chunk, which
                # holds no newline, followed by this chunk.
                return exc, newlines + exc.object.count(b"\n", 0, exc.start) + 1
            newlines += chunk.count(b"\n")
        try:
            decoder.decode(b"", final=True)
        except UnicodeDecodeError as exc:  # the file ends inside a character
            return exc, newlines + 1
    return None
