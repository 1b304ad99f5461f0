"""Small helpers for loaders: UTF-8 text from a path or an open stream, and
work done in a forked child.

A loader's own error raised while it reads a source names that source once:
``<path>: line 3: ...``. The name is the path of a path source, or the
``name`` of an open file; other line sources go unnamed.
"""

from __future__ import annotations

import codecs
import contextlib
import functools
import os
import pickle
import signal
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import Any, BinaryIO, NoReturn

import numpy as np

from .errors import MweDetectError

# The read end of each running worker's pipe; a newly forked child closes them.
_READERS: set[int] = set()

# The bytes ``count_lines`` reads at a time.
_CHUNK_BYTES = 1 << 22


class Worker:
    """``fn(*args)`` run in a forked child while the ``with`` block runs.

    ``result()`` waits for the child and returns the call's value, or raises
    the exception the call raised. Leaving the block first, by an error or
    an interrupt, kills the child; either way it is reaped. A child that
    ends without a result, killed by a signal for instance, raises
    ChildProcessError: ``"<what> ended without a result"``. The child holds
    no other worker's pipe end, and it leaves only through ``os._exit``.
    Only the embeddings loader forks workers, and only where
    ``os.sched_getaffinity`` exists, so ``os.fork`` does too.
    """

    def __init__(self, what: str, fn: Callable[..., Any], *args: Any) -> None:
        self._what = what
        self._call = functools.partial(fn, *args)
        self._pid: int | None = None
        self._reader = -1

    def __enter__(self) -> Worker:
        reader, writer = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(reader)
            os.close(writer)
            raise
        if pid == 0:
            _child(reader, writer, self._call)
        os.close(writer)
        self._pid, self._reader = pid, reader
        _READERS.add(reader)
        return self

    def result(self) -> Any:
        reader, self._reader = self._reader, -1
        _READERS.discard(reader)
        with open(reader, "rb") as pipe:
            data = pipe.read()
        status = os.waitpid(self._pid, 0)[1]
        self._pid = None
        if os.waitstatus_to_exitcode(status) != 0 or not data:
            raise ChildProcessError(f"{self._what} ended without a result")
        value, error = pickle.loads(data)
        if error is not None:
            raise error
        return value

    def __exit__(self, *exc_info: object) -> None:
        if self._reader >= 0:
            _READERS.discard(self._reader)
            os.close(self._reader)
            self._reader = -1
        if self._pid is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None


def _child(reader: int, writer: int, call: Callable[[], Any]) -> NoReturn:
    """The whole life of a forked worker: make ``call`` and pickle its value
    or its exception to ``writer``; exit with status 0 once that is sent."""
    status = 1
    try:
        for fd in (reader, *_READERS):
            os.close(fd)
        try:
            result = (call(), None)
        except BaseException as exc:  # the parent raises it again
            result = (None, exc)
        with open(writer, "wb") as pipe:
            pickle.dump(result, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


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
    byte. Only on this path, a named regular file's bytes are read again,
    and ``count_lines`` gives the line of the first bad byte.
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
    it is; a character split between two chunks decodes as a whole. None
    when the whole file decodes.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    read = 0
    with open(path, "rb") as handle:
        try:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                read += len(chunk)
                decoder.decode(chunk)
            decoder.decode(b"", final=True)  # the file may end inside a character
        except UnicodeDecodeError as exc:
            # exc.object is the undecoded tail of the bytes read so far. The
            # bad byte is no line end, so it ends the last line counted.
            offset = read - len(exc.object) + exc.start
            return exc, count_lines(handle, 0, offset + 1)
    return None


def count_lines(handle: BinaryIO, start: int, stop: int) -> int:
    """The lines in bytes ``start`` to ``stop`` of ``handle``, as text mode reads them.

    A line ends at ``\\n``, ``\\r\\n`` or a lone ``\\r``, and bytes after the
    last line end are one more line. The bytes are read into one reused
    buffer of ``_CHUNK_BYTES`` and counted with numpy; a ``\\r\\n`` split
    between two reads ends one line.
    """
    handle.seek(start)
    buffer = bytearray(max(min(_CHUNK_BYTES, stop - start), 0))
    is_end = np.empty(len(buffer), dtype=bool)
    count = 0
    last = ord("\n")
    while start < stop and (read := handle.readinto(memoryview(buffer)[: stop - start])):
        start += read
        chunk = np.frombuffer(buffer, dtype=np.uint8, count=read)
        count += np.count_nonzero(np.equal(chunk, ord("\n"), out=is_end[:read]))
        # Most files hold no \r, and one scan for it spares them two more
        # passes. Counted so, the lines of a 128 MB, 150k-line embeddings
        # file took 0.052 s, against 0.081 s with bytes.count over 1 MiB
        # reads (2 CPUs, Python 3.11.7, numpy 2.4.6).
        if buffer.find(b"\r", 0, read) >= 0:
            lone = np.equal(chunk[:-1], ord("\r"), out=is_end[: read - 1])
            lone &= chunk[1:] != ord("\n")
            count += np.count_nonzero(lone) + (buffer[read - 1] == ord("\r"))
        if last == ord("\r") and buffer[0] == ord("\n"):
            count -= 1  # counted once at the \r, and once more at this \n
        last = buffer[read - 1]
    return int(count) + (last not in (ord("\n"), ord("\r")))
