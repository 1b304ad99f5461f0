"""Loader errors are typed and name the file: undecodable bytes and format errors."""

from __future__ import annotations

import codecs
import io
import os
import re
import shutil
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from mwedetect import _io
from mwedetect._io import Worker
from mwedetect.cli import main
from mwedetect.corpus import count_corpus, read_corpus
from mwedetect.definitions import load_definitions, load_stopwords
from mwedetect.embeddings import load_embeddings
from mwedetect.errors import (
    ConfigError,
    CorpusError,
    DatasetError,
    EmbeddingFormatError,
    LexiconFormatError,
)
from mwedetect.pipeline import load_compounds, load_config

# Each loader, its error type, and a valid line for line number i; the bad
# line is the valid one with its first "w" spelled "caf\xe9".
LOADERS = {
    "corpus": (read_corpus, CorpusError, lambda i: f"w{i} text here"),
    "counts": (count_corpus, CorpusError, lambda i: f"w{i} text here"),
    "embeddings": (load_embeddings, EmbeddingFormatError, lambda i: f"w{i} 1 0"),
    "definitions": (load_definitions, LexiconFormatError, lambda i: f"w{i}\tsome text"),
    "stopwords": (load_stopwords, LexiconFormatError, lambda i: f"w{i}"),
    "compounds": (load_compounds, DatasetError, lambda i: "c1,c2" if i == 1 else f"w{i},x{i}"),
    "config": (load_config, ConfigError, lambda i: f"# w{i} comment"),
}


def _write_bad_file(path, line_of, bad_line: int) -> None:
    lines = [line_of(i).encode() for i in range(1, bad_line + 2)]
    lines[bad_line - 1] = lines[bad_line - 1].replace(b"w", b"caf\xe9", 1)
    path.write_bytes(b"\n".join(lines) + b"\n")


@pytest.mark.parametrize("name", LOADERS)
# Line 2 lies in the first chunk a text file decodes; line 3000 lies past
# it, where a loader's own line counter would be wrong.
@pytest.mark.parametrize("bad_line", [2, 3000])
def test_loader_names_path_and_line(tmp_path, name, bad_line):
    loader, error, line_of = LOADERS[name]
    path = tmp_path / f"{name}.txt"
    _write_bad_file(path, line_of, bad_line)
    expected = f"^{re.escape(str(path))}: line {bad_line}: not UTF-8 .*byte 0xe9"
    with pytest.raises(error, match=expected):
        loader(path)


# Each loader's valid text, and the part of its result that a test compares.
BOM_CASES = {
    "corpus": ("jet lag\n", lambda tokens: tokens),
    "counts": ("jet lag\n", lambda counts: (counts.vocabulary, counts.codes.tobytes())),
    "embeddings": ("jet 1 0\nlag 0 1\n", lambda table: (table.index, table.matrix.tobytes())),
    "definitions": ("jet\ta jet\n", lambda lexicon: lexicon.definitions),
    "stopwords": ("the\n", lambda words: words),
    "compounds": ("c1,c2\njet,lag\n", lambda pairs: pairs),
    "config": (
        "".join(
            f"{key} = {key}.txt\n"
            for key in ("embeddings", "compounds", "corpus", "definitions", "stopwords")
        ),
        lambda config: config,
    ),
}


@pytest.mark.parametrize("name", LOADERS)
def test_leading_byte_order_mark_is_not_text(tmp_path, name):
    loader = LOADERS[name][0]
    text, view = BOM_CASES[name]
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(codecs.BOM_UTF8)
    assert view(loader(marked)) == view(loader(plain))


@pytest.mark.parametrize("name", LOADERS)
def test_byte_order_mark_leaves_decode_error_line(tmp_path, name):
    loader, error, line_of = LOADERS[name]
    path = tmp_path / f"{name}.txt"
    _write_bad_file(path, line_of, 3)
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    with pytest.raises(error, match=f"^{re.escape(str(path))}: line 3: not UTF-8 .*byte 0xe9"):
        loader(path)


def test_score_reads_embeddings_with_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.txt"
    path.write_bytes(codecs.BOM_UTF8 + b"jet 1 0 0 0\nlag 1 1 0 0\n")
    assert main(["score", "jet", "lag", "--method", "word", "--embeddings", str(path)]) == 0
    assert capsys.readouterr().out == "0.707107\n"


def test_bad_file_in_corpus_directory_is_named(tmp_path):
    (tmp_path / "a.txt").write_text("good words\n", encoding="utf-8")
    (tmp_path / "b.txt").write_bytes(b"more words\nstill fine\ncaf\xe9\n")
    expected = f"^{re.escape(str(tmp_path / 'b.txt'))}: line 3: not UTF-8"
    with pytest.raises(CorpusError, match=expected):
        read_corpus(tmp_path)


def test_truncated_character_at_end_of_file(tmp_path):
    path = tmp_path / "stopwords.txt"
    path.write_bytes(b"the\na\n\xe2\x82")
    with pytest.raises(LexiconFormatError, match=r": line 3: not UTF-8 \(unexpected end of data"):
        load_stopwords(path)


def test_bad_byte_past_the_first_mebibyte(tmp_path):
    # The line of the bad byte is found by decoding the file in 1 MiB chunks.
    lines = [b"w%07d" % i for i in range(200_000)]
    lines[150_000] = b"caf\xe9"
    path = tmp_path / "stopwords.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert path.stat().st_size > 1 << 20
    expected = r": line 150001: not UTF-8 \(invalid continuation byte, byte 0xe9\)$"
    with pytest.raises(LexiconFormatError, match=expected):
        load_stopwords(path)


def test_character_split_between_chunks_decodes(tmp_path):
    # "€" is three bytes; the first two end the first 1 MiB chunk.
    head = b"a\n" * ((1 << 20) // 2 - 1) + b"\xe2"
    path = tmp_path / "stopwords.txt"
    path.write_bytes(head + b"\x82\xac\nok\nnot\xff\n")
    assert len(head) == (1 << 20) - 1
    lineno = head.count(b"\n") + 3
    expected = rf": line {lineno}: not UTF-8 \(invalid start byte, byte 0xff\)$"
    with pytest.raises(LexiconFormatError, match=expected):
        load_stopwords(path)


def test_lone_carriage_returns_end_lines(tmp_path):
    # Text mode ends a line at a lone \r, so the decode error and a format
    # error on the same line name the same line.
    path = tmp_path / "embeddings.txt"
    path.write_bytes(b"a 1\rb 2\rc\xff 3\r")
    with pytest.raises(EmbeddingFormatError, match=r": line 3: not UTF-8 .*byte 0xff\)$"):
        load_embeddings(path)
    path.write_bytes(b"a 1\rb 2\rc 3 4\r")
    with pytest.raises(EmbeddingFormatError, match=r": line 3: expected 1 values, found 2$"):
        load_embeddings(path)


def test_crlf_split_between_chunks_ends_one_line(tmp_path):
    # The \r of one \r\n ends the first 1 MiB chunk and its \n starts the next.
    head = b"a" + b"ab\r\n" * ((1 << 20) // 4 - 1) + b"ab\r"
    assert len(head) == 1 << 20
    path = tmp_path / "stopwords.txt"
    path.write_bytes(head + b"\nok\rnot\xff\r\n")
    with open(path, encoding="latin-1") as handle:
        lineno = next(i for i, line in enumerate(handle, start=1) if "\xff" in line)
    assert lineno == head.count(b"\r") + 2
    expected = rf": line {lineno}: not UTF-8 \(invalid start byte, byte 0xff\)$"
    with pytest.raises(LexiconFormatError, match=expected):
        load_stopwords(path)


def _text_mode_lines(data: bytes) -> list[str]:
    """The lines that text mode reads from ``data``."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").readlines()


@given(
    st.lists(st.sampled_from([b"a", b"\n", b"\r", b"\r\n"]), max_size=30).map(b"".join),
    st.data(),
)
def test_count_lines_counts_the_lines_text_mode_reads(data, draw):
    handle = io.BytesIO(data)
    start = draw.draw(st.integers(min_value=0, max_value=len(data)), label="start")
    # Reads of a byte or two split every \r\n that can be split.
    chunk = draw.draw(st.sampled_from([1, 2, 3, _io._CHUNK_BYTES]), label="chunk bytes")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_io, "_CHUNK_BYTES", chunk)
        for stop in range(start, len(data) + 1):
            expected = len(_text_mode_lines(data[start:stop]))
            assert _io.count_lines(handle, start, stop) == expected


def test_count_lines_counts_a_crlf_split_between_chunks_once():
    # The \r ends the first read and its \n starts the second.
    chunk = _io._CHUNK_BYTES
    data = b"a\n" * (chunk // 2 - 1) + b"a\r\nb\rc"
    assert data[chunk - 1 : chunk + 1] == b"\r\n"
    assert _io.count_lines(io.BytesIO(data), 0, len(data)) == len(_text_mode_lines(data))


# Text, line ends, and bytes that are not UTF-8: bad ones, and a character
# cut short.
_DECODE_PIECES = [b"a", b"\n", b"\r", b"\r\n", "\xe9\u20ac".encode(), b"\xff", b"\xe9", b"\xe2\x82"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_DECODE_PIECES), max_size=20).map(b"".join))
def test_decode_error_names_the_line_of_the_bad_byte(data):
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = exc.start
    else:
        bad = None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.txt")
        with open(path, "wb") as handle:
            handle.write(data)
        found = _io._first_bad_byte(path)
    if bad is None:
        assert found is None
    else:
        ends = sum(line.endswith("\n") for line in _text_mode_lines(data[:bad]))
        assert found[1] == 1 + ends


def test_scan_exits_one_naming_the_corpus_line(tmp_path, data_dir, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(b"jet lag\ncaf\xe9 jet lag\n")
    code = main(
        ["scan", "--corpus", str(corpus), "--embeddings", str(data_dir / "toy_embeddings.txt"),
         "--method", "word", "--threshold", "0.5"]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {corpus}: line 2: not UTF-8")


def test_run_exits_one_naming_the_corpus_line(tmp_path, data_dir, capsys):
    for source in data_dir.iterdir():
        shutil.copy(source, tmp_path)
    corpus = tmp_path / "toy_corpus.txt"
    corpus.write_bytes(b"jet lag\ncaf\xe9 jet lag\n")
    assert main(["run", str(tmp_path / "experiment.conf"), "--output-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {corpus.resolve()}: line 2: not UTF-8")


def test_run_exits_one_naming_the_config_line(tmp_path, capsys):
    config = tmp_path / "experiment.conf"
    config.write_bytes(b"# settings\nsample_seed = 1\ncorpus = caf\xe9.txt\n")
    assert main(["run", str(config)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {config}: line 3: not UTF-8")


# The loaders that also read a pre-opened stream.
STREAM_LOADERS = ["embeddings", "definitions", "stopwords", "compounds"]


@pytest.mark.parametrize("name", STREAM_LOADERS)
@pytest.mark.parametrize("bad_line", [2, 3000])
def test_open_file_names_its_path_and_line(tmp_path, name, bad_line):
    loader, error, line_of = LOADERS[name]
    path = tmp_path / f"{name}.txt"
    _write_bad_file(path, line_of, bad_line)
    expected = f"^{re.escape(str(path))}: line {bad_line}: not UTF-8 .*byte 0xe9"
    with open(path, encoding="utf-8") as handle, pytest.raises(error, match=expected):
        loader(handle)


@pytest.mark.parametrize("name", STREAM_LOADERS)
def test_unnamed_stream_raises_typed_error(name):
    loader, error, line_of = LOADERS[name]
    data = f"{line_of(1)}\n{line_of(2)}\n".replace("w", "caf\xe9", 1).encode("latin-1")
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    with pytest.raises(error, match=r"^line unknown: not UTF-8 \(.*byte 0xe9\)$"):
        loader(stream)


def test_format_error_in_open_file_names_its_path(tmp_path):
    path = tmp_path / "definitions.tsv"
    path.write_text("jet\ta jet\nno tab here\n", encoding="utf-8")
    with open(path, encoding="utf-8") as handle, pytest.raises(LexiconFormatError) as caught:
        load_definitions(handle)
    assert str(caught.value) == f"{path}: line 2: expected `lexeme<TAB>definition`"


def _score_argv(d):
    return ["score", "jet", "lag", "--method", "definition-content",
            "--embeddings", f"{d}/toy_embeddings.txt", "--definitions", f"{d}/toy_definitions.tsv",
            "--stopwords", f"{d}/stopwords.txt"]


# A file of tests/data, the text that breaks it, the command that reads it,
# and the message after the file's path.
FORMAT_ERRORS = {
    "embeddings": ("toy_embeddings.txt", "jet 1 0 0 0\nlag 1 x 0 0\n", _score_argv,
                   "line 2: non-numeric value"),
    "definitions": ("toy_definitions.tsv", "jet\ta jet\nno tab here\n", _score_argv,
                    "line 2: expected `lexeme<TAB>definition`"),
    "stopwords": ("stopwords.txt", "the\ntwo words\n", _score_argv,
                  "line 2: stop word contains whitespace: 'two words'"),
    "compounds": ("compounds.csv", "c1,c2\njet,lag\nhome,\n",
                  lambda d: ["run", f"{d}/experiment.conf", "--output-dir", f"{d}/out"],
                  "compound CSV row 3: empty constituent"),
    "config": ("experiment.conf", "# settings\nseed = 1\n",
               lambda d: ["run", f"{d}/experiment.conf", "--output-dir", f"{d}/out"],
               "config line 2: unknown key 'seed'"),
}


@pytest.mark.parametrize("name", FORMAT_ERRORS)
def test_cli_format_error_names_the_file(tmp_path, data_dir, capsys, name):
    file, text, argv, message = FORMAT_ERRORS[name]
    for source in data_dir.iterdir():
        shutil.copy(source, tmp_path)
    (tmp_path / file).write_text(text, encoding="utf-8")
    assert main(argv(tmp_path.resolve())) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path.resolve() / file}: {message}")
    assert err.count(file) == 1


def _is_open(fd: int) -> bool:
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers fork only where os.fork exists")
def test_a_worker_holds_no_other_workers_pipe_end():
    with Worker("first", time.sleep, 60):
        readers = set(_io._READERS)
        assert readers and all(_is_open(fd) for fd in readers)
        with Worker("second", lambda: [fd for fd in readers if _is_open(fd)]) as second:
            assert second.result() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not _io._READERS and all(not _is_open(fd) for fd in readers)
