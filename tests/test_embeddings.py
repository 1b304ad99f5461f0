"""Embedding file parsing and the vector algebra under it."""

from __future__ import annotations

import contextlib
import io
import os
import re
import signal
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mwedetect import embeddings
from mwedetect.cli import main
from mwedetect.embeddings import cosine, load_embeddings, row_cosines, row_dots
from mwedetect.errors import EmbeddingFormatError, NonFiniteError, ZeroNormError


class TestLoadEmbeddings:
    def test_parses_tokens_and_vectors(self, toy_table):
        assert toy_table.dimension == 4
        assert len(toy_table) == 16
        np.testing.assert_array_equal(toy_table.lookup("jet"), [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(toy_table.lookup("dog"), [-1.0, 1.0, 0.0, 0.0])

    def test_lookup_is_case_insensitive(self, toy_table):
        np.testing.assert_array_equal(toy_table.lookup("JET"), toy_table.lookup("jet"))
        assert "Jet" in toy_table

    def test_tokens_stored_lowercase(self):
        table = load_embeddings(["Felis 1 0", "CANIS 0 1"])
        assert sorted(table.index) == ["canis", "felis"]

    def test_missing_token_returns_none(self, toy_table):
        assert toy_table.lookup("zzz") is None
        assert "zzz" not in toy_table

    def test_vectors_are_read_only(self, toy_table):
        vec = toy_table.lookup("jet")
        with pytest.raises(ValueError):
            vec[0] = 99.0

    def test_blank_lines_skipped(self):
        table = load_embeddings(["a 1 0", "", "b 0 1", ""])
        assert len(table) == 2

    def test_crlf_line_endings(self):
        table = load_embeddings(["a 1 0\r\n", "b 0 1\r\n"])
        np.testing.assert_array_equal(table.lookup("a"), [1.0, 0.0])

    def test_first_duplicate_wins_and_is_recorded(self, caplog):
        with caplog.at_level("WARNING"):
            table = load_embeddings(["dup 1 0", "dup 2 0", "other 0 1"])
        np.testing.assert_array_equal(table.lookup("dup"), [1.0, 0.0])
        assert table.duplicate_tokens == ("dup",)
        assert any("duplicate" in record.message for record in caplog.records)

    def test_dimension_fixed_by_first_line(self):
        with pytest.raises(EmbeddingFormatError, match="line 2: expected 3 values, found 2"):
            load_embeddings(["a 1 2 3", "b 1 2"])

    def test_token_without_values(self):
        with pytest.raises(EmbeddingFormatError, match="line 1: token without values"):
            load_embeddings(["lonely"])

    def test_non_numeric_value(self):
        with pytest.raises(EmbeddingFormatError, match="line 2: non-numeric"):
            load_embeddings(["a 1 2", "b 1 x"])

    def test_double_space_rejected(self):
        # Two adjacent spaces produce an empty field, which is not a number.
        with pytest.raises(EmbeddingFormatError, match="line 1"):
            load_embeddings(["a 1  2"])

    def test_non_finite_value(self):
        with pytest.raises(EmbeddingFormatError, match="line 1: non-finite"):
            load_embeddings(["a 1 inf"])

    def test_empty_stream(self):
        with pytest.raises(EmbeddingFormatError, match="no entries"):
            load_embeddings([])

    @pytest.mark.parametrize("lines", [[""], ["\r\n"], ["\n", ""]])
    def test_blank_lines_only(self, lines):
        with pytest.raises(EmbeddingFormatError, match="^embedding source contains no entries$"):
            load_embeddings(lines)

    def test_zero_vector_loads(self):
        # A zero-norm entry is a parse-level success; it only fails at cosine time.
        table = load_embeddings(["zero 0 0", "one 1 0"])
        np.testing.assert_array_equal(table.lookup("zero"), [0.0, 0.0])

    def test_source_label_defaults_to_path(self, data_dir):
        table = load_embeddings(data_dir / "toy_embeddings.txt")
        assert table.source_label.endswith("toy_embeddings.txt")


    @pytest.mark.parametrize("token", ["a\u00a0b", "\x1c", "a\u2028", "\u3000x"])
    def test_unicode_whitespace_in_token_rejected(self, token):
        with pytest.raises(EmbeddingFormatError, match="^line 2: empty or whitespace token$"):
            load_embeddings(["a 1", f"{token} 1"])

    @pytest.mark.parametrize("value", ["1_0", "\uff11", "\u0661"])
    def test_python_only_float_spellings_rejected(self, value):
        # float() reads digit groups and non-ASCII digits; numpy's text reader does not.
        with pytest.raises(EmbeddingFormatError, match="line 2: non-numeric value"):
            load_embeddings(["a 1", f"b {value}"])

    def test_empty_value_field_rejected(self):
        with pytest.raises(EmbeddingFormatError, match=r"line 2: non-numeric value \(empty field\)"):
            load_embeddings(["a 1", "b "])

    def test_embedded_carriage_return_rejected(self):
        with pytest.raises(EmbeddingFormatError, match="line 2: non-numeric value"):
            load_embeddings(["a 1 2", "b 1\r2 3", "c 1 2"])

    def test_earlier_non_finite_line_beats_later_non_numeric_line(self):
        with pytest.raises(EmbeddingFormatError, match="^line 2: non-finite value$"):
            load_embeddings(["a 1 2", "b inf 2", "c 1 x"])

    def test_bad_value_in_block_beats_later_bad_token(self):
        with pytest.raises(EmbeddingFormatError, match="^line 2: non-numeric value"):
            load_embeddings(["a 1 2", "b 1 x", " 1 2"])


class TestMatrixReservation:
    def test_reserves_one_row_per_line_at_glove_widths(self, tmp_path):
        # GloVe prints about nine bytes a value; the reservation must follow
        # the lines, not the bytes.
        rng = np.random.default_rng(5)
        entries = [
            f"w{i} " + " ".join(f"{v:.6f}" for v in rng.uniform(-1, 1, 50)) for i in range(300)
        ]
        path = tmp_path / "glove.txt"
        path.write_text("300 50\n\n" + "\n".join(entries) + "\n", encoding="utf-8")
        # The header, the blank line and the entries; no row for a line after the last newline.
        assert sum(count for _, count in embeddings._line_ranges(str(path))) == len(entries) + 2
        table = load_embeddings(path)
        assert table.matrix.shape == (len(entries), 50)

    def test_last_line_without_newline_has_a_row(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("a 1\nb 2", encoding="utf-8")
        assert embeddings._line_ranges(str(path)) == [(0, 2)]
        assert len(load_embeddings(path)) == 2

    def test_lone_carriage_returns_are_counted(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_bytes(b"a 1\rb 2\rc 3\r")
        assert embeddings._line_ranges(str(path)) == [(0, 3)]
        table = load_embeddings(path)
        assert list(table.index) == ["a", "b", "c"]
        assert table.matrix.tobytes() == np.array([[1.0], [2.0], [3.0]]).tobytes()

    def test_undercounted_file_grows(self, tmp_path):
        # A file that grew after its lines were counted: with no later range
        # to stop at, its one range is read to the end and the matrix grows.
        lines = [f"w{i} {i} {-i}\n" for i in range(1, 6)]
        path = tmp_path / "e.txt"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embeddings, "BLOCK_LINES", 2)
            patch.setattr(embeddings, "_line_ranges", lambda path: [(0, 1)])
            table = load_embeddings(path)
        expected = load_embeddings(lines)
        assert list(table.index) == list(expected.index) == [f"w{i}" for i in range(1, 6)]
        assert table.matrix.tobytes() == expected.matrix.tobytes()

    def test_no_path_reserves_nothing(self):
        assert embeddings._line_ranges("") == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_path_grows_like_a_stream(self, tmp_path):
        lines = [f"w{i} {i} {-i}\n" for i in range(1, 12)]
        pipe = tmp_path / "embeddings.pipe"
        os.mkfifo(pipe)
        assert embeddings._line_ranges(str(pipe)) == []
        writer = threading.Thread(target=pipe.write_text, args=("".join(lines),), daemon=True)
        writer.start()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embeddings, "BLOCK_LINES", 2)
            table = load_embeddings(pipe)
        writer.join(timeout=10)
        expected = load_embeddings(lines)
        assert list(table.index) == list(expected.index)
        assert table.matrix.tobytes() == expected.matrix.tobytes()


class TestWord2vecHeader:
    def test_header_is_not_an_entry(self, data_dir):
        table = load_embeddings(data_dir / "word2vec_header.txt")
        assert table.dimension == 2
        assert list(table.index) == ["alpha", "beta", "gamma"]
        np.testing.assert_array_equal(table.lookup("gamma"), [0.5, -0.5])

    def test_one_dimensional_entry_that_looks_like_a_header(self, data_dir):
        # "2 3" is followed by lines of one value, not three: it is the entry "2".
        table = load_embeddings(data_dir / "glove_1d_header_like.txt")
        assert table.dimension == 1
        assert list(table.index) == ["2", "alpha", "beta"]
        np.testing.assert_array_equal(table.lookup("2"), [3.0])

    def test_wrong_entry_count_names_the_header(self, data_dir):
        path = data_dir / "word2vec_wrong_count.txt"
        expected = f"^{re.escape(str(path))}: line 1: header declares 4 entries, found 3$"
        with pytest.raises(EmbeddingFormatError, match=expected):
            load_embeddings(path)

    def test_single_line_file_is_an_entry(self):
        assert list(load_embeddings(["2 3"]).index) == ["2"]

    def test_blank_lines_and_crlf_after_header(self):
        table = load_embeddings(["2 2\r\n", "\r\n", "a 1 0\r\n", "", "b 0 1\r\n"])
        assert list(table.index) == ["a", "b"]

    def test_header_must_be_line_one(self):
        with pytest.raises(EmbeddingFormatError, match="line 3: expected 1 values, found 2"):
            load_embeddings(["", "2 2", "a 1 0", "b 0 1"])

    def test_header_fields_must_be_positive_integers(self):
        # A zero entry count or a non-integer is not a header, so "0 2" is an entry.
        with pytest.raises(EmbeddingFormatError, match="line 2: expected 1 values, found 2"):
            load_embeddings(["0 2", "a 1 0"])


_TOKENS = st.text(alphabet="abcAB\u00e9\u00df\u0130", min_size=1, max_size=3)
_FORMATS = (repr, "{:.6f}".format, "{:.3e}".format, "{:G}".format, lambda x: f"{x:+}")
_VALUES = st.tuples(
    # Bounded so that no format rounds a value up past the float64 range.
    st.floats(min_value=-1e300, max_value=1e300), st.sampled_from(_FORMATS)
).map(lambda drawn: drawn[1](drawn[0]))


@st.composite
def embedding_lines(draw, header=True, min_entries=1):
    """A well-formed embedding file as lines with their endings, and its entry lines."""
    dim = draw(st.integers(min_value=1, max_value=5))
    pool = draw(st.lists(_TOKENS, min_size=1, max_size=6))
    count = draw(st.integers(min_value=min_entries, max_value=14))
    entries = [
        " ".join([draw(st.sampled_from(pool))] + draw(st.lists(_VALUES, min_size=dim, max_size=dim)))
        for _ in range(count)
    ]
    body = []
    for entry in entries:
        body.extend([""] * draw(st.integers(min_value=0, max_value=2)))
        body.append(entry)
    if header and draw(st.booleans()):
        body.insert(0, f"{count} {dim}")
    endings = st.sampled_from(["\n", "\r\n"])
    return [line + draw(endings) for line in body], entries


def _reference_table(entries):
    """The parse of each line on its own, first occurrence kept."""
    table = {}
    duplicates = []
    for entry in entries:
        parts = entry.split(" ")
        token = parts[0].lower()
        if token in table:
            duplicates.append(token)
        else:
            table[token] = np.array(parts[1:], dtype=np.float64)
    return table, tuple(duplicates)


@contextlib.contextmanager
def _warnings_fail():
    """Turn every warning into an error, apart from the one Python 3.12 and
    later issue when a process with threads forks: the children only parse."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
        yield


@contextlib.contextmanager
def _list_and_path(lines):
    """``lines`` as both kinds of source: the list itself and a file holding them."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "embeddings.txt"
        path.write_text("".join(lines), encoding="utf-8", newline="")
        yield [lines, path]


class TestBlockParseProperties:
    @settings(max_examples=200, deadline=None)
    @given(embedding_lines(), st.integers(min_value=1, max_value=5))
    def test_matches_line_by_line_reference(self, drawn, block_lines):
        lines, entries = drawn
        expected, duplicates = _reference_table(entries)
        with pytest.MonkeyPatch.context() as patch, _list_and_path(lines) as sources:
            patch.setattr(embeddings, "BLOCK_LINES", block_lines)
            tables = [load_embeddings(source) for source in sources]
        for table in tables:
            assert table.dimension == len(entries[0].split(" ")) - 1
            assert table.duplicate_tokens == duplicates
            assert list(table.index) == list(expected)
            assert table.matrix.shape == (len(expected), table.dimension)
            for token, vector in expected.items():
                assert table.lookup(token).tobytes() == vector.tobytes()
                assert not table.lookup(token).flags.writeable

    @settings(max_examples=200, deadline=None)
    @given(
        # A bad line right after a header would make the header a 1-d entry.
        embedding_lines(header=False, min_entries=2),
        st.lists(
            st.tuples(
                st.integers(min_value=1),
                st.sampled_from(
                    ["token", "count", "no values", "double space", "non-numeric", "inf"]
                ),
            ),
            min_size=1,
            max_size=2,
        ),
        st.integers(min_value=1, max_value=5),
    )
    def test_error_names_first_bad_line(self, drawn, bad, block_lines):
        lines, entries = drawn
        contents = [line.rstrip("\r\n") for line in lines]
        # Entry lines after the first, which fixes the dimension, by line number.
        entry_linenos = [i for i, text in enumerate(contents, start=1) if text][1:]
        dim = len(entries[0].split(" ")) - 1
        problems = {}
        for position, kind in bad:
            lineno = entry_linenos[position % len(entry_linenos)]
            token, _, rest = contents[lineno - 1].partition(" ")
            values = rest.split(" ")
            if kind == "token":
                token, problems[lineno] = f"{token}\t{token}", "empty or whitespace token"
            elif kind == "count":
                values.append("1")
                problems[lineno] = f"expected {dim} values, found {dim + 1}"
            elif kind == "no values":
                values, problems[lineno] = [], "token without values"
            elif kind == "double space":
                values[-1] = " " + values[-1]
                problems[lineno] = f"expected {dim} values, found {dim + 1}"
            elif kind == "non-numeric":
                values[-1], problems[lineno] = "x" + values[-1], "non-numeric value"
            else:
                values[-1], problems[lineno] = "-inf", "non-finite value"
            lines[lineno - 1] = " ".join([token, *values]) + "\n"
        first = min(problems)
        with (
            pytest.MonkeyPatch.context() as patch,
            _list_and_path(lines) as sources,
            _warnings_fail(),
        ):
            patch.setattr(embeddings, "BLOCK_LINES", block_lines)
            for source in sources:
                with pytest.raises(EmbeddingFormatError) as caught:
                    load_embeddings(source)
                # A path source is named in front of the line.
                name = "" if isinstance(source, list) else f"{source}: "
                expected = f"{name}line {first}: {problems[first]}"
                assert re.match(re.escape(expected), str(caught.value))


def _see_cpus(patch, count):
    """Make the loader see ``count`` CPUs, so that it splits into up to that many ranges."""
    patch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _outcome(path):
    """What a load of ``path`` gives: its tokens, row bytes and duplicates, or its error."""
    try:
        table = load_embeddings(path)
    except EmbeddingFormatError as exc:
        return str(exc)
    return list(table.index), table.matrix.shape, table.matrix.tobytes(), table.duplicate_tokens


def _text_lines(data):
    """The lines text mode reads from ``data``: it ends them at \\n, \\r\\n and a lone \\r."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="latin-1").readlines()


def _is_utf8(data):
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


_FAULTS = st.sampled_from(
    ["token", "count", "no values", "double space", "non-numeric", "inf", "decode"]
)


@st.composite
def split_files(draw):
    """An embedding file's bytes: maybe a header, blank lines, every line end,
    duplicate tokens, and maybe format and decode faults."""
    lines, _ = draw(embedding_lines())
    contents = [line.rstrip("\r\n") for line in lines]
    for position, kind in draw(st.lists(st.tuples(st.integers(min_value=0), _FAULTS), max_size=2)):
        lineno = position % len(contents)
        token, _, rest = contents[lineno].partition(" ")
        if kind == "token":
            token = f"{token}\t{token}"
        elif kind == "count":
            rest += " 1"
        elif kind == "no values":
            rest = ""
        elif kind == "double space":
            rest = " " + rest
        elif kind == "non-numeric":
            rest = "x" + rest
        elif kind == "inf":
            rest = "-inf " + rest.partition(" ")[2] if " " in rest else "-inf"
        contents[lineno] = " ".join(filter(None, [token, rest]))
    data = [content.encode() for content in contents]
    for lineno in draw(st.lists(st.integers(min_value=0), max_size=1)):
        line = data[lineno % len(data)]
        cut = draw(st.integers(min_value=0, max_value=len(line)))
        bad = draw(st.sampled_from([b"\xff", b"\xe9", b"\xe2\x82"]))
        data[lineno % len(data)] = line[:cut] + bad + line[cut:]
    endings = [draw(st.sampled_from([b"\n", b"\r\n", b"\r"])) for _ in data]
    if draw(st.booleans()):
        endings[-1] = b""
    return b"".join(line + ending for line, ending in zip(data, endings))


class TestSplitLoadProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        split_files(), st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5)
    )
    def test_split_load_equals_one_range_load(self, data, cpus, block_lines):
        """A split load equals the one-range load of the same file, and the
        load of the same bytes as an unnamed stream, which names no file."""
        with (
            tempfile.TemporaryDirectory() as tmp,
            pytest.MonkeyPatch.context() as patch,
            _warnings_fail(),
        ):
            path = Path(tmp) / "embeddings.txt"
            path.write_bytes(data)
            patch.setattr(embeddings, "BLOCK_LINES", block_lines)
            _see_cpus(patch, 1)
            assert embeddings._line_ranges(str(path)) == [(0, len(_text_lines(data)))]
            one_range = _outcome(path)
            _see_cpus(patch, cpus)
            ranges = embeddings._line_ranges(str(path))
            split = _outcome(path)
            # An unnamed stream has no file to read again for the line of a
            # byte that is not UTF-8: it reports "line unknown".
            if _is_utf8(data):
                streamed = _outcome(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
                named = split.removeprefix(f"{path}: ") if isinstance(split, str) else split
                assert streamed == named
        assert split == one_range
        assert len(ranges) <= max(min(cpus, len(_text_lines(data)) // block_lines), 1)
        stops = [start for start, _ in ranges[1:]] + [len(data)]
        for (start, count), stop in zip(ranges, stops):
            # Each range starts after a newline and counts its lines as text mode does.
            assert start == 0 or data[start - 1 : start] == b"\n"
            assert count == len(_text_lines(data[start:stop]))

    def test_decode_fault_after_format_fault(self, tmp_path):
        # The one case where a split load may differ from a one-range load:
        # text is decoded ahead of the line being checked, and where a range
        # starts moves how far ahead. A file under 8 KiB is decoded whole at
        # the first read, so both loads name the bad byte on line 4 rather
        # than the line without values, line 2.
        path = tmp_path / "embeddings.txt"
        path.write_bytes(b"a 1\nb\nc 1\nd\xff 1\n")
        expected = f"{path}: line 4: not UTF-8 (invalid start byte, byte 0xff)"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embeddings, "BLOCK_LINES", 1)
            for cpus in (1, 2):
                _see_cpus(patch, cpus)
                assert len(embeddings._line_ranges(str(path))) == cpus
                assert _outcome(path) == expected

    @pytest.mark.parametrize(
        "bad_lineno, named, streamed",
        [
            # Past the decoder's 8 KiB read-ahead: line 1 is judged first.
            (501, "line 1: non-numeric value", "line 1: non-numeric value"),
            # Within it, the documented exception: the bad byte is named.
            (4, "line 4: not UTF-8", "line unknown: not UTF-8"),
        ],
    )
    def test_bad_byte_in_the_block_of_an_earlier_bad_line(
        self, tmp_path, capsys, bad_lineno, named, streamed
    ):
        # 2,100 lines, so that the file splits; line 1 and the bad byte are
        # both in the first block of 1,024 lines.
        lines = [b"w%d %d.25 -0.5 0.125 1e-3\n" % (i, i % 7) for i in range(1, 2101)]
        lines[0] = b"w1 x -0.5 0.125 1e-3\n"
        lines[bad_lineno - 1] = b"w\xe9" + lines[bad_lineno - 1][1:]
        assert (len(b"".join(lines[: bad_lineno - 1])) > 8192) == (bad_lineno == 501)
        path = tmp_path / "embeddings.txt"
        path.write_bytes(b"".join(lines))
        with pytest.MonkeyPatch.context() as patch:
            for cpus in (2, 1):
                _see_cpus(patch, cpus)
                assert len(embeddings._line_ranges(str(path))) == cpus
                assert _outcome(path).startswith(f"{path}: {named}")
        stream = io.TextIOWrapper(io.BytesIO(b"".join(lines)), encoding="utf-8")
        assert _outcome(stream).startswith(streamed)
        assert main(["score", "w1", "w2", "--method", "word", "--embeddings", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {named}")


class TestLineRanges:
    def test_range_starts_after_the_first_newline_at_or_after_its_share(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_bytes(b"".join(b"w%d %d\n" % (i, i) for i in range(8)))  # 5 bytes a line
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embeddings, "BLOCK_LINES", 1)
            _see_cpus(patch, 2)
            # Byte 20 starts line 5; the newline at byte 24 ends it.
            assert embeddings._line_ranges(str(path)) == [(0, 5), (25, 3)]
            _see_cpus(patch, 3)
            assert embeddings._line_ranges(str(path)) == [(0, 3), (15, 3), (30, 2)]

    def test_few_lines_take_one_range(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_bytes(b"a 1\n" * 7)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embeddings, "BLOCK_LINES", 4)
            _see_cpus(patch, 4)
            assert embeddings._line_ranges(str(path)) == [(0, 7)]

    def test_crlf_split_between_chunks_is_one_line_end(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_bytes(b"a" * ((1 << 20) - 1) + b"\r\nb\rc")
        with pytest.MonkeyPatch.context() as patch:
            _see_cpus(patch, 1)
            assert embeddings._line_ranges(str(path)) == [(0, 3)]


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="the loader splits files on Linux only"
)
class TestWorkerLifecycle:
    """Every forked child is reaped, whatever way the load ends."""

    @pytest.fixture
    def split_path(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embeddings, "BLOCK_LINES", 2)
        _see_cpus(monkeypatch, 3)
        path = tmp_path / "embeddings.txt"
        path.write_text("".join(f"w{i} {i} 1\n" for i in range(12)), encoding="utf-8")
        assert len(embeddings._line_ranges(str(path))) == 3
        return path

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_success(self, split_path):
        table = load_embeddings(split_path)
        assert list(table.index) == [f"w{i}" for i in range(12)]
        assert table.matrix.tobytes() == np.array([[i, 1.0] for i in range(12)]).tobytes()
        self.assert_no_child_left()

    @pytest.mark.parametrize("part", [0, 1, 2])
    def test_failure_in_each_range(self, split_path, part):
        ranges = embeddings._line_ranges(str(split_path))
        lineno = sum(count for _, count in ranges[:part]) + 1
        lines = split_path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[lineno - 1] = lines[lineno - 1].replace(" 1\n", " x\n")  # same length, same ranges
        split_path.write_text("".join(lines), encoding="utf-8")
        expected = f"^{re.escape(str(split_path))}: line {lineno}: non-numeric"
        with pytest.raises(EmbeddingFormatError, match=expected):
            load_embeddings(split_path)
        self.assert_no_child_left()

    def test_exception_in_the_merge(self, split_path, monkeypatch):
        def broken(*args):
            raise RuntimeError("merge failed")

        monkeypatch.setattr(embeddings, "_first_wins", broken)
        with pytest.raises(RuntimeError, match="merge failed"):
            load_embeddings(split_path)
        self.assert_no_child_left()

    def test_interrupt_while_children_run(self, split_path, monkeypatch):
        parent = os.getpid()
        read_entries = embeddings._read_entries

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # the parent must kill the child, not wait for it
            return read_entries(*args)

        monkeypatch.setattr(embeddings, "_read_entries", interrupted)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            load_embeddings(split_path)
        assert time.monotonic() - started < 30
        self.assert_no_child_left()

    def test_killed_child_is_a_child_process_error_naming_the_file(
        self, split_path, monkeypatch, capsys
    ):
        parent = os.getpid()
        parse_rows = embeddings._parse_rows

        def killed(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return parse_rows(*args)

        monkeypatch.setattr(embeddings, "_parse_rows", killed)
        with pytest.raises(ChildProcessError, match=f"^{re.escape(str(split_path))}: "):
            load_embeddings(split_path)
        self.assert_no_child_left()
        # As an OSError it ends the command line with exit 1.
        assert main(["score", "w1", "w2", "--method", "word", "--embeddings", str(split_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {split_path}: ")
        self.assert_no_child_left()


class TestCosine:
    def test_known_value(self):
        # (1,2,2)·(2,1,2) = 8, both norms 3, so cosine is exactly 8/9.
        assert cosine([1.0, 2.0, 2.0], [2.0, 1.0, 2.0]) == 8.0 / 9.0

    def test_orthogonal_is_zero(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_identical_is_exactly_one(self):
        assert cosine([0.0, 1.0, 0.2, 0.0], [0.0, 1.0, 0.2, 0.0]) == 1.0

    def test_parallel_is_one(self):
        assert cosine([1.0, 0.0], [2.0, 0.0]) == 1.0

    def test_opposite_is_minus_one(self):
        assert cosine([1.0, 0.0], [-3.0, 0.0]) == -1.0

    def test_zero_norm_raises(self):
        with pytest.raises(ZeroNormError):
            cosine([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ZeroNormError):
            cosine([1.0, 0.0], [0.0, 0.0])

    def test_tiny_vectors_are_not_zero_norm(self):
        assert cosine([1e-170, 0.0], [1.0, 0.0]) == 1.0
        assert cosine(0.03125 * np.array([2.6074556e-158, 0.0]), [1.0, 0.0]) == 1.0
        assert cosine([5e-324, 0.0], [0.0, 5e-324]) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length mismatch"):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_overflow_raises_instead_of_scoring(self):
        # inf / inf is NaN, which a bare clamp would turn into 1.0.
        with pytest.raises(NonFiniteError):
            cosine([np.inf, 2.0], [1.0, -1.0])
        # The squared norm overflows although every component is finite.
        with pytest.raises(NonFiniteError):
            cosine([1e200, 1.0], [1.0, -1.0])


class TestRowKernel:
    @pytest.mark.parametrize("dim", [1, 3, 100, 301])
    def test_bit_identical_to_scalar_formula(self, dim):
        rng = np.random.default_rng(dim)
        u = rng.standard_normal((64, dim))
        v = rng.standard_normal((64, dim))
        dots = row_dots(u, v)
        norms = np.sqrt(row_dots(u, u))
        for i in range(len(u)):
            assert dots[i].tobytes() == np.dot(u[i], v[i]).tobytes()
            assert norms[i].tobytes() == np.linalg.norm(u[i]).tobytes()

    def test_rows_follow_the_cosine_rules(self):
        u = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 1.0], [np.inf, 1.0], [1.0, 0.0]])
        v = np.array([[2.0, 1.0], [1.0, 0.0], [3.0, 1.0], [1.0, 1.0], [-3.0, 0.0]])
        values, zero_norm = row_cosines(u, v)
        assert zero_norm.tolist() == [False, True, False, False, False]
        assert values[0] == cosine(u[0], v[0])
        assert np.isnan(values[1]) and np.isnan(values[3])
        assert values[2] == 1.0
        assert values[4] == -1.0


@st.composite
def vector_pairs(draw):
    dim = draw(st.integers(min_value=2, max_value=16))
    elems = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    a = draw(st.lists(elems, min_size=dim, max_size=dim))
    b = draw(st.lists(elems, min_size=dim, max_size=dim))
    return np.array(a), np.array(b)


def _nonzero(v: np.ndarray) -> bool:
    return bool(np.any(v))


class TestCosineProperties:
    @given(vector_pairs())
    def test_symmetry(self, pair):
        a, b = pair
        if not (_nonzero(a) and _nonzero(b)):
            return
        assert cosine(a, b) == cosine(b, a)

    # Its squared norm underflows to 0; the vector is not zero.
    @example(pair=(np.array([1e-170, 0.0]), np.array([1.0, 0.0])))
    @given(vector_pairs())
    def test_range(self, pair):
        a, b = pair
        if not (_nonzero(a) and _nonzero(b)):
            return
        assert -1.0 <= cosine(a, b) <= 1.0

    # The squared norm of the scaled vector is subnormal and loses bits.
    @example(pair=(np.array([2.6074556e-158, 0.0]), np.array([1.0, 0.0])), scale=0.03125)
    @given(vector_pairs(), st.floats(min_value=1e-3, max_value=1e3))
    def test_positive_scale_invariance(self, pair, scale):
        a, b = pair
        if not (_nonzero(a) and _nonzero(b) and _nonzero(scale * a)):
            return
        assert cosine(scale * a, b) == pytest.approx(cosine(a, b), abs=1e-9)

    @given(vector_pairs())
    def test_self_similarity(self, pair):
        a, _ = pair
        if not _nonzero(a):
            return
        assert cosine(a, a) == 1.0
