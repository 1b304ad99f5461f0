"""Embedding file parsing and the vector algebra under it."""

from __future__ import annotations

import contextlib
import os
import re
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mwedetect import embeddings
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
        assert embeddings._reserved_rows(str(path)) == len(entries) + 3
        table = load_embeddings(path)
        assert table.matrix.shape == (len(entries), 50)

    def test_last_line_without_newline_has_a_row(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("a 1\nb 2", encoding="utf-8")
        assert embeddings._reserved_rows(str(path)) == 2
        assert len(load_embeddings(path)) == 2

    def test_lone_carriage_returns_outgrow_the_reservation(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_bytes(b"a 1\rb 2\rc 3\r")
        assert embeddings._reserved_rows(str(path)) == 1
        table = load_embeddings(path)
        assert list(table.index) == ["a", "b", "c"]
        assert table.matrix.tobytes() == np.array([[1.0], [2.0], [3.0]]).tobytes()

    def test_no_path_reserves_nothing(self):
        assert embeddings._reserved_rows("") == 0

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_path_grows_like_a_stream(self, tmp_path):
        lines = [f"w{i} {i} {-i}\n" for i in range(1, 12)]
        pipe = tmp_path / "embeddings.pipe"
        os.mkfifo(pipe)
        assert embeddings._reserved_rows(str(pipe)) == 0
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
                st.sampled_from(["token", "count", "non-numeric", "inf"]),
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
            elif kind == "non-numeric":
                values[-1], problems[lineno] = "x" + values[-1], "non-numeric value"
            else:
                values[-1], problems[lineno] = "-inf", "non-finite value"
            lines[lineno - 1] = " ".join([token, *values]) + "\n"
        first = min(problems)
        with pytest.MonkeyPatch.context() as patch, _list_and_path(lines) as sources:
            patch.setattr(embeddings, "BLOCK_LINES", block_lines)
            for source in sources:
                with pytest.raises(EmbeddingFormatError) as caught:
                    load_embeddings(source)
                # A path source is named in front of the line.
                name = "" if isinstance(source, list) else f"{source}: "
                expected = f"{name}line {first}: {problems[first]}"
                assert re.match(re.escape(expected), str(caught.value))


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
    return float(np.linalg.norm(v)) > 0.0


class TestCosineProperties:
    @given(vector_pairs())
    def test_symmetry(self, pair):
        a, b = pair
        if not (_nonzero(a) and _nonzero(b)):
            return
        assert cosine(a, b) == cosine(b, a)

    @given(vector_pairs())
    def test_range(self, pair):
        a, b = pair
        if not (_nonzero(a) and _nonzero(b)):
            return
        assert -1.0 <= cosine(a, b) <= 1.0

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
