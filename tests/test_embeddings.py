"""Embedding file parsing and the vector algebra under it."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mwedetect.embeddings import cosine, load_embeddings, row_cosines, row_dots, vector_sum
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
        assert sorted(table.entries) == ["canis", "felis"]

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


class TestVectorSum:
    def test_exact_sum(self):
        total = vector_sum([np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])])
        np.testing.assert_array_equal(total, [9.0, 12.0])

    def test_single_vector_identity(self):
        np.testing.assert_array_equal(vector_sum([np.array([1.5, -2.5])]), [1.5, -2.5])

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            vector_sum([])

    def test_length_mismatch_names_position(self):
        vectors = [np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.array([1.0])]
        with pytest.raises(ValueError, match="position 2"):
            vector_sum(vectors)

    def test_left_to_right_determinism(self):
        # Floating-point addition is order-sensitive; a fixed input order must
        # always give bit-identical output.
        rng = np.random.default_rng(3)
        vectors = [rng.uniform(-1, 1, size=8) for _ in range(50)]
        first = vector_sum(vectors)
        second = vector_sum(vectors)
        assert first.tobytes() == second.tobytes()

    def test_does_not_mutate_inputs(self):
        first = np.array([1.0, 2.0])
        second = np.array([3.0, 4.0])
        vector_sum([first, second])
        np.testing.assert_array_equal(first, [1.0, 2.0])
