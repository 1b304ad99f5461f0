from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from mwedetect.definitions import load_definitions, load_stopwords
from mwedetect.embeddings import EmbeddingTable, load_embeddings

DATA_DIR = Path(__file__).parent / "data"


def alphabetic_token(prefix: str, i: int) -> str:
    """A distinct alphabetic token for each ``i``: ``prefix``, then its decimal digits as letters."""
    return prefix + "".join(chr(ord("a") + int(digit)) for digit in str(i))


def score_arrays(scored) -> tuple[np.ndarray, np.ndarray]:
    """The value and positive-flag arrays that ``evaluate`` takes, from
    (is_positive, ScoreOutcome) pairs: an unscorable outcome's value is NaN."""
    values = np.array([np.nan if o.value is None else o.value for _, o in scored], dtype=np.float64)
    positive = np.array([is_positive for is_positive, _ in scored], dtype=bool)
    return values, positive


def assert_same_split(first, second) -> None:
    """Fail unless two ``ExperimentResult``s drew the same pairs from the
    same sources, split them alike and kept the same values and reasons."""
    assert first.pairs == second.pairs
    assert np.array_equal(first.sources, second.sources)
    assert np.array_equal(first.calibration, second.calibration)
    for kept in ("values", "reasons"):
        ours, theirs = getattr(first, kept), getattr(second, kept)
        assert list(ours) == list(theirs)
        for method, array in ours.items():
            assert array.dtype == theirs[method].dtype
            assert np.array_equal(array, theirs[method], equal_nan=True)


def make_table(vectors: dict, dimension: int) -> EmbeddingTable:
    """An EmbeddingTable of ``vectors``, a token -> components dict."""
    return EmbeddingTable(
        index={token: row for row, token in enumerate(vectors)},
        matrix=np.array(list(vectors.values()), dtype=np.float64).reshape(len(vectors), dimension),
    )


def assert_no_child_left() -> None:
    """Fail if this process has a child that was not reaped."""
    if hasattr(os, "fork"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def toy_table():
    return load_embeddings(DATA_DIR / "toy_embeddings.txt")


@pytest.fixture(scope="session")
def toy_lexicon():
    return load_definitions(DATA_DIR / "toy_definitions.tsv")


@pytest.fixture(scope="session")
def toy_stopwords():
    return load_stopwords(DATA_DIR / "stopwords.txt")


@pytest.fixture(scope="session")
def config_path() -> Path:
    return DATA_DIR / "experiment.conf"
