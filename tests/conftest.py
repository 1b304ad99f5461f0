from __future__ import annotations

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
    (LabeledPair, ScoreOutcome) pairs: an unscorable outcome's value is NaN."""
    values = np.array([np.nan if o.value is None else o.value for _, o in scored], dtype=np.float64)
    positive = np.array([labeled.is_positive for labeled, _ in scored], dtype=bool)
    return values, positive


def make_table(vectors: dict, dimension: int) -> EmbeddingTable:
    """An EmbeddingTable of ``vectors``, a token -> components dict."""
    return EmbeddingTable(
        index={token: row for row, token in enumerate(vectors)},
        matrix=np.array(list(vectors.values()), dtype=np.float64).reshape(len(vectors), dimension),
    )


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
