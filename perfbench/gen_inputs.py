"""Seeded planted-signal inputs for the mwedetect benchmark (numpy only).

Every draw is vectorised and comes from one ``numpy.random.Generator``
seeded by ``(seed, scale)``, so the same seed always gives byte-identical
files. The data plants the signal the paper detects:

* vocabulary tokens are random distinct four-letter strings; token ``r``
  has Zipf(1) frequency rank ``r``, and the most frequent ones are the
  stop words;
* compounds use disjoint, non-stop-word constituents, and the right
  constituent's vector is rotated to a cosine of -0.5 with the left one;
* each first definition repeats its own lexeme three times among Zipf
  filler tokens, so the planted cosine carries into the definition sums;
* the corpus is a Zipf(1) token stream in which about 2% of the positions
  start a planted compound bigram.

Vector coordinates are written with five decimals from integers ``k`` as
``k / 1e5``. Parsing that text gives exactly the doubles ``k / 1e5``, so
the checks can recompute the program's scores from ``Truth`` bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Bump when the generated bytes change, so stale cache entries are not used.
GENERATOR_VERSION = 1

_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
_TOKEN_LEN = 4
_DECIMALS = 100_000
_COORD_SCALE = 0.3
_CLIP = 160_000  # |k| cap: just over 5 standard deviations of k
_DEF_LEN = 12
_DEF_SELF = 3
_PLANTED_COSINE = -0.5
_PLANTED_SHARE = 0.02
_NO_DEFINITION_SHARE = 0.02
_LINE_TOKENS = 20


@dataclass(frozen=True)
class Scale:
    vocab: int
    dim: int
    corpus_tokens: int
    compounds: int
    stopwords: int


SCALES = {
    "mid": Scale(vocab=50_000, dim=100, corpus_tokens=1_000_000, compounds=5_000, stopwords=100),
    "sparse": Scale(vocab=150_000, dim=100, corpus_tokens=100_000, compounds=1_000, stopwords=100),
    "smoke-mid": Scale(vocab=3_000, dim=100, corpus_tokens=40_000, compounds=300, stopwords=30),
    "smoke-sparse": Scale(vocab=6_000, dim=100, corpus_tokens=6_000, compounds=60, stopwords=30),
}

INPUT_FILES = {
    "embeddings": "embeddings.txt",
    "definitions": "definitions.tsv",
    "stopwords": "stopwords.txt",
    "corpus": "corpus.txt",
    "compounds": "compounds.csv",
}


@dataclass(frozen=True)
class Truth:
    """What the generator planted, for checking the program's outputs."""

    tokens: np.ndarray  # (V,) str, token of frequency rank r
    coords: np.ndarray  # (V, D) int32, vector of token r is coords[r] / 1e5
    definitions: np.ndarray  # (V, 12) int32 token ids; rows of lexemes without one are -1
    is_stop: np.ndarray  # (V,) bool
    corpus: np.ndarray  # (N,) int32 token ids in corpus order
    compounds: np.ndarray  # (C, 2) int32 token ids (left, right)

    def vectors(self) -> np.ndarray:
        return self.coords / float(_DECIMALS)


def _token_strings(rng: np.random.Generator, count: int) -> np.ndarray:
    codes = rng.permutation(26**_TOKEN_LEN)[:count]
    digits = codes[:, None] // (26 ** np.arange(_TOKEN_LEN - 1, -1, -1)) % 26
    return np.ascontiguousarray(_LETTERS[digits]).view(f"U{_TOKEN_LEN}").ravel()


def _zipf(vocab: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, vocab + 1)
    return weights / weights.sum()


def _coords(rng: np.random.Generator, scale: Scale, compounds: np.ndarray) -> np.ndarray:
    vecs = rng.standard_normal((scale.vocab, scale.dim)) * _COORD_SCALE
    left = vecs[compounds[:, 0]]
    right = vecs[compounds[:, 1]]
    unit_left = left / np.linalg.norm(left, axis=1, keepdims=True)
    ortho = right - np.sum(right * unit_left, axis=1, keepdims=True) * unit_left
    unit_ortho = ortho / np.linalg.norm(ortho, axis=1, keepdims=True)
    planted = _PLANTED_COSINE * unit_left + np.sqrt(1.0 - _PLANTED_COSINE**2) * unit_ortho
    vecs[compounds[:, 1]] = planted * np.linalg.norm(right, axis=1, keepdims=True)
    return np.clip(np.rint(vecs * _DECIMALS), -_CLIP, _CLIP).astype(np.int32)


def make_truth(scale: Scale, seed: int, scale_name: str) -> Truth:
    scale_id = int.from_bytes(hashlib.sha256(scale_name.encode()).digest()[:4], "little")
    rng = np.random.default_rng([seed, scale_id])
    vocab = scale.vocab
    tokens = _token_strings(rng, vocab)
    p = _zipf(vocab)
    is_stop = np.zeros(vocab, dtype=bool)
    is_stop[: scale.stopwords] = True

    content = rng.permutation(np.arange(scale.stopwords, vocab))
    compounds = content[: 2 * scale.compounds].reshape(-1, 2).astype(np.int32)
    others = content[2 * scale.compounds :]
    no_definition = others[: int(len(others) * _NO_DEFINITION_SHARE)]

    coords = _coords(rng, scale, compounds)

    fillers = rng.choice(vocab, size=(vocab, _DEF_LEN - _DEF_SELF), p=p)
    rows = np.concatenate(
        [np.repeat(np.arange(vocab)[:, None], _DEF_SELF, axis=1), fillers], axis=1
    )
    order = np.argsort(rng.random((vocab, _DEF_LEN)), axis=1)
    definitions = np.take_along_axis(rows, order, axis=1).astype(np.int32)
    definitions[no_definition] = -1

    corpus = rng.choice(vocab, size=scale.corpus_tokens, p=p).astype(np.int32)
    planted = int(scale.corpus_tokens * _PLANTED_SHARE)
    starts = rng.choice(scale.corpus_tokens // 2, size=planted, replace=False) * 2
    which = rng.integers(0, len(compounds), size=planted)
    corpus[starts] = compounds[which, 0]
    corpus[starts + 1] = compounds[which, 1]
    return Truth(tokens, coords, definitions, is_stop, corpus, compounds)


def _write(path: Path, chunks) -> None:
    # fsync, so that write-back of fresh inputs does not overlap the timed runs.
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(chunks)
        handle.flush()
        os.fsync(handle.fileno())


def _embedding_chunks(truth: Truth):
    table = np.array([f"{k / _DECIMALS:.5f}" for k in range(-_CLIP, _CLIP + 1)], dtype=object)
    tokens = truth.tokens.tolist()
    for start in range(0, len(tokens), 10_000):
        cells = table[truth.coords[start : start + 10_000] + _CLIP]
        yield "".join(
            f"{token} {' '.join(row)}\n"
            for token, row in zip(tokens[start : start + 10_000], cells.tolist())
        )


def write_inputs(truth: Truth, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    tokens = truth.tokens
    _write(out_dir / "embeddings.txt", _embedding_chunks(truth))
    has_def = truth.definitions[:, 0] >= 0
    _write(
        out_dir / "definitions.tsv",
        (
            f"{tokens[i]}\t{' '.join(words)}\n"
            for i, words in zip(np.flatnonzero(has_def).tolist(), tokens[truth.definitions[has_def]].tolist())
        ),
    )
    _write(out_dir / "stopwords.txt", (f"{t}\n" for t in tokens[truth.is_stop].tolist()))
    words = tokens[truth.corpus]
    _write(
        out_dir / "corpus.txt",
        (" ".join(words[i : i + _LINE_TOKENS].tolist()) + "\n" for i in range(0, len(words), _LINE_TOKENS)),
    )
    pairs = tokens[truth.compounds].tolist()
    _write(out_dir / "compounds.csv", ["c1,c2\n", *(f"{left},{right}\n" for left, right in pairs)])


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def prepare(cache_root: Path, scale_name: str, seed: int) -> tuple[Path, Truth, dict]:
    """Return (input dir, truth, manifest), writing the files on a cache miss.

    The truth is cheap to draw again; the files are not. One entry is kept
    per scale: writing a new seed removes the other seeds' files of that
    scale, which bounds the disk the cache takes.
    """
    scale = SCALES[scale_name]
    truth = make_truth(scale, seed, scale_name)
    entry = cache_root / f"{scale_name}-seed{seed}-v{GENERATOR_VERSION}"
    manifest_path = entry / "manifest.json"
    if manifest_path.exists():
        return entry, truth, json.loads(manifest_path.read_text(encoding="utf-8"))
    if cache_root.exists():
        for stale in cache_root.glob(f"{scale_name}-seed*"):
            shutil.rmtree(stale)
    write_inputs(truth, entry)
    manifest = {
        "scale": scale_name,
        "seed": seed,
        "generator_version": GENERATOR_VERSION,
        "sizes": scale.__dict__,
        "files": {
            name: {"bytes": (entry / name).stat().st_size, "sha256": sha256_file(entry / name)}
            for name in INPUT_FILES.values()
        },
    }
    manifest_path.write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return entry, truth, manifest
