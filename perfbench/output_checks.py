"""Checks of mwedetect's outputs against what the generator planted.

Each check returns a list of problems; an empty list means the output is
correct. Scan hits are compared with an independent numpy recomputation of
every bigram's count and score, so a missing, extra or mis-scored hit is
caught, not only a violated predicate.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from gen_inputs import Truth

REPORT_COLUMNS = [
    "method", "negative_source", "threshold", "recall", "precision", "f1",
    "tp", "fp", "fn", "tn", "unscorable_pos", "unscorable_neg",
]
REPORT_ROWS = [
    (method, source)
    for method in ("word", "definition", "definition-content")
    for source in ("random", "cooccur")
]
# Held-out F1 floors under the planted signal; measured F1 sits well above.
F1_FLOORS = {"word": 0.95, "definition": 0.75, "definition-content": 0.9}
RECALL_FLOOR = 0.9
# Scores closer than this to the threshold may fall on either side of it.
SCORE_TOLERANCE = 1e-9


def heldout_size(n: int, fraction: float) -> int:
    """Held-out share of one source group, as the stratified split sizes it."""
    k = min(max(int(n * fraction), 1), n - 1)
    return n - k


def check_reports(out_dir: Path, compounds: int, fraction: float) -> list[str]:
    path = out_dir / "reports.csv"
    if not path.exists() or not (out_dir / "thresholds.csv").exists():
        return ["reports.csv or thresholds.csv missing"]
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != REPORT_COLUMNS:
        return [f"reports.csv header is {rows[:1]}"]
    records = [dict(zip(REPORT_COLUMNS, row)) for row in rows[1:]]
    if [(r["method"], r["negative_source"]) for r in records] != REPORT_ROWS:
        return [f"reports.csv rows are {[(r['method'], r['negative_source']) for r in records]}"]
    arm = heldout_size(compounds, fraction)
    problems = []
    for r in records:
        label = f"{r['method']}/{r['negative_source']}"
        try:
            tp, fp, fn, tn, upos, uneg = (
                int(r[k]) for k in ("tp", "fp", "fn", "tn", "unscorable_pos", "unscorable_neg")
            )
            threshold, f1 = float(r["threshold"]), float(r["f1"])
        except ValueError as exc:
            problems.append(f"{label}: unparsable cell ({exc})")
            continue
        if tp + fn + upos != arm or fp + tn + uneg != arm:
            problems.append(f"{label}: arm sizes {tp + fn + upos}/{fp + tn + uneg}, expected {arm}")
        if not -1.0 <= threshold <= 1.0:
            problems.append(f"{label}: threshold {threshold} outside [-1, 1]")
        if 2 * tp + fp + fn == 0 or f1 != 2 * tp / (2 * tp + fp + fn):
            problems.append(f"{label}: f1 {f1} disagrees with tp={tp} fp={fp} fn={fn}")
        if f1 < F1_FLOORS[r["method"]]:
            problems.append(f"{label}: f1 {f1:.3f} below floor {F1_FLOORS[r['method']]}")
    return problems


def _definition_vectors(truth: Truth, ids: np.ndarray, content: bool) -> tuple[np.ndarray, np.ndarray]:
    """Definition sums for ``ids`` and a mask of the scorable ones.

    Tokens are added left to right, as the program sums them, so the sums
    agree bit for bit.
    """
    vectors = truth.vectors()
    rows = truth.definitions[ids]
    keep = rows >= 0
    if content:
        keep &= ~truth.is_stop[np.maximum(rows, 0)]
    total = np.zeros((len(ids), vectors.shape[1]))
    for j in range(rows.shape[1]):
        total = total + vectors[np.maximum(rows[:, j], 0)] * keep[:, j, None]
    scorable = keep.any(axis=1) & (np.linalg.norm(total, axis=1) > 0.0)
    return total, scorable


def expected_scan(truth: Truth, content: bool, min_count: int) -> dict[tuple[int, int], tuple[int, float | None]]:
    """Every bigram the scan scores: (left id, right id) -> (count, score or None)."""
    corpus = truth.corpus.astype(np.int64)
    vocab = len(truth.tokens)
    keys, counts = np.unique(corpus[:-1] * vocab + corpus[1:], return_counts=True)
    keys, counts = keys[counts >= min_count], counts[counts >= min_count]
    left, right = keys // vocab, keys % vocab
    ids, index = np.unique(np.concatenate([left, right]), return_inverse=True)
    vectors, scorable = _definition_vectors(truth, ids, content)
    li, ri = index[: len(keys)], index[len(keys) :]
    a, b = vectors[li], vectors[ri]
    norms = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        scores = np.clip(np.einsum("ij,ij->i", a, b) / norms, -1.0, 1.0)
    scores[np.all(a == b, axis=1)] = 1.0
    ok = scorable[li] & scorable[ri]
    return {
        (l, r): (c, s if k else None)
        for l, r, c, s, k in zip(left.tolist(), right.tolist(), counts.tolist(), scores.tolist(), ok.tolist())
    }


def check_scan(
    hits_path: Path,
    truth: Truth,
    expected: dict[tuple[int, int], tuple[int, float | None]],
    threshold: float,
    min_count: int,
) -> list[str]:
    """Compare a hits CSV with ``expected``, as ``expected_scan`` computes it."""
    if not hits_path.exists():
        return [f"{hits_path.name} missing"]
    with open(hits_path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != ["left", "right", "count", "score"]:
        return [f"hits header is {rows[:1]}"]
    index = {token: i for i, token in enumerate(truth.tokens.tolist())}
    problems: list[str] = []
    hits: dict[tuple[int, int], tuple[int, float]] = {}
    keys = []
    for line, row in enumerate(rows[1:], start=2):
        try:
            left, right, count, score = row[0], row[1], int(row[2]), float(row[3])
            pair = (index[left], index[right])
        except (ValueError, KeyError, IndexError) as exc:
            problems.append(f"hits line {line}: unparsable ({exc!r})")
            continue
        if not score < threshold:
            problems.append(f"hits line {line}: score {score} not below {threshold}")
        if count < min_count:
            problems.append(f"hits line {line}: count {count} below {min_count}")
        hits[pair] = (count, score)
        keys.append((score, left, right))
    if keys != sorted(keys):
        problems.append("hits are not in ascending (score, left, right) order")
    if len(hits) != len(keys):
        problems.append("hits repeat a pair")

    for pair, (count, score) in hits.items():
        want = expected.get(pair)
        if want is None or want[1] is None:
            problems.append(f"hit {pair} is not a scorable bigram with count >= {min_count}")
        elif want[0] != count or abs(want[1] - score) > SCORE_TOLERANCE:
            problems.append(f"hit {pair}: count/score {count}/{score}, expected {want}")
    for pair, (count, score) in expected.items():
        if score is not None and score < threshold - SCORE_TOLERANCE and pair not in hits:
            problems.append(f"bigram {pair} scores {score} < {threshold} but is not a hit")
    planted = [
        pair for pair in map(tuple, truth.compounds.tolist())
        if expected.get(pair, (0, None))[1] is not None
    ]
    found = sum(pair in hits for pair in planted)
    if planted and found < RECALL_FLOOR * len(planted):
        problems.append(f"recall of planted compounds {found}/{len(planted)} below {RECALL_FLOOR}")
    return problems[:20]
