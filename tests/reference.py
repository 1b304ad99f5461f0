"""Plain reference implementations that the tests compare the library against."""

from __future__ import annotations

import random

from mwedetect.pairs import LexemePair


def random_pair_candidates(vocabulary, exclusions=()) -> list[tuple[str, str]]:
    """Every non-excluded ordered pair of distinct tokens, enumerated from the
    sorted distinct vocabulary; exclusions are LexemePairs or 2-tuples."""
    vocab = sorted(set(vocabulary))
    excluded = {(p.left, p.right) if isinstance(p, LexemePair) else tuple(p) for p in exclusions}
    return [
        (left, right)
        for left in vocab
        for right in vocab
        if left != right and (left, right) not in excluded
    ]


def enumerated_random_pairs(vocabulary, n: int, seed: int, exclusions=()) -> list[LexemePair]:
    """``random.Random(seed).sample`` of ``random_pair_candidates``."""
    chosen = random.Random(seed).sample(random_pair_candidates(vocabulary, exclusions), n)
    return [LexemePair(left, right) for left, right in chosen]
