"""The candidate-pair type shared by the corpus and scoring layers."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LexemePair:
    """An ordered pair of tokens forming one candidate compound.

    Tokens are normalized to lowercase at construction and must be
    non-empty and whitespace-free. Equal left and right tokens are legal
    here (a corpus can contain the bigram "the the"); dataset loaders
    reject self-pairs at ingestion.
    """

    left: str
    right: str

    def __post_init__(self) -> None:
        for name in ("left", "right"):
            token = getattr(self, name)
            if not token:
                raise ValueError(f"{name} token is empty")
            if token.split() != [token]:
                raise ValueError(f"{name} token contains whitespace: {token!r}")
            object.__setattr__(self, name, token.lower())

    def __str__(self) -> str:
        return f"{self.left} {self.right}"


__all__ = ["LexemePair"]
