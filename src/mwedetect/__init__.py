"""Compound multiword-expression detection from embedding non-compositionality.

A compound like "hot dog" means something its parts do not. That gap is
visible in pretrained word embeddings: the vectors (or summed definition
vectors) of the constituents sit far apart in cosine space exactly when
the pair is non-compositional. This package scores word pairs three ways,
calibrates a per-method decision threshold against sampled negatives, and
can scan raw text for candidate compounds with no prior segmentation.
"""

from __future__ import annotations

from . import corpus, definitions, embeddings, errors, pairs, pipeline, scoring
from .corpus import *
from .definitions import *
from .embeddings import *
from .errors import *
from .pairs import *
from .pipeline import *
from .scoring import *

__version__ = "0.1.0"

# The package's public names are its modules' public names.
__all__ = ["__version__"]
__all__ += embeddings.__all__
__all__ += pairs.__all__
__all__ += corpus.__all__
__all__ += definitions.__all__
__all__ += scoring.__all__
__all__ += pipeline.__all__
__all__ += errors.__all__
