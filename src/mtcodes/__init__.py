"""Exact arithmetic for linear and multi-twisted codes over finite fields."""

from .gf import Field, field
from .upoly import Poly, Factorization, factor, reciprocal_poly
from .pmat import PolyMatrix, hnf, deg_det, rank_mod, chain_type
from .lincode import LinearCode
from .mtcode import MTProfile, MTCode

__version__ = "0.1.0"

__all__ = [
    "Field",
    "field",
    "Poly",
    "Factorization",
    "factor",
    "reciprocal_poly",
    "PolyMatrix",
    "hnf",
    "deg_det",
    "rank_mod",
    "chain_type",
    "LinearCode",
    "MTProfile",
    "MTCode",
    "__version__",
]
