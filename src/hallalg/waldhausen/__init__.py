"""Truncated simplicial groupoids: S-construction, Hecke-Waldhausen,
2-Segal and pointedness checks."""

from .hecke import (HeckeAlgebra, HeckeModule, HeckeWaldhausen,
                    hecke_waldhausen)
from .sconstruction import TriangleGroupoid, s_construction
from .segal import (SegalVerdict, check_2segal_degree3, check_pointed,
                    mutation_corpus)
from .simplicial import (SimplicialVerdict, TruncatedSimplicialGroupoid,
                         check_simplicial_identities)

__all__ = [
    "HeckeAlgebra", "HeckeModule", "HeckeWaldhausen", "hecke_waldhausen",
    "TriangleGroupoid", "s_construction",
    "SegalVerdict", "check_2segal_degree3", "check_pointed",
    "mutation_corpus",
    "SimplicialVerdict", "TruncatedSimplicialGroupoid",
    "check_simplicial_identities",
]
