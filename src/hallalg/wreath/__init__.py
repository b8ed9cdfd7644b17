"""Wreath products, their characters, and the characteristic map."""

from .characters import abelian_dual
from .chmap import (WreathCharacterTable, ch, ch_ring_hom_check,
                    character_table, induction_product,
                    irreducible_dimension)
from .wreathgroup import wreath_product

__all__ = [
    "abelian_dual",
    "WreathCharacterTable", "ch", "ch_ring_hom_check", "character_table",
    "induction_product", "irreducible_dimension",
    "wreath_product",
]
