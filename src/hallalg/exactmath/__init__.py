"""Exact arithmetic and symmetric-function combinatorics."""

from .cyclotomic import cyclotomic_polynomial, euler_phi
from .littlewood import littlewood_richardson, schur_product
from .partitions import (PartitionMap, conjugate, multiset_number,
                         partition_maps, partitions_of)
from .symfunc import MultiSymElem, multisym_mul
from .tableaux import schur_eval_ones, standard_tableaux_count

__all__ = [
    "cyclotomic_polynomial", "euler_phi",
    "littlewood_richardson", "schur_product",
    "PartitionMap", "conjugate", "multiset_number", "partition_maps",
    "partitions_of",
    "MultiSymElem", "multisym_mul",
    "schur_eval_ones", "standard_tableaux_count",
]
