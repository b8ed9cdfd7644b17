"""hallalg: exact Hall algebras, 2-Segal groupoids, Hecke convolution,
wreath-product characters and Schur-Weyl counting identities.

`import hallalg` loads the exact-math, group and wreath layers
(`exactmath`, `groups`, `wreath`) and re-exports their names.  The other
layers (`groupoid`, `hall`, `protoab`, `schurweyl`, `structure`,
`waldhausen`) load the first time one of their names is read from this
package, or when a caller imports them.  Such a name is looked up in its
module on every access, so a binding patched there is the one seen here.
"""

import importlib

__version__ = "0.1.0"


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its configured budget."""


class UsageError(ValueError):
    """Bad configuration or arguments."""


class Record:
    """A plain record whose `_fields`, in order, give its equality (with a
    record of the same class) and its repr, as a dataclass's would."""

    _fields = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in self._fields)

    def __repr__(self):
        return f"{type(self).__name__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"


# convenience re-exports of the eager layers; the exceptions above must
# exist first
from .exactmath import (MultiSymElem, PartitionMap,                      # noqa: E402
                        littlewood_richardson, multiset_number,
                        multisym_mul, partition_maps, partitions_of,
                        schur_eval_ones)
from .groups import FiniteGroup, named_group, named_subgroup             # noqa: E402
from .wreath import (ch, ch_ring_hom_check, character_table,             # noqa: E402
                     induction_product, wreath_product)

# the names of the layers that load on first use, each with its module
_DEFERRED = {
    "groupoid": ("SpanFn", "b_group", "cardinality", "is_equivalence", "pi0",
                 "pullback_fn", "pushforward_fn", "two_fiber_product"),
    "hall": ("check_associativity", "divided_powers_iso_check",
             "hall_constants", "hall_product", "hall_product_via_span"),
    "protoab": ("AbelianPGroups", "F1FreeG", "VectFq", "make_instance"),
    "schurweyl": ("check_sum_of_squares", "check_total_dimension", "dim_R",
                  "schur_weyl_report"),
    "structure": (),
    "waldhausen": ("HeckeAlgebra", "HeckeModule", "check_2segal_degree3",
                   "check_pointed", "check_simplicial_identities",
                   "hecke_waldhausen", "s_construction"),
}
_HOME = {name: module for module, names in _DEFERRED.items()
         for name in names}


def __getattr__(name):
    """A deferred layer's name, read from its module, or the layer itself
    (PEP 562: called only for a name this module does not hold)."""
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                       name)
    if name in _DEFERRED:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
