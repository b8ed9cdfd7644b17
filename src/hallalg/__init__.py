"""hallalg: exact Hall algebras, 2-Segal groupoids, Hecke convolution,
wreath-product characters and Schur-Weyl counting identities."""

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


# convenience re-exports; the exceptions above must exist first
from .exactmath import (MultiSymElem, PartitionMap,                      # noqa: E402
                        littlewood_richardson, multiset_number,
                        multisym_mul, partition_maps, partitions_of,
                        schur_eval_ones)
from .groupoid import (SpanFn, b_group, cardinality, is_equivalence,     # noqa: E402
                       pi0, pullback_fn, pushforward_fn, two_fiber_product)
from .groups import FiniteGroup, named_group, named_subgroup             # noqa: E402
from .hall import (check_associativity, divided_powers_iso_check,        # noqa: E402
                   hall_constants, hall_product, hall_product_via_span)
from .protoab import AbelianPGroups, F1FreeG, VectFq, make_instance      # noqa: E402
from .schurweyl import (check_sum_of_squares, check_total_dimension,     # noqa: E402
                        dim_R, schur_weyl_report)
from .waldhausen import (HeckeAlgebra, HeckeModule, check_2segal_degree3,  # noqa: E402
                         check_pointed, check_simplicial_identities,
                         hecke_waldhausen, s_construction)
from .wreath import (ch, ch_ring_hom_check, character_table,             # noqa: E402
                     induction_product, wreath_product)
