"""Concrete finitary proto-abelian categories: free F_1[G]-modules
(`F1FreeG`), finite abelian p-groups (`AbelianPGroups`) and vector spaces
over F_q (`VectFq`), which are the elementary abelian q-groups and so the
`AbelianPGroups` implementation keyed by dimension."""

from .. import UsageError
from ..groups import named_group
from .abelianp import AbelianPGroups
from .base import ProtoAbelianInstance
from .f1free import F1FreeG
from .vectfq import VectFq


def make_instance(family: str, *, q=None, p=None, group=None,
                  bound=None) -> ProtoAbelianInstance:
    """Instance selection by family tag plus parameters."""
    if family == "vect-fq":
        if q is None or bound is None:
            raise UsageError("vect-fq needs q and bound")
        return VectFq(q, bound)
    if family == "f1-free":
        if bound is None:
            raise UsageError("f1-free needs bound")
        g = named_group(group) if isinstance(group, str) else group
        if g is None:
            raise UsageError("f1-free needs a group")
        return F1FreeG(g, bound)
    if family == "ab-p-groups":
        if p is None or bound is None:
            raise UsageError("ab-p-groups needs p and bound (a group order)")
        return AbelianPGroups(p, bound)
    raise UsageError(f"unknown family {family!r}")


__all__ = ["ProtoAbelianInstance", "VectFq", "F1FreeG", "AbelianPGroups",
           "make_instance"]
