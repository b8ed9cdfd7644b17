"""Finite groupoids, functors, 2-fiber products and pull-push transfer."""

from .core import (ActionGroupoid, Component, Groupoid, b_group, pi0,
                   point_groupoid)
from .fiber import FiberProductGroupoid, two_fiber_product
from .functors import (EquivalenceVerdict, FnFunctor, Functor, GMap,
                       GroupHomFunctor, composite_difference, is_equivalence,
                       point_inclusion)
from .transfer import (SpanFn, cardinality, pull_push_table, pullback_fn,
                       pushforward_fn)

__all__ = [
    "ActionGroupoid", "Component", "Groupoid", "b_group", "pi0",
    "point_groupoid",
    "FiberProductGroupoid", "two_fiber_product",
    "EquivalenceVerdict", "FnFunctor", "Functor", "GMap", "GroupHomFunctor",
    "composite_difference", "is_equivalence", "point_inclusion",
    "SpanFn", "cardinality", "pull_push_table", "pullback_fn",
    "pushforward_fn",
]
