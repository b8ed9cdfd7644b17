"""The Hecke convolution by membership tests, the oracle of
`hecke._convolution_table`: each double coset is built as the set
{h g p} by brute force, with no coset level and no basis index, and
(f.v)(x) = (1/|H|) sum_y f(y) v(y^-1 x) is counted over the y in D_a with
y^-1 x in D_b.

`run_table` is the generic table of a coset-level map, one run per
(prefix, value) pair, the oracle of the faces and degeneracies
(`hecke.face`, `hecke.degeneracy`) and of their plans.

`pinned_level` is a coset level's full subgroupoid on its coset-0 block
under the stabiliser of coset 0: an apex acted on by a proper subgroup of
the level's group, equivalent to the level, which the table rule of
`groupoid/fiber.py` still decides."""

from fractions import Fraction
from math import prod

from hallalg.groupoid import ActionGroupoid


def double_cosets(G, H, P):
    """H\\G/P as (least element, set {h g p}) pairs, in G.elements order of
    the least element: the order of the production bases."""
    seen, out = set(), []
    for g in G.elements:
        if g not in seen:
            coset = {G.op(G.op(h, g), p) for h in H.elements
                     for p in P.elements}
            seen |= coset
            out.append((g, coset))
    return out


def membership_convolution(G, H, P):
    """{(a, b): {c: m}} for the action of H\\G/H on H\\G/P indicators,
    m = |{y in D_a : y^-1 x_c in D_b}| / |H| at the least element x_c of
    each D_c, an integral m as an int; and the two bases."""
    left, right = double_cosets(G, H, H), double_cosets(G, H, P)
    out = {}
    for a, (_, da) in enumerate(left):
        for b, (_, db) in enumerate(right):
            vals = {}
            for c, (x, _) in enumerate(right):
                tot = sum(1 for y in da if G.op(G.inv(y), x) in db)
                if tot:
                    m = Fraction(tot, H.order)
                    vals[c] = int(m) if m.denominator == 1 else m
            out[(a, b)] = vals
    return out, [g for g, _ in left], [g for g, _ in right]


def run_table(src, tgt, sizes, k, runs):
    """An index table src -> tgt from strided runs of tgt's indices: for
    each prefix a of coordinates 0..k-1 and each value x of coordinate k,
    the run of the S suffixes starting at runs(a, x) * S, once tgt's axis
    sizes are checked to be `sizes`."""
    if tgt.sizes != sizes:
        raise ValueError(f"{tgt.name} has axis sizes {tgt.sizes}, not "
                         f"{sizes}")
    S = prod(src.sizes[k + 1:])
    table = []
    for a in range(prod(src.sizes[:k])):
        for x in range(src.sizes[k]):
            start = runs(a, x) * S
            table += range(start, start + S)
    return table


def pinned_level(level):
    """The full subgroupoid of the coset level on its block, the tuples
    whose first coset is coset 0, acted on by the stabiliser of coset 0,
    with the level's indices and action.  G moves every first coset to
    coset 0, so the inclusion is an equivalence, with [G:K_0] times fewer
    objects."""
    stab, _ = level.spaces[0].coset_zero
    return ActionGroupoid(stab, [level.objects[i] for i in range(level.block)],
                          level.act, name=f"pinned {level.name}")
