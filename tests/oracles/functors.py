"""The composed-functor route, the oracle for `composite_difference`
(`hallalg.groupoid.functors`): each side is composed into one functor, a
GMap where the tables and selections compose, a ComposedFunctor otherwise,
and the two are compared on their tables and (sel, fill) keys, or on a
generating family of morphisms.

- `IdentityFunctor`, `ComposedFunctor` and `compose_functors` build the
  composites, `_check_composable` refuses maps that do not compose;
- `functors_equal` compares two functors as the checks did before the
  comparison in runs: G-maps by table and key, any other pair on every
  object and on `generating_morphisms`;
- `composed_difference` has the contract of `composite_difference`, on
  the composed functors, and `composed_identity_violations` is the
  simplicial-identity check on them, for any functors;
- `composite_run` composes the tables entry by entry, the oracle of the
  windows that `composite_difference` pulls along the maps' plans;
- `unblocked`, `full_level` and `full_composite_difference` give the
  checks the maps without their blocks, so that they read every object of
  each level, the full-level passes that the block route replaces."""

from hallalg.groupoid import (ActionGroupoid, Functor, GMap,
                              composite_difference)
from hallalg.waldhausen.simplicial import (SimplicialVerdict,
                                           TruncatedSimplicialGroupoid)


class IdentityFunctor(Functor):
    def __init__(self, g):
        super().__init__(g, g, name=f"id_{g.name}")

    def on_obj(self, i):
        return i

    def on_mor(self, m):
        return m


def _check_composable(outer, inner):
    if inner.tgt is not outer.src:
        raise ValueError(f"{outer.name} after {inner.name} is not "
                         f"composable: {inner.tgt.name} is not "
                         f"{outer.src.name}")


class ComposedFunctor(Functor):
    def __init__(self, outer: Functor, inner: Functor):
        _check_composable(outer, inner)
        super().__init__(inner.src, outer.tgt,
                         name=f"{outer.name}∘{inner.name}")
        self.outer, self.inner = outer, inner

    def on_obj(self, i):
        return self.outer.on_obj(self.inner.on_obj(i))

    def on_mor(self, m):
        return self.outer.on_mor(self.inner.on_mor(m))


def compose_functors(outer, inner):
    """outer after inner; two G-maps compose by indexing their tables and
    their selections, unless both fills are needed and differ; a trivial
    group map on either side makes the composite trivial."""
    if isinstance(outer, GMap) and isinstance(inner, GMap):
        _check_composable(outer, inner)
        name = f"{outer.name}∘{inner.name}"
        table = outer.table
        table = [table[j] for j in inner.table]
        trivial = [m for m in (inner, outer)
                   if m.sel is None and m.fill is not None]
        if trivial:                     # every g goes to one element
            return GMap(inner.src, outer.tgt, table, name=name,
                        fill=outer.hom(trivial[-1].fill))
        fills = [f for f in (outer.fill, inner.fill) if f is not None]
        if len(fills) < 2 or fills[0] == fills[1]:
            sel = outer.sel
            if sel is None:
                sel = inner.sel
            elif inner.sel is not None:
                sel = [None if k is None else inner.sel[k] for k in sel]
            return GMap(inner.src, outer.tgt, table, name=name, sel=sel,
                        fill=fills[0] if fills else None)
    return ComposedFunctor(outer, inner)


def _gmap_key(f: Functor):
    """(table, sel, fill) of a G-map (the identity of an action groupoid is
    one), or None."""
    if isinstance(f, GMap):
        return f.table, f.sel, f.fill
    if isinstance(f, IdentityFunctor) and isinstance(f.src, ActionGroupoid):
        return list(range(f.src.n_objects)), None, None
    return None


def functors_equal(f: Functor, g: Functor) -> bool:
    """Strict equality.  Two G-maps with different tables differ, and with
    equal tables and selections are equal; any other pair is compared on
    all objects and a generating family of morphisms (which determines a
    functor), so that, say, a fill and a coordinate whose group is trivial
    still compare equal."""
    if f.src is not g.src or f.tgt is not g.tgt:
        return False
    kf, kg = _gmap_key(f), _gmap_key(g)
    if kf is not None and kg is not None:
        if kf[0] != kg[0]:
            return False
        if kf[1:] == kg[1:]:
            return True
    for i in range(f.src.n_objects):
        if f.on_obj(i) != g.on_obj(i):
            return False
    for m in f.src.generating_morphisms():
        if f.on_mor(m) != g.on_mor(m):
            return False
    return True


def composite_run(maps, lo, hi):
    """Entries lo..hi-1 of the composite table of the G-maps `maps`,
    outermost first (none: the identity), one entry at a time."""
    if not maps:
        return list(range(lo, hi))
    run = maps[-1].table[lo:hi]
    for m in maps[-2::-1]:
        table = m.table
        run = [table[j] for j in run]
    return run


def _composite(maps, apex):
    """The functor composed of `maps`, outermost first; () is the identity
    of `apex`."""
    if not maps:
        return IdentityFunctor(apex)
    out = maps[-1]
    for m in maps[-2::-1]:
        out = compose_functors(m, out)
    return out


def composed_difference(a, b):
    """composite_difference on the composed functors: None where
    functors_equal holds, else the first object sent to different objects,
    or the first object, in order, with a generator of its group sent to
    different morphisms."""
    apex = (a or b)[-1].src
    f, g = _composite(a, apex), _composite(b, apex)
    if functors_equal(f, g):
        return None
    for i in range(apex.n_objects):
        if f.on_obj(i) != g.on_obj(i):
            return i, None
    for i in range(apex.n_objects):
        for h in apex.group_at(i).generators():
            if f.on_mor((h, i)) != g.on_mor((h, i)):
                return i, h
    raise AssertionError("functors_equal found a difference on no "
                         "generator")


def composed_identity_violations(x) -> SimplicialVerdict:
    """check_simplicial_identities by composing functors: the faces and
    degeneracies may be any functors."""
    bad = []
    n_top = x.depth

    def eq(f, g, label):
        if not functors_equal(f, g):
            bad.append(label)

    for n in range(2, n_top + 1):
        for j in range(n + 1):
            for i in range(j):
                # d_i d_j = d_{j-1} d_i on X_n
                eq(compose_functors(x.face(n - 1, i), x.face(n, j)),
                   compose_functors(x.face(n - 1, j - 1), x.face(n, i)),
                   f"d_{i} d_{j} != d_{j-1} d_{i} at level {n}")
    for n in range(0, n_top):
        for j in range(n + 1):
            for i in range(n + 2):
                # d_i s_j on X_n
                lhs = compose_functors(x.face(n + 1, i), x.degeneracy(n, j))
                if i < j:
                    rhs = compose_functors(x.degeneracy(n - 1, j - 1),
                                           x.face(n, i))
                    label = f"d_{i} s_{j} != s_{j-1} d_{i} at level {n}"
                elif i in (j, j + 1):
                    if not functors_equal(lhs, IdentityFunctor(x.levels[n])):
                        bad.append(f"d_{i} s_{j} != id at level {n}")
                    continue
                else:
                    rhs = compose_functors(x.degeneracy(n - 1, j),
                                           x.face(n, i - 1))
                    label = f"d_{i} s_{j} != s_{j} d_{i-1} at level {n}"
                eq(lhs, rhs, label)
    for n in range(0, n_top - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                # s_i s_j = s_{j+1} s_i on X_n
                eq(compose_functors(x.degeneracy(n + 1, i), x.degeneracy(n, j)),
                   compose_functors(x.degeneracy(n + 1, j + 1),
                                    x.degeneracy(n, i)),
                   f"s_{i} s_{j} != s_{j+1} s_{i} at level {n}")
    return SimplicialVerdict(not bad, bad)


def unblocked(m: GMap) -> GMap:
    """m with its table or plan, group map and name, but no block: a map
    that every check reads on each object of its source, as each check
    read every map before the block route."""
    return GMap(m.src, m.tgt, vars(m).get("table"), name=m.name, sel=m.sel,
                fill=m.fill, plan=m.plan)


def full_level(x) -> TruncatedSimplicialGroupoid:
    """x with every face and degeneracy unblocked."""
    return TruncatedSimplicialGroupoid(
        list(x.levels), {k: unblocked(m) for k, m in x.faces.items()},
        {k: unblocked(m) for k, m in x.degeneracies.items()}, name=x.name)


def full_composite_difference(a, b):
    """composite_difference compared on every object of the apex."""
    return composite_difference([unblocked(m) for m in a],
                                [unblocked(m) for m in b])
