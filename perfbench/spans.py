"""Per-layer spans installed from outside the program.

The traced run wraps the public entry points of each hallalg module: a
method is patched on its class, a function at every ``hallalg.*`` module
binding that refers to it (``is_equivalence``, for one, is imported by name
into ``waldhausen.segal`` and ``waldhausen.hecke``).  Nothing inside
``src/`` is traced.  Per-element hot methods (``neighbors``, ``hom``,
``op``, ``Cyc`` arithmetic) are deliberately not wrapped: they run millions
of times.

Every call records a span (name, parent, start, end) in flat arrays kept
until the run ends.  A span's self time is its duration minus the
durations of its direct child spans.  Counters are read from the objects
the wrapped calls build or return.  A target that no longer exists is
reported as absent, never as zero.
"""

import functools
import importlib
import sys
import weakref
from array import array
from time import perf_counter


def _first_time(seen, obj, key=None):
    """True the first time (obj, key) is seen while obj is alive.

    Keyed on id() with a weak reference to catch id reuse, so objects that
    are unhashable or define __eq__ are fine."""
    entry = seen.get(id(obj))
    if entry is None or entry[0]() is not obj:
        entry = (weakref.ref(obj), set())
        seen[id(obj)] = entry
    if key in entry[1]:
        return False
    entry[1].add(key)
    return True


# Counter hooks: hook(tracer, args, result).  Each returns nothing and adds
# to tracer.counters.


def _count_fiber(t, args, result):
    n = args[0].n_objects
    t.add("groupoid.fiber_objects", n)
    t.fiber_sizes.append(n)
    t.counters["groupoid.fiber_build.max_objects"] = max(
        n, t.counters.get("groupoid.fiber_build.max_objects", 0))


def _count_pi0(t, args, result):
    g = args[0]
    if _first_time(t.seen_pi0, g):
        t.add("groupoid.pi0_objects", g.n_objects)
        t.add("groupoid.components", len(result))


def _count_gens(t, args, result):
    g = args[0]
    if _first_time(t.seen_gens, g) and type(g).__name__ == "TriangleGroupoid":
        t.add("waldhausen.triangle_gens", len(result))


def _count_triangle_out(t, args, result):
    g, i = args[0], args[1]
    if _first_time(t.seen_out, g, i):
        t.add("waldhausen.triangle_morphisms", len(result))


def _count_levels(t, args, result):
    t.add("waldhausen.level_objects",
          sum(lvl.n_objects for lvl in args[0].levels))


def _count_group(t, args, result):
    t.add("groups.elements_built", args[0].order)


# (span name, module, attribute path, counter hook, counters it feeds).
# Every span reports .calls and .self_s; the spans in TOTAL_S also report
# .total_s, their time including child spans.
SPANS = [
    ("groupoid.fiber_build", "hallalg.groupoid.fiber",
     "FiberProductGroupoid.__init__", _count_fiber,
     ("groupoid.fiber_objects", "groupoid.fiber_build.max_objects")),
    ("groupoid.pi0", "hallalg.groupoid.core", "Groupoid.components",
     _count_pi0, ("groupoid.pi0_objects", "groupoid.components")),
    ("groupoid.generating_morphisms", "hallalg.groupoid.core",
     "Groupoid.generating_morphisms", _count_gens,
     ("waldhausen.triangle_gens",)),
    ("groupoid.functors_equal", "hallalg.groupoid.functors",
     "functors_equal", None, ()),
    ("groupoid.is_equivalence", "hallalg.groupoid.functors",
     "is_equivalence", None, ()),
    ("groupoid.pushforward", "hallalg.groupoid.transfer", "pushforward_fn",
     None, ()),
    ("groupoid.pullback", "hallalg.groupoid.transfer", "pullback_fn",
     None, ()),
    ("waldhausen.hw_build", "hallalg.waldhausen.hecke",
     "HeckeWaldhausen.__init__", _count_levels,
     ("waldhausen.level_objects",)),
    ("waldhausen.triangle_out", "hallalg.waldhausen.sconstruction",
     "TriangleGroupoid.out", _count_triangle_out,
     ("waldhausen.triangle_morphisms",)),
    ("waldhausen.s_build", "hallalg.waldhausen.sconstruction",
     "s_construction", None, ()),
    ("waldhausen.simplicial_identities", "hallalg.waldhausen.simplicial",
     "check_simplicial_identities", None, ()),
    ("waldhausen.segal", "hallalg.waldhausen.segal", "check_2segal_degree3",
     None, ()),
    ("waldhausen.pointed", "hallalg.waldhausen.segal", "check_pointed",
     None, ()),
    ("waldhausen.hecke_algebra", "hallalg.waldhausen.hecke",
     "HeckeAlgebra.__init__", None, ()),
    ("waldhausen.hecke_module", "hallalg.waldhausen.hecke",
     "HeckeModule.__init__", None, ()),
    ("protoab.subobjects_with_type", "hallalg.protoab.base",
     "ProtoAbelianInstance.subobjects_with_type", None, ()),
    ("hall.constants", "hallalg.hall", "hall_constants", None, ()),
    ("hall.associativity", "hallalg.hall", "check_associativity", None, ()),
    ("hall.span_product", "hallalg.hall", "hall_product_via_span", None, ()),
    ("groups.group_build", "hallalg.groups", "FiniteGroup.__init__",
     _count_group, ("groups.elements_built",)),
    ("wreath.group_build", "hallalg.wreath.wreathgroup", "wreath_product",
     None, ()),
    ("wreath.char_table", "hallalg.wreath.chmap",
     "WreathCharacterTable.__init__", None, ()),
    ("wreath.orthogonality", "hallalg.wreath.chmap",
     "WreathCharacterTable.check_orthogonality", None, ()),
    ("wreath.induction", "hallalg.wreath.chmap", "induction_product",
     None, ()),
    ("exactmath.multisym_mul", "hallalg.exactmath.symfunc", "multisym_mul",
     None, ()),
    ("schurweyl.report", "hallalg.schurweyl", "schur_weyl_report", None, ()),
    ("cli", "hallalg.cli", "run", None, ()),
]


TOTAL_S = ("groupoid.pi0", "groupoid.generating_morphisms",
           "waldhausen.hw_build")


def _hallalg_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hallalg"
                                  or name.startswith("hallalg."))]


class Tracer:
    """Spans and counters of one traced run, grouped into passes."""

    def __init__(self):
        self.name_of = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = []
        self.pass_starts = []       # first span index of each pass
        self.pass_counters = []     # one counter dict per pass
        self.pass_fiber_sizes = []  # sizes of the fiber products per pass
        self.counters = {}
        self.fiber_sizes = []
        self.seen_pi0, self.seen_gens, self.seen_out = {}, {}, {}
        self.absent = {}            # span name -> reason
        self.broken_counters = set()
        self._undo = []

    # -- installing ----------------------------------------------------------

    def install(self):
        for k, (name, modname, path, hook, _) in enumerate(SPANS):
            try:
                module = importlib.import_module(modname)
                owner = module
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.absent[name] = f"{modname}.{path}: {exc}"
                continue
            wrapper = self._wrap(k, original, hook)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                for mod in _hallalg_modules():
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, binding, wrapper)

    def _patch(self, owner, attr, wrapper):
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def _wrap(self, k, fn, hook):
        name_of, parent, t0, t1 = self.name_of, self.parent, self.t0, self.t1
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(t0)
            name_of.append(k)
            parent.append(stack[-1] if stack else -1)
            t1.append(0.0)
            stack.append(idx)
            t0.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    hook(self, args, result)
                except Exception:           # the counter's source changed
                    self.broken_counters.add(SPANS[k][0])
            return result

        return wrapper

    # -- recording -----------------------------------------------------------

    def add(self, counter, value):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def begin_pass(self):
        self.pass_starts.append(len(self.t0))
        self.counters = {}
        self.pass_counters.append(self.counters)
        self.fiber_sizes = []
        self.pass_fiber_sizes.append(self.fiber_sizes)
        self.seen_pi0, self.seen_gens, self.seen_out = {}, {}, {}

    def pass_metrics(self, p):
        """Calls and self time per span (total time, the sum of the calls'
        durations, for TOTAL_S), plus counters, of pass p."""
        lo = self.pass_starts[p]
        hi = (self.pass_starts[p + 1] if p + 1 < len(self.pass_starts)
              else len(self.t0))
        n = len(SPANS)
        calls, self_s, total_s = [0] * n, [0.0] * n, [0.0] * n
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            d = self.t1[i] - self.t0[i]
            if self.parent[i] >= lo:
                child[self.parent[i] - lo] += d
        for i in range(lo, hi):
            k = self.name_of[i]
            d = self.t1[i] - self.t0[i]
            calls[k] += 1
            total_s[k] += d
            self_s[k] += d - child[i - lo]
        out = {}
        for k, (name, _, _, _, counters) in enumerate(SPANS):
            if name in self.absent:
                continue
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
            if name in TOTAL_S:
                out[f"{name}.total_s"] = total_s[k]
            if name in self.broken_counters:
                continue
            for c in counters:
                out[c] = self.pass_counters[p].get(c, 0)
        if ("waldhausen.triangle_gens" in out
                and "waldhausen.triangle_morphisms" in out):
            # generating morphisms kept per triangle morphism enumerated;
            # 0 when the pass enumerated none
            enumerated = out["waldhausen.triangle_morphisms"]
            out["waldhausen.triangle_gens_ratio"] = (
                out["waldhausen.triangle_gens"] / enumerated
                if enumerated else 0.0)
        return out
