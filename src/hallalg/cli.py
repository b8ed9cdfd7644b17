"""Batch command line front end with stable machine-readable output.

Subcommands: hall-table, hecke-table, hecke-module, segal-check,
wreath-char-table, ch-verify, schurweyl.  JSON is the source of truth; csv
and text are projections.  Exit codes: 0 pass/success, 1 verdict failure,
2 usage or budget error (an --out that cannot be written is a usage
error), 3 internal error: any other exception from a command, reported as
one line on stderr, "internal error: <Type>: <msg>", with no traceback and
nothing on stdout.  Rationals are emitted as strings "p/q"; cyclotomic
values as polynomial strings over the printed conductor.
"""

import argparse
import json
import shutil
import sys
from functools import partial
from json.encoder import encode_basestring_ascii as _quote

from . import BudgetExceededError, UsageError
from .groups import named_group, named_subgroup


def _add_common(p):
    p.add_argument("--budget", type=int, default=None,
                   help="enumeration budget (objects/morphisms; for "
                        "segal-check, of each level and of the strict "
                        "pullback each square walks)")
    p.add_argument("--seed", type=int, default=None,
                   help="accepted and ignored; all computations are "
                        "deterministic")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "csv", "text"),
                   default="json")


def _hall_table_parser(p):
    p.add_argument("--family", required=True,
                   choices=("vect-fq", "f1-free", "ab-p-groups"))
    p.add_argument("--q", type=int, help="field size for vect-fq")
    p.add_argument("--p", type=int, help="prime for ab-p-groups")
    p.add_argument("--G", dest="group", help="group spec for f1-free")
    p.add_argument("--bound", type=int, required=True,
                   help="size bound (dimension / rank / group order)")


def _hecke_table_parser(p):
    p.add_argument("--G", dest="group", required=True)
    p.add_argument("--H", dest="subgroup", required=True)


def _hecke_module_parser(p):
    _hecke_table_parser(p)
    p.add_argument("--P", dest="module_subgroup", required=True)


def _segal_check_parser(p):
    p.add_argument("--construction", required=True, choices=("s", "hecke"))
    p.add_argument("--G", dest="group")
    p.add_argument("--H", dest="subgroup")
    p.add_argument("--family", choices=("vect-fq", "f1-free", "ab-p-groups"))
    p.add_argument("--q", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--bound", type=int)


def _wreath_char_table_parser(p):
    p.add_argument("--G", dest="group", required=True)
    p.add_argument("--n", type=int, required=True)


def _ch_verify_parser(p):
    p.add_argument("--G", dest="group", required=True)
    p.add_argument("--max-size", type=int, default=3)


def _schurweyl_parser(p):
    _wreath_char_table_parser(p)
    p.add_argument("--d", type=int, required=True)


def _formatter():
    """The help formatter at the terminal width, read once here: argparse
    reads it again for every argument a parser adds otherwise."""
    return partial(argparse.HelpFormatter,
                   width=shutil.get_terminal_size().columns - 2)


def build_parser():
    """The argument parser with every subcommand, whose errors name a
    missing one as "command"."""
    fmt = _formatter()
    ap = argparse.ArgumentParser(
        prog="hallalg", formatter_class=fmt,
        description="exact Hall algebra / 2-Segal / Hecke / wreath-character "
                    "workbench")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line, formatter_class=fmt)
        add_arguments(p)
        _add_common(p)
    return ap


def _parse(argv):
    """The arguments of a known command, from its own parser: the parser
    that the full one hands the command's arguments to, with the same usage
    and errors.  The full parser reads anything else, and reports arguments
    that the command does not know with its own usage line, as it does when
    it reads them itself."""
    if not argv or argv[0] not in COMMANDS:
        return build_parser().parse_args(argv)
    name = argv[0]
    p = argparse.ArgumentParser(prog=f"hallalg {name}",
                                formatter_class=_formatter())
    COMMANDS[name][1](p)
    _add_common(p)
    args, extras = p.parse_known_args(argv[1:])
    if extras:
        build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = name
    return args


# -- commands -------------------------------------------------------------------
# Each returns its JSON data and a function that builds the csv/text rows
# from it, which _emit calls only for those formats.  Each imports the
# layers it runs, so a process loads only its own command's layers.


def cmd_hall_table(args):
    from .groupoid.core import DEFAULT_OBJECT_BUDGET
    from .hall import check_associativity, hall_constants
    from .protoab import make_instance
    inst = make_instance(args.family, q=args.q, p=args.p, group=args.group,
                         bound=args.bound)
    table = hall_constants(inst, args.budget or DEFAULT_OBJECT_BUDGET)
    ok, wit = check_associativity(table)
    data = table.to_json()
    data["associative_unital"] = ok
    if wit:
        data["counterexample"] = wit
    data["pass"] = ok
    return data, lambda: [("N", "L", "M", "g")] + [
        (r["N"], r["L"], r["M"], str(r["g"])) for r in data["constants"]]


def cmd_hecke_table(args):
    from .groupoid.core import DEFAULT_OBJECT_BUDGET
    from .waldhausen.hecke import HeckeAlgebra
    G = named_group(args.group)
    H = named_subgroup(G, args.subgroup)
    alg = HeckeAlgebra(G, H, budget=args.budget or DEFAULT_OBJECT_BUDGET)
    ok, wit = alg.check_associativity_and_unit()
    data = alg.to_json()
    data["oracle_agrees"] = alg.oracle_agrees
    data["associative_unital"] = ok
    data["pass"] = (ok and alg.extremal_faithful and alg.oracle_agrees
                    and alg.integral)
    return data, lambda: [("a", "b", "product")] + [
        (str(r["a"]), str(r["b"]), json.dumps(r["product"]))
        for r in data["constants"]]


def cmd_hecke_module(args):
    from .groupoid.core import DEFAULT_OBJECT_BUDGET
    from .waldhausen.hecke import HeckeAlgebra, HeckeModule
    G = named_group(args.group)
    H = named_subgroup(G, args.subgroup)
    P = named_subgroup(G, args.module_subgroup)
    alg = HeckeAlgebra(G, H, budget=args.budget or DEFAULT_OBJECT_BUDGET)
    mod = HeckeModule(alg, P)
    ok, wit = mod.check_module_axioms()
    data = mod.to_json()
    data["module_axioms"] = ok
    data["pass"] = (ok and mod.oracle_agrees and mod.integral
                    and alg.oracle_agrees and alg.integral)
    return data, lambda: [("a", "v", "result")] + [
        (str(r["a"]), str(r["v"]), json.dumps(r["result"]))
        for r in data["action"]]


def cmd_segal_check(args):
    from .waldhausen.segal import check_2segal_degree3, check_pointed
    from .waldhausen.simplicial import check_simplicial_identities
    # one budget bounds the levels and the strict pullbacks of the squares
    if args.construction == "hecke":
        if not args.group or not args.subgroup:
            raise UsageError("segal-check --construction hecke needs "
                             "--G and --H")
        from .groupoid.core import DEFAULT_OBJECT_BUDGET
        from .waldhausen.hecke import hecke_waldhausen
        G = named_group(args.group)
        H = named_subgroup(G, args.subgroup)
        budget = args.budget or DEFAULT_OBJECT_BUDGET
        x = hecke_waldhausen(G, H, depth=3, budget=budget)
        label = f"hecke({G.name},{H.name})"
    else:
        if not args.family or args.bound is None:
            raise UsageError("segal-check --construction s needs "
                             "--family and --bound")
        from .protoab import make_instance
        from .waldhausen.sconstruction import (DEFAULT_TRIANGLE_BUDGET,
                                               s_construction)
        inst = make_instance(args.family, q=args.q, p=args.p,
                             group=args.group, bound=args.bound)
        budget = args.budget or DEFAULT_TRIANGLE_BUDGET
        x = s_construction(inst, depth=3, budget=budget)
        label = f"s({inst.family})"
    # the Segal squares first: each refuses an over-budget strict pullback
    # before it walks it, so a budget error comes before the identity checks
    seg = check_2segal_degree3(x, budget=budget)
    poi = check_pointed(x, budget=budget)
    simp = check_simplicial_identities(x)
    ok = simp.ok and seg.ok and poi.ok
    data = {
        "construction": label,
        "simplicial_identities": simp.to_json(),
        "two_segal_degree3": seg.to_json(),
        "pointed": poi.to_json(),
        "witnesses": simp.violations + seg.witnesses + poi.witnesses,
        "pass": ok,
    }
    return data, lambda: [
        ("check", "pass"), ("simplicial", str(simp.ok)),
        ("2-segal", str(seg.ok)), ("pointed", str(poi.ok))]


def cmd_wreath_char_table(args):
    from .wreath.chmap import character_table
    from .wreath.wreathgroup import DEFAULT_WREATH_BUDGET
    G = named_group(args.group)
    tab = character_table(G, args.n, args.budget or DEFAULT_WREATH_BUDGET)
    ok, wit = tab.check_orthogonality()
    data = tab.to_json()
    data["orthogonal"] = ok
    data["pass"] = ok
    # the rows reuse the value strings and label JSON of data
    return data, lambda: [
        ("label", *map(json.dumps, data["class_labels"])),
        *((json.dumps(label), *values) for label, values
          in zip(data["irreducible_labels"], data["values"]))]


def cmd_ch_verify(args):
    from .wreath.chmap import ch_ring_hom_check
    from .wreath.wreathgroup import DEFAULT_WREATH_BUDGET
    G = named_group(args.group)
    ok, failures = ch_ring_hom_check(G, args.max_size,
                                     args.budget or DEFAULT_WREATH_BUDGET)
    data = {"group": G.name, "max_total_size": args.max_size,
            "pass": ok, "failures": failures}
    return data, lambda: [("pass",), (str(ok),)]


def cmd_schurweyl(args):
    from .schurweyl import DEFAULT_SCHURWEYL_BUDGET, schur_weyl_report
    G = named_group(args.group)
    rep = schur_weyl_report(G, args.n, args.d,
                            args.budget or DEFAULT_SCHURWEYL_BUDGET)
    data = rep.to_json()
    return data, lambda: [("label", "dim_X", "dim_R", "kernel")] + [
        (json.dumps(r["label"]), str(r["dim_X"]), str(r["dim_R"]),
         str(r["kernel"])) for r in data["rows"]]


# each subcommand: its help line, the function adding its own arguments and
# the function running it
COMMANDS = {
    "hall-table": ("Hall structure constants", _hall_table_parser,
                   cmd_hall_table),
    "hecke-table": ("Hecke algebra constants", _hecke_table_parser,
                    cmd_hecke_table),
    "hecke-module": ("action of the Hecke algebra on H\\G/P",
                     _hecke_module_parser, cmd_hecke_module),
    "segal-check": ("simplicial, 2-Segal and unitality checks",
                    _segal_check_parser, cmd_segal_check),
    "wreath-char-table": ("character table of G wr S_n",
                          _wreath_char_table_parser, cmd_wreath_char_table),
    "ch-verify": ("characteristic map is a ring homomorphism",
                  _ch_verify_parser, cmd_ch_verify),
    "schurweyl": ("Schur-Weyl counting report", _schurweyl_parser,
                  cmd_schurweyl),
}


# -- JSON output ----------------------------------------------------------------
# json.dumps(data, indent=2) always runs the json module's pure-Python
# encoder.  _json_text writes the same text: each container is one join,
# each scalar goes to a C function (the json module's string quoting,
# int.__repr__) picked by its exact type, and subclasses fall back to
# isinstance tests in the json module's order.  Keys are converted, and
# TypeError and the circular-reference ValueError raised, as json.dumps
# does.

_INFINITY = float("inf")


def _float_text(x, _repr=float.__repr__):
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return _repr(x)


_CONSTANT_TEXT = {None: "null", True: "true", False: "false"}
_SCALAR_TEXT = {str: _quote, int: int.__repr__, float: _float_text,
                bool: _CONSTANT_TEXT.__getitem__,
                type(None): _CONSTANT_TEXT.__getitem__}


def _key_text(key):
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, float):
        key = _float_text(key)
    elif key is True or key is False or key is None:
        key = _CONSTANT_TEXT[key]
    elif isinstance(key, int):
        key = int.__repr__(key)
    else:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}")
    return _quote(key)


def _json_text(o, indent="\n", markers=None):
    """json.dumps(o, indent=2), for o at the depth whose newline and
    indentation is `indent`; markers holds the ids of the containers
    being written around o."""
    t = type(o)
    scalar = _SCALAR_TEXT.get(t)
    if scalar is not None:
        return scalar(o)
    if t is not dict and t is not list and t is not tuple:
        if isinstance(o, str):
            return _quote(o)
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, float):
            return _float_text(o)
        if not isinstance(o, (list, tuple, dict)):
            raise TypeError(f"Object of type {o.__class__.__name__} "
                            f"is not JSON serializable")
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    markers = set() if markers is None else markers
    mark = id(o)
    if mark in markers:
        raise ValueError("Circular reference detected")
    markers.add(mark)
    inner = indent + "  "
    if isinstance(o, dict):
        text = "{" + inner + ("," + inner).join([
            (_quote(k) if type(k) is str else _key_text(k)) + ": "
            + (_SCALAR_TEXT[type(v)](v) if type(v) in _SCALAR_TEXT
               else _json_text(v, inner, markers))
            for k, v in o.items()]) + indent + "}"
    else:
        text = "[" + inner + ("," + inner).join([
            _SCALAR_TEXT[type(v)](v) if type(v) in _SCALAR_TEXT
            else _json_text(v, inner, markers) for v in o]) + indent + "]"
    markers.discard(mark)
    return text


def _emit(args, data, build_rows):
    """Print data as JSON, or as csv or text the rows that build_rows()
    makes, built only for those two formats."""
    if args.format == "json":
        text = _json_text(data) + "\n"
    elif args.format == "csv":
        text = "\n".join(",".join(str(c).replace(",", ";") for c in row)
                         for row in build_rows()) + "\n"
    else:
        rows = build_rows()
        widths = [max(len(str(row[i])) for row in rows)
                  for i in range(len(rows[0]))] if rows else []
        lines = ["  ".join(str(c).ljust(w) for c, w in zip(row, widths))
                 for row in rows]
        if "pass" in data:
            lines.append(f"pass: {data['pass']}")
        text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out}: "
                             f"{exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def run(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        if args.budget is not None and args.budget <= 0:
            raise UsageError("--budget must be positive")
        for flag in ("n", "max_size", "d"):
            if getattr(args, flag, 0) < 0:
                raise UsageError(f"--{flag.replace('_', '-')} must not be "
                                 f"negative")
        if getattr(args, "d", 1) < 1:
            raise UsageError("--d must be at least 1, the number of "
                             "variables")
        data, build_rows = COMMANDS[args.command][2](args)
        _emit(args, data, build_rows)
    except (UsageError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        msg = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {msg}",
              file=sys.stderr)
        return 3
    return 0 if data.get("pass", True) else 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
