"""Batch command line front end with stable machine-readable output.

Subcommands: hall-table, hecke-table, hecke-module, segal-check,
wreath-char-table, ch-verify, schurweyl.  JSON is the source of truth; csv
and text are projections.  Exit codes: 0 pass/success, 1 verdict failure,
2 usage or budget error.  Rationals are emitted as strings "p/q";
cyclotomic values as polynomial strings over the printed conductor.
"""

import argparse
import json
import sys

from . import BudgetExceededError, UsageError
from .groups import named_group, named_subgroup
from .protoab import make_instance


def _add_common(p):
    p.add_argument("--budget", type=int, default=None,
                   help="enumeration budget (objects/morphisms)")
    p.add_argument("--seed", type=int, default=None,
                   help="accepted and ignored; all computations are "
                        "deterministic")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "csv", "text"),
                   default="json")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hallalg",
        description="exact Hall algebra / 2-Segal / Hecke / wreath-character "
                    "workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hall-table", help="Hall structure constants")
    p.add_argument("--family", required=True,
                   choices=("vect-fq", "f1-free", "ab-p-groups"))
    p.add_argument("--q", type=int, help="field size for vect-fq")
    p.add_argument("--p", type=int, help="prime for ab-p-groups")
    p.add_argument("--G", dest="group", help="group spec for f1-free")
    p.add_argument("--bound", type=int, required=True,
                   help="size bound (dimension / rank / group order)")
    _add_common(p)

    p = sub.add_parser("hecke-table", help="Hecke algebra constants")
    p.add_argument("--G", dest="group", required=True)
    p.add_argument("--H", dest="subgroup", required=True)
    _add_common(p)

    p = sub.add_parser("hecke-module",
                       help="action of the Hecke algebra on H\\G/P")
    p.add_argument("--G", dest="group", required=True)
    p.add_argument("--H", dest="subgroup", required=True)
    p.add_argument("--P", dest="module_subgroup", required=True)
    _add_common(p)

    p = sub.add_parser("segal-check",
                       help="simplicial, 2-Segal and unitality checks")
    p.add_argument("--construction", required=True, choices=("s", "hecke"))
    p.add_argument("--G", dest="group")
    p.add_argument("--H", dest="subgroup")
    p.add_argument("--family", choices=("vect-fq", "f1-free", "ab-p-groups"))
    p.add_argument("--q", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--bound", type=int)
    _add_common(p)

    p = sub.add_parser("wreath-char-table",
                       help="character table of G wr S_n")
    p.add_argument("--G", dest="group", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("ch-verify",
                       help="characteristic map is a ring homomorphism")
    p.add_argument("--G", dest="group", required=True)
    p.add_argument("--max-size", type=int, default=3)
    _add_common(p)

    p = sub.add_parser("schurweyl", help="Schur-Weyl counting report")
    p.add_argument("--G", dest="group", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    _add_common(p)
    return ap


# -- commands -------------------------------------------------------------------


def cmd_hall_table(args):
    inst = make_instance(args.family, q=args.q, p=args.p, group=args.group,
                         bound=args.bound)
    from .hall import check_associativity, hall_constants
    table = hall_constants(inst)
    ok, wit = check_associativity(table)
    data = table.to_json()
    data["associative_unital"] = ok
    if wit:
        data["counterexample"] = wit
    data["pass"] = ok
    rows = [("N", "L", "M", "g")] + [
        (r["N"], r["L"], r["M"], str(r["g"])) for r in data["constants"]]
    return data, rows


def cmd_hecke_table(args):
    from .waldhausen.hecke import HeckeAlgebra
    G = named_group(args.group)
    H = named_subgroup(G, args.subgroup)
    alg = HeckeAlgebra(G, H)
    ok, wit = alg.check_associativity_and_unit()
    data = alg.to_json()
    data["oracle_agrees"] = alg.oracle_agrees
    data["associative_unital"] = ok
    data["pass"] = (ok and alg.extremal_faithful and alg.oracle_agrees
                    and alg.integral)
    rows = [("a", "b", "product")] + [
        (str(r["a"]), str(r["b"]), json.dumps(r["product"]))
        for r in data["constants"]]
    return data, rows


def cmd_hecke_module(args):
    from .waldhausen.hecke import HeckeAlgebra, HeckeModule
    G = named_group(args.group)
    H = named_subgroup(G, args.subgroup)
    P = named_subgroup(G, args.module_subgroup)
    alg = HeckeAlgebra(G, H)
    mod = HeckeModule(alg, P)
    ok, wit = mod.check_module_axioms()
    data = mod.to_json()
    data["module_axioms"] = ok
    data["pass"] = (ok and mod.oracle_agrees and mod.integral
                    and alg.oracle_agrees and alg.integral)
    rows = [("a", "v", "result")] + [
        (str(r["a"]), str(r["v"]), json.dumps(r["result"]))
        for r in data["action"]]
    return data, rows


def cmd_segal_check(args):
    from .waldhausen.segal import check_2segal_degree3, check_pointed
    from .waldhausen.simplicial import check_simplicial_identities
    budget = args.budget or 10 ** 6
    if args.construction == "hecke":
        if not args.group or not args.subgroup:
            raise UsageError("segal-check --construction hecke needs "
                             "--G and --H")
        from .waldhausen.hecke import hecke_waldhausen
        G = named_group(args.group)
        H = named_subgroup(G, args.subgroup)
        x = hecke_waldhausen(G, H, depth=3)
        label = f"hecke({G.name},{H.name})"
    else:
        if not args.family or args.bound is None:
            raise UsageError("segal-check --construction s needs "
                             "--family and --bound")
        from .waldhausen.sconstruction import s_construction
        inst = make_instance(args.family, q=args.q, p=args.p,
                             group=args.group, bound=args.bound)
        x = s_construction(inst, depth=3)
        label = f"s({inst.family})"
    simp = check_simplicial_identities(x)
    seg = check_2segal_degree3(x, budget=budget)
    poi = check_pointed(x, budget=budget)
    ok = simp.ok and seg.ok and poi.ok
    data = {
        "construction": label,
        "simplicial_identities": simp.to_json(),
        "two_segal_degree3": seg.to_json(),
        "pointed": poi.to_json(),
        "witnesses": simp.violations + seg.witnesses + poi.witnesses,
        "pass": ok,
    }
    rows = [("check", "pass")] + [
        ("simplicial", str(simp.ok)), ("2-segal", str(seg.ok)),
        ("pointed", str(poi.ok))]
    return data, rows


def cmd_wreath_char_table(args):
    from .wreath.chmap import character_table
    from .wreath.wreathgroup import DEFAULT_WREATH_BUDGET
    G = named_group(args.group)
    tab = character_table(G, args.n, args.budget or DEFAULT_WREATH_BUDGET)
    ok, wit = tab.check_orthogonality()
    data = tab.to_json()
    data["orthogonal"] = ok
    data["pass"] = ok
    header = ["label"] + [json.dumps(l.to_json()) for l in tab.class_labels]
    rows = [tuple(header)]
    for i, l in enumerate(tab.irr_labels):
        rows.append(tuple([json.dumps(l.to_json())]
                          + [v.to_string() for v in tab.values[i]]))
    return data, rows


def cmd_ch_verify(args):
    from .wreath.chmap import ch_ring_hom_check
    from .wreath.wreathgroup import DEFAULT_WREATH_BUDGET
    G = named_group(args.group)
    ok, failures = ch_ring_hom_check(G, args.max_size,
                                     args.budget or DEFAULT_WREATH_BUDGET)
    data = {"group": G.name, "max_total_size": args.max_size,
            "pass": ok, "failures": failures}
    rows = [("pass",), (str(ok),)]
    return data, rows


def cmd_schurweyl(args):
    from .schurweyl import schur_weyl_report
    G = named_group(args.group)
    rep = schur_weyl_report(G, args.n, args.d)
    data = rep.to_json()
    rows = [("label", "dim_X", "dim_R", "kernel")] + [
        (json.dumps(r["label"]), str(r["dim_X"]), str(r["dim_R"]),
         str(r["kernel"])) for r in data["rows"]]
    return data, rows


COMMANDS = {
    "hall-table": cmd_hall_table,
    "hecke-table": cmd_hecke_table,
    "hecke-module": cmd_hecke_module,
    "segal-check": cmd_segal_check,
    "wreath-char-table": cmd_wreath_char_table,
    "ch-verify": cmd_ch_verify,
    "schurweyl": cmd_schurweyl,
}


def _emit(args, data, rows):
    if args.format == "json":
        text = json.dumps(data, indent=2) + "\n"
    elif args.format == "csv":
        text = "\n".join(",".join(str(c).replace(",", ";") for c in row)
                         for row in rows) + "\n"
    else:
        widths = [max(len(str(row[i])) for row in rows)
                  for i in range(len(rows[0]))] if rows else []
        lines = ["  ".join(str(c).ljust(w) for c, w in zip(row, widths))
                 for row in rows]
        if "pass" in data:
            lines.append(f"pass: {data['pass']}")
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.budget is not None and args.budget <= 0:
            raise UsageError("--budget must be positive")
        data, rows = COMMANDS[args.command](args)
    except (UsageError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(args, data, rows)
    return 0 if data.get("pass", True) else 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
