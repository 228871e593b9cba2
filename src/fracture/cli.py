"""Command line front end.

Subcommands mirror the library layers: construct emits a coloring plus
its recomputed report, eval recomputes the report for any coloring JSON,
designs builds and validates block designs and factorizations, bounds
and table print exact bound records, search runs the exhaustive search
for f or z (under --budget, the best coloring found when the budget
runs out), and verify re-derives whatever a JSON artifact claims and
fails loudly on any mismatch.  Each construct and designs
subcommand is declared once, in ``_CONSTRUCT`` / ``_DESIGNS``: one table
entry gives its help, its arguments and its builder, and drives both the
parser and the dispatch.

Exit codes: 0 success, 2 bad arguments, unreadable or malformed input,
or infeasible construction, 3 search stopped by budget before proving
optimality (or before reaching any leaf), 4 verification failed.  All
JSON output is sorted and newline-terminated so identical inputs
produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import constructions as cons
from . import designs as designs_mod
from . import search as search_mod
from .core import (
    Coloring, FractureError, coloring_from_dict, f_value, fraction_str, report_dict, z_value,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INVALID = 4


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(obj, output: str | None) -> None:
    _write(_encode(obj, "") + "\n", output)


def _encode(obj, pad: str) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` byte for byte, for a
    value nested at indent ``pad``.

    ``indent`` makes json use its pure-Python encoder, so this recurses
    only through dicts and lists (or tuples) that hold containers, and
    writes every other container with one call to the C encoder: with
    ``",\n" + pad`` as its item separator, it lays the items out exactly
    as ``indent`` would.
    """
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    inner = pad + "  "
    values = obj.values() if isinstance(obj, dict) else obj
    # one issubclass per distinct type, not one isinstance per item
    if not any(issubclass(t, (dict, list, tuple)) for t in set(map(type, values))):
        text = json.dumps(obj, sort_keys=True, separators=(",\n" + inner, ": "))
        return text[0] + "\n" + inner + text[1:-1] + "\n" + pad + text[-1]
    if isinstance(obj, dict):
        if not all(type(key) is str for key in obj):
            # json's own key coercion; its output holds no raw newline
            # but those between items, so re-indenting it is exact
            return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad)
        items = [json.dumps(key) + ": " + _encode(obj[key], inner) for key in sorted(obj)]
        brackets = "{}"
    else:
        items = [_encode(v, inner) for v in obj]
        brackets = "[]"
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + brackets[1]


def _load(path: str | None) -> dict:
    # ValueError covers malformed JSON and integers past Python's digit
    # limit; RecursionError covers arrays nested past the stack
    try:
        if path is None or path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise FractureError(f"unreadable JSON: {exc}") from exc


def _payload(coloring: Coloring) -> dict:
    return {"coloring": coloring.to_dict(), "report": report_dict(coloring)}


def _cmd_construct(args) -> int:
    _dump(_payload(_CONSTRUCT[args.what][2](args)), args.output)
    return EXIT_OK


def _cmd_eval(args) -> int:
    data = _load(args.file)
    inner = data["coloring"] if isinstance(data, dict) and "coloring" in data else data
    _dump(_payload(coloring_from_dict(inner)), args.output)
    return EXIT_OK


def _cmd_designs(args) -> int:
    # constructors validate before returning
    _dump({**_DESIGNS[args.kind][2](args), "valid": True}, args.output)
    return EXIT_OK


def _record_dict(rec: bounds_mod.BoundRecord) -> dict:
    v = rec.value
    rendered = fraction_str(v) if isinstance(v, Fraction) else str(v)
    return {"value": rendered, "float": float(rec), "provenance": rec.provenance}


def _cmd_bounds(args) -> int:
    if args.quantity == "z":
        # the upper catalog refuses r >= 4 at once, before the recursion
        upper = _record_dict(bounds_mod.z_upper_constructions(args.k, args.r))
        out = {
            "k": args.k,
            "r": args.r,
            "lower": _record_dict(bounds_mod.z_lower_best(args.k, args.r)),
            "upper": upper,
        }
    else:
        counting = bounds_mod.f_upper_counting(args.n, args.k, args.r)
        trivial = bounds_mod.f_upper_trivial(args.n, args.k, args.r)
        out = {
            "n": args.n,
            "k": args.k,
            "r": args.r,
            "upper_counting": _record_dict(counting),
            "upper_trivial": _record_dict(trivial),
            "upper": _record_dict(bounds_mod.f_upper_best(args.n, args.k, args.r)),
        }
    _dump(out, args.output)
    return EXIT_OK


def _cmd_table(args) -> int:
    rows = bounds_mod.growth_rate_table()
    if args.json:
        out = []
        for row in rows:
            out.append(
                {
                    "k": row.k,
                    "z_lower": _record_dict(row.z_lower),
                    "z_upper": _record_dict(row.z_upper),
                    "z_exact": row.z_exact,
                    "f_rate_lower": row.f_rate_lower_str,
                    "f_rate_upper": row.f_rate_upper_str,
                }
            )
        _dump(out, args.output)
        return EXIT_OK
    lines = [
        f"{'k':>3} {'z lower':>9} {'z upper':>9} {'exact':>6} {'rate lower':>11} {'rate upper':>11}"
    ]
    for row in rows:
        zl = fraction_str(row.z_lower.value)
        zu = fraction_str(row.z_upper.value)
        mark = "yes" if row.z_exact else ""
        lines.append(
            f"{row.k:>3} {zl:>9} {zu:>9} {mark:>6} {row.f_rate_lower_str:>11} {row.f_rate_upper_str:>11}"
        )
    _write("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_search(args) -> int:
    options = search_mod.SearchOptions(node_budget=args.budget)
    if args.mode == "f":
        res = search_mod.exact_f(args.n, args.k, args.r, options)
        value = res.value
    else:
        res = search_mod.exact_z(args.n, args.k, args.r, options)
        value = fraction_str(res.value)
    out = {
        "metric": args.mode,
        "mode": args.mode,
        "n": args.n,
        "k": args.k,
        "r": args.r,
        "value": value,
        "exhausted": res.exhausted,
        "nodes": res.nodes,
        "witness": res.witness.to_dict(),
        "report": report_dict(res.witness),
    }
    _dump(out, args.output)
    return EXIT_OK if res.exhausted else EXIT_BUDGET


def _same(claim, fresh) -> bool:
    """Equal as JSON values: ``==`` would also take 3.0 or true for 3 and 1."""
    return json.dumps(claim, sort_keys=True) == json.dumps(fresh, sort_keys=True)


def _verify_payload(data: dict) -> tuple[bool, str]:
    if "blocks" in data:
        design = designs_mod.Design(
            data["v"],
            data["strength"],
            data["block_size"],
            tuple(tuple(b) for b in data["blocks"]),
        )
        design.validate()
        return True, "design covers every subset exactly once"
    if "factors" in data:
        dec = designs_mod.MatchingDecomposition(
            data["n"],
            data["r"],
            tuple(tuple(tuple(e) for e in f) for f in data["factors"]),
            complete=data.get("complete", False),
        )
        dec.validate()
        return True, "factors are disjoint maximum matchings"
    if "groups" in data:
        designs_mod.check_diamonds(data["n"], data["groups"])
        return True, "groups are diamonds partitioning K_n"
    if "witness" in data:
        witness = coloring_from_dict(data["witness"])
        if witness.shape.bipartite:
            return False, "a search witness must be a K_n^r coloring, not K_{n,n}"
        for key in ("n", "k", "r"):
            if not _same(data[key], getattr(witness, key)):
                return False, f"{key} is {data[key]}, the witness has {getattr(witness, key)}"
        if data["metric"] == "f":
            got = f_value(witness)
        elif data["metric"] == "z":
            got = fraction_str(z_value(witness))
        else:
            return False, f"metric must be \"f\" or \"z\", got {data['metric']!r}"
        if not _same(got, data["value"]):
            return False, f"witness evaluates to {got}, claim was {data['value']}"
        if not _same(data["report"], report_dict(witness)):
            return False, "report does not match a fresh evaluation of the witness"
        return True, "witness reproduces the claimed value and report"
    if "coloring" in data:
        fresh = report_dict(coloring_from_dict(data["coloring"]))
        if "report" not in data:
            return False, "nothing to check: no report attached"
        if not _same(fresh, data["report"]):
            return False, "report does not match a fresh evaluation"
        return True, "report matches a fresh evaluation"
    if "colors" in data:
        coloring_from_dict(data)
        return True, "coloring is structurally valid"
    return False, "unrecognized artifact shape"


def _cmd_verify(args) -> int:
    data = _load(args.file)
    try:
        ok, reason = _verify_payload(data)
    except (FractureError, KeyError, TypeError, ValueError) as exc:
        ok, reason = False, f"{type(exc).__name__}: {exc}"
    _dump({"valid": ok, "reason": reason}, args.output)
    return EXIT_OK if ok else EXIT_INVALID


# name -> (help, {argument: default, None meaning required}, builder of the
# parsed args); "name" is construct base's positional, --base is a string,
# and every other argument is an int.
_CONSTRUCT = {
    "base": ("a registry base coloring", {"name": None},
             lambda a: cons.base_registry(a.name).coloring),
    "blow-up": ("lift a base coloring to n vertices", {"--base": None, "--n": None},
                lambda a: cons.blow_up(cons.base_registry(a.base), a.n)),
    "matching-split": ("k equal matchings when k divides C(n,2)", {"--n": None, "--k": None},
                       lambda a: cons.coloring_tk2(a.n, a.k)),
    "factor-split": ("split each perfect-matching factor into t colors",
                     {"--n": None, "--r": None, "--t": None},
                     lambda a: cons.coloring_baranyai_split(a.n, a.r, a.t)),
    "equitable": ("k near-equal matchings for large k", {"--n": None, "--r": 2, "--k": None},
                  lambda a: cons.coloring_equitable(a.n, a.r, a.k)),
    "nminus1": ("n-1 colors, each splitting into floor(n/2) pieces", {"--n": None},
                lambda a: cons.coloring_nminus1(a.n)),
    "ncolors": ("n colors, each splitting into floor((n-1)/2) pieces", {"--n": None},
                lambda a: cons.coloring_n(a.n)),
    "trivial": ("every edge its own color", {"--n": None, "--r": 2},
                lambda a: cons.trivial_coloring(a.n, a.r)),
    "bipartite-double": ("transfer a base coloring to K_{n,n}", {"--base": None},
                         lambda a: cons.bipartite_from_clique(cons.base_registry(a.base).coloring)),
    "bipartite-blow-up": ("blow a base coloring up to K_{n,n}", {"--base": None, "--n": None},
                          lambda a: cons.bipartite_blow_up(cons.base_registry(a.base), a.n)),
}

_DESIGNS = {
    "pg": ("projective plane of prime-power order", {"--q": None},
           lambda a: designs_mod.projective_plane(a.q).to_dict()),
    "ag": ("affine plane of prime-power order", {"--q": None},
           lambda a: designs_mod.affine_plane(a.q).to_dict()),
    "sqs": ("quadruple system on 2^m points", {"--m": None},
            lambda a: designs_mod.boolean_sqs(a.m).to_dict()),
    "inversive": ("3-design from a projective line", {"--q": None},
                  lambda a: designs_mod.inversive_plane(a.q).to_dict()),
    "baranyai": ("partition all r-sets into perfect matchings", {"--n": None, "--r": None},
                 lambda a: designs_mod.baranyai(a.n, a.r).to_dict()),
    "one-factorization": ("perfect matchings of an even clique", {"--n": None},
                          lambda a: designs_mod.one_factorization(a.n).to_dict()),
    "near-one-factorization": ("maximum matchings of an odd clique", {"--n": None},
                               lambda a: designs_mod.near_one_factorization(a.n).to_dict()),
    "diamonds": ("partition a clique into 4-vertex 5-edge pieces", {"--n": None},
                 lambda a: {"n": a.n, "groups": [[list(e) for e in g] for g in
                                                 designs_mod.k4minus_decomposition(a.n)]}),
}


def _add_output(p) -> None:
    p.add_argument("--output", help="write JSON here instead of stdout")


def _add_table(sub, command: str, text: str, dest: str, table: dict) -> None:
    group = sub.add_parser(command, help=text).add_subparsers(dest=dest, required=True)
    for name, (help_text, arguments, _) in table.items():
        p = group.add_parser(name, help=help_text)
        for arg, default in arguments.items():
            if arg == "name":
                p.add_argument(arg, help="one of: " + ", ".join(cons.base_registry_names()))
            elif default is None:
                p.add_argument(arg, type=None if arg == "--base" else int, required=True)
            else:
                p.add_argument(arg, type=int, default=default)
        _add_output(p)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: every call returns
    the same object, so callers must not mutate it.  argparse keeps no
    state between ``parse_args`` calls, so reusing it is safe."""
    parser = argparse.ArgumentParser(
        prog="fracture",
        description="colorings of complete uniform hypergraphs with many "
        "components per color class",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_table(sub, "construct", "build a named coloring", "what", _CONSTRUCT)

    p = sub.add_parser("eval", help="recompute the report for a coloring JSON")
    p.add_argument("file", nargs="?", help="path or - for stdin")
    _add_output(p)

    _add_table(sub, "designs", "build and validate a design", "kind", _DESIGNS)

    pb = sub.add_parser("bounds", help="exact bound records")
    pbs = pb.add_subparsers(dest="quantity", required=True)
    p = pbs.add_parser("z", help="incidence fraction bounds")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    _add_output(p)
    p = pbs.add_parser("f", help="component count upper bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    _add_output(p)

    p = sub.add_parser("table", help="two-sided summary for k = 3..13")
    p.add_argument("--json", action="store_true")
    _add_output(p)

    ps = sub.add_parser("search", help="exact optimum, or the best found within --budget")
    ps.add_argument("mode", choices=["f", "z"])
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--r", type=int, default=2)
    ps.add_argument("--budget", type=int, help="node budget; exit 3 with the best found if hit")
    _add_output(ps)

    p = sub.add_parser("verify", help="recheck any JSON artifact this tool emits")
    p.add_argument("file", nargs="?", help="path or - for stdin")
    _add_output(p)

    return parser


_HANDLERS = {
    "construct": _cmd_construct,
    "eval": _cmd_eval,
    "designs": _cmd_designs,
    "bounds": _cmd_bounds,
    "table": _cmd_table,
    "search": _cmd_search,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (FractureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, search_mod.SearchBudgetError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
