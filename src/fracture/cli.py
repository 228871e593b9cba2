"""Command line front end.

Subcommands mirror the library layers: construct emits a coloring plus
its recomputed report, eval recomputes the report for any coloring JSON,
designs builds and validates block designs and factorizations, bounds
and table print exact bound records, search runs the exhaustive or
randomized optimizers, and verify re-derives whatever a JSON artifact
claims and fails loudly on any mismatch.

Exit codes: 0 success, 2 bad arguments, unreadable or malformed input,
or infeasible construction, 3 search stopped by budget before proving
optimality (or before reaching any leaf), 4 verification failed.  All
JSON output is sorted and newline-terminated so identical inputs
produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import constructions as cons
from . import designs as designs_mod
from . import search as search_mod
from .core import (
    Coloring,
    FractureError,
    coloring_from_dict,
    f_value,
    fraction_str,
    report_dict,
    z_value,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INVALID = 4


def _dump(obj, output: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    what = args.what
    if what == "base":
        payload = _payload(cons.base_registry(args.name).coloring)
    elif what == "blow-up":
        payload = _payload(cons.blow_up(cons.base_registry(args.base), args.n))
    elif what == "matching-split":
        payload = _payload(cons.coloring_tk2(args.n, args.k))
    elif what == "factor-split":
        payload = _payload(cons.coloring_baranyai_split(args.n, args.r, args.t))
    elif what == "equitable":
        payload = _payload(cons.coloring_equitable(args.n, args.r, args.k))
    elif what == "nminus1":
        payload = _payload(cons.coloring_nminus1(args.n))
    elif what == "ncolors":
        payload = _payload(cons.coloring_n(args.n))
    elif what == "trivial":
        payload = _payload(cons.trivial_coloring(args.n, args.r))
    elif what == "bipartite-double":
        base = cons.base_registry(args.base)
        payload = _payload(cons.bipartite_from_clique(base.coloring))
    elif what == "bipartite-blow-up":
        base = cons.base_registry(args.base)
        payload = _payload(cons.bipartite_blow_up(base, args.n))
    else:
        raise FractureError(f"unknown construction {what!r}")
    _dump(payload, args.output)
    return EXIT_OK


def _cmd_eval(args) -> int:
    data = _load(args.file)
    inner = data["coloring"] if isinstance(data, dict) and "coloring" in data else data
    _dump(_payload(coloring_from_dict(inner)), args.output)
    return EXIT_OK


def _cmd_designs(args) -> int:
    kind = args.kind
    if kind == "pg":
        out = designs_mod.projective_plane(args.q).to_dict()
    elif kind == "ag":
        out = designs_mod.affine_plane(args.q).to_dict()
    elif kind == "sqs":
        out = designs_mod.boolean_sqs(args.m).to_dict()
    elif kind == "inversive":
        out = designs_mod.inversive_plane(args.q).to_dict()
    elif kind == "baranyai":
        out = designs_mod.baranyai(args.n, args.r).to_dict()
    elif kind == "one-factorization":
        out = designs_mod.one_factorization(args.n).to_dict()
    elif kind == "near-one-factorization":
        out = designs_mod.near_one_factorization(args.n).to_dict()
    elif kind == "diamonds":
        groups = designs_mod.k4minus_decomposition(args.n)
        out = {"n": args.n, "groups": [[list(e) for e in g] for g in groups]}
    else:
        raise FractureError(f"unknown design kind {kind!r}")
    out["valid"] = True  # constructors validate before returning
    _dump(out, args.output)
    return EXIT_OK


def _record_dict(rec: bounds_mod.BoundRecord) -> dict:
    v = rec.value
    if isinstance(v, Fraction):
        rendered = fraction_str(v)
    else:
        rendered = str(v)
    return {"value": rendered, "float": float(rec), "provenance": rec.provenance}


def _cmd_bounds(args) -> int:
    if args.quantity == "z":
        out = {
            "k": args.k,
            "r": args.r,
            "lower": _record_dict(bounds_mod.z_lower_best(args.k, args.r)),
            "upper": _record_dict(bounds_mod.z_upper_constructions(args.k, args.r)),
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
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_search(args) -> int:
    options = search_mod.SearchOptions(node_budget=args.budget)
    if args.mode == "f":
        res = search_mod.exact_f(args.n, args.k, args.r, options)
        value = res.value
    elif args.mode == "z":
        res = search_mod.exact_z(args.n, args.k, args.r, options)
        value = fraction_str(res.value)
    else:
        res = search_mod.randomized_improve(
            args.n, args.k, args.r, seed=args.seed, restarts=args.restarts
        )
        value = res.value
    out = {
        "metric": "f" if args.mode != "z" else "z",
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
    if args.mode in ("f", "z") and not res.exhausted:
        return EXIT_BUDGET
    return EXIT_OK


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
    if "witness" in data:
        witness = coloring_from_dict(data["witness"])
        if witness.shape.bipartite:
            return False, "a search witness must be a K_n^r coloring, not K_{n,n}"
        for key in ("n", "k", "r"):
            if data[key] != getattr(witness, key):
                return False, f"{key} is {data[key]}, the witness has {getattr(witness, key)}"
        if data["metric"] == "f":
            got = f_value(witness)
        elif data["metric"] == "z":
            got = fraction_str(z_value(witness))
        else:
            return False, f"metric must be \"f\" or \"z\", got {data['metric']!r}"
        if got != data["value"]:
            return False, f"witness evaluates to {got}, claim was {data['value']}"
        if data["report"] != report_dict(witness):
            return False, "report does not match a fresh evaluation of the witness"
        return True, "witness reproduces the claimed value and report"
    if "coloring" in data:
        fresh = report_dict(coloring_from_dict(data["coloring"]))
        if "report" not in data:
            return False, "nothing to check: no report attached"
        if fresh != data["report"]:
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


def _add_output(p) -> None:
    p.add_argument("--output", help="write JSON here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracture",
        description="colorings of complete uniform hypergraphs with many "
        "components per color class",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct", help="build a named coloring")
    pcs = pc.add_subparsers(dest="what", required=True)
    p = pcs.add_parser("base", help="a registry base coloring")
    p.add_argument("name", help="one of: " + ", ".join(cons.base_registry_names()))
    _add_output(p)
    p = pcs.add_parser("blow-up", help="lift a base coloring to n vertices")
    p.add_argument("--base", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_output(p)
    p = pcs.add_parser("matching-split", help="k equal matchings when k divides C(n,2)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_output(p)
    p = pcs.add_parser("factor-split", help="split each perfect-matching factor into t colors")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    _add_output(p)
    p = pcs.add_parser("equitable", help="k near-equal matchings for large k")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--k", type=int, required=True)
    _add_output(p)
    p = pcs.add_parser("nminus1", help="n-1 colors, each splitting into floor(n/2) pieces")
    p.add_argument("--n", type=int, required=True)
    _add_output(p)
    p = pcs.add_parser("ncolors", help="n colors, each splitting into floor((n-1)/2) pieces")
    p.add_argument("--n", type=int, required=True)
    _add_output(p)
    p = pcs.add_parser("trivial", help="every edge its own color")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    _add_output(p)
    p = pcs.add_parser("bipartite-double", help="transfer a base coloring to K_{n,n}")
    p.add_argument("--base", required=True)
    _add_output(p)
    p = pcs.add_parser("bipartite-blow-up", help="blow a base coloring up to K_{n,n}")
    p.add_argument("--base", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_output(p)

    p = sub.add_parser("eval", help="recompute the report for a coloring JSON")
    p.add_argument("file", nargs="?", help="path or - for stdin")
    _add_output(p)

    pd = sub.add_parser("designs", help="build and validate a design")
    pds = pd.add_subparsers(dest="kind", required=True)
    p = pds.add_parser("pg", help="projective plane of prime-power order")
    p.add_argument("--q", type=int, required=True)
    _add_output(p)
    p = pds.add_parser("ag", help="affine plane of prime-power order")
    p.add_argument("--q", type=int, required=True)
    _add_output(p)
    p = pds.add_parser("sqs", help="quadruple system on 2^m points")
    p.add_argument("--m", type=int, required=True)
    _add_output(p)
    p = pds.add_parser("inversive", help="3-design from a projective line")
    p.add_argument("--q", type=int, required=True)
    _add_output(p)
    p = pds.add_parser("baranyai", help="partition all r-sets into perfect matchings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    _add_output(p)
    p = pds.add_parser("one-factorization", help="perfect matchings of an even clique")
    p.add_argument("--n", type=int, required=True)
    _add_output(p)
    p = pds.add_parser("near-one-factorization", help="maximum matchings of an odd clique")
    p.add_argument("--n", type=int, required=True)
    _add_output(p)
    p = pds.add_parser("diamonds", help="partition a clique into 4-vertex 5-edge pieces")
    p.add_argument("--n", type=int, required=True)
    _add_output(p)

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

    ps = sub.add_parser("search", help="exact or randomized optimization")
    ps.add_argument("mode", choices=["f", "z", "improve"])
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--r", type=int, default=2)
    ps.add_argument("--budget", type=int, help="node budget; exit 3 if hit")
    ps.add_argument("--seed", type=int, default=0, help="improve mode only")
    ps.add_argument("--restarts", type=int, default=20, help="improve mode only")
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
