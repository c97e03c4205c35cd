"""Command-line surface: machine-readable counts and the verification suite.

Every command prints a single JSON object by default (big integers as
decimal strings, polynomials as coefficient-string lists) and exits 0 on
success, 2 on invalid parameters, 3 on budget exhaustion, 4 on a
verification failure.  `--format csv` emits key,value rows (the table for
`tables`, a row per check for `verify`).  Output is byte-stable for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, facets1d, frontier, oracle, seq1d, seq2d, verify
from .errors import (
    BudgetExceededError,
    InvalidParamsError,
    PoolRegionsError,
    RegimeNotCoveredError,
    VerificationError,
)
from .model import windows_1d, windows_3xn
from .polyalg import RationalGF

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4


def _poly_strings(p):
    return [str(c) for c in p]


def _gf_json(gf: RationalGF):
    return {"num": _poly_strings(gf.num), "den": _poly_strings(gf.den)}


def _emit(args, params, result, provenance):
    payload = {
        "command": args.command,
        "params": params,
        "result": result,
        "provenance": provenance,
        "version": __version__,
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        rows = [("key", "value"), *_flat("result", result), ("provenance", ";".join(provenance))]
        _print_csv(rows)


def _print_csv(rows):
    import csv  # only the CSV path pays for the import

    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)


def _flat(prefix, value):
    """(key, value) rows: nested containers get index keys, lists of scalars join with ';'."""
    if not isinstance(value, (dict, list, tuple)):
        yield prefix, value
    elif isinstance(value, dict) or any(isinstance(x, (dict, list, tuple)) for x in value):
        for k, v in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _flat(f"{prefix}.{k}", v)
    else:
        yield prefix, ";".join(map(str, value))


def _family(args):
    if args.grid3xn is not None:
        if (args.k, args.s, args.n) != (None, None, None):
            raise InvalidParamsError("--grid3xn excludes --k/--s/--n")
        return windows_3xn(args.grid3xn), {"grid3xn": args.grid3xn}
    if args.k is None or args.s is None or args.n is None:
        raise InvalidParamsError("need --k/--s/--n or --grid3xn")
    return windows_1d(args.n, args.k, args.s), {"n": args.n, "k": args.k, "s": args.s}


def _cmd_vertices(args):
    methods = [args.method] if args.method else seq1d.count_methods(args.k, args.s)
    values = {m: seq1d.count_1d(args.n, args.k, args.s, m, budget=args.budget) for m in methods}
    value = verify.agreed_value(args.command, values)
    _emit(args, {"n": args.n, "k": args.k, "s": args.s}, str(value), sorted(values))


def _cmd_gf(args):
    params = {"k": args.k, "s": args.s}
    if args.closed:
        closed = seq1d.gf_closed(args.k, args.s)
        result = {"gf": _gf_json(closed.gf), "series_form": "1 + sum b_n x^n"}
        _emit(args, params, result, list(closed.regimes))
        return
    g = seq1d.gf_1d(args.k, args.s)
    result = {"gf": _gf_json(g), "series_form": "sum b_(n+1) x^n"}
    _emit(args, params, result, ["matrix"])


def _cmd_fvector(args):
    fam, params = _family(args)
    fv = frontier.fvector(fam, budget=args.budget)
    result = {
        "counts": {str(dim): str(c) for dim, c in sorted(fv.counts.items())},
        "polytope_dim": fv.polytope_dim,
        "total_nonempty": str(fv.total()),
    }
    _emit(args, params, result, ["frontier"])


def _cmd_total_faces(args):
    fam, params = _family(args)
    total = frontier.fvector(fam, budget=args.budget).total() + 1
    _emit(args, params, str(total), ["frontier"])


def _cmd_facets(args):
    params = {"n": args.n, "k": args.k, "s": args.s}
    if args.paper_literal:
        if args.hrep or args.oracle:
            raise InvalidParamsError("--paper-literal excludes --hrep and --oracle")
        report = facets1d.printed_description_diff(args.n, args.k, args.s, args.budget)
        _emit(args, params, report, ["oracle", "derived"])
        return
    formula = facets1d.facet_count_formula(args.n, args.k, args.s)
    result = {"count": str(formula)}
    provenance = ["formula"]
    if args.hrep:
        rep = facets1d.h_representation(args.n, args.k, args.s)
        result["hrep"] = [
            {"coeffs": list(r.coeffs), "rhs": r.rhs, "sense": r.sense, "label": r.label}
            for r in rep.rows()
        ]
        provenance.append("derived-hrep")
    if args.oracle:
        fv = frontier.fvector(windows_1d(args.n, args.k, args.s), budget=args.budget)
        verify.agreed_value(args.command, {"formula": formula, "frontier": fv.facet_count()})
        provenance.append("frontier")
    _emit(args, params, result, provenance)


def _cmd_growth(args):
    if args.grid3xn:
        if args.k is not None or args.s is not None or args.large_strides:
            raise InvalidParamsError("--grid3xn excludes --k/--s and --large-strides")
        value = seq2d.growth_2d()
        _emit(args, {"grid3xn": True}, repr(value), ["matrix-root"])
        return
    if args.k is None or args.s is None:
        raise InvalidParamsError("growth needs --k/--s or --grid3xn")
    params = {"k": args.k, "s": args.s}
    value = seq1d.growth_1d(args.k, args.s)
    provenance = ["matrix-root"]
    if args.large_strides:
        if not seq1d.large_strides_regime(args.k, args.s):
            raise RegimeNotCoveredError(
                f"the closed growth holds only for ceil(k/2) <= s <= k-2, got (k={args.k}, s={args.s})"
            )
        closed = seq1d.growth_large_strides(args.k, args.s)
        provenance.append("closed-form")
        verify.agreed_value(args.command, {"matrix-root": value, "closed-form": closed}, tol=1e-9)
    _emit(args, params, repr(value), provenance)


def _cmd_grid3xn(args):
    params = {"n": args.n, "method": args.method or "all"}
    if args.class_counts:
        if args.method:
            raise InvalidParamsError("--class-counts excludes --method")
        counts = seq2d.class_counts(args.n, budget=args.budget)
        result = {"class_counts": [str(c) for c in counts], "total": str(sum(counts))}
        _emit(args, params, result, ["oracle"])
        return
    methods = [args.method] if args.method else seq2d.count_methods(args.n)
    values = {m: seq2d.count_2d(args.n, m, budget=args.budget) for m in methods}
    value = verify.agreed_value(args.command, values)
    _emit(args, params, str(value), sorted(values))


def _cmd_grid2xn(args):
    _emit(args, {"n": args.n}, str(seq2d.count_2xn(args.n)), ["matrix"])


def _cmd_regions(args):
    fam, params = _family(args)
    params.update({"sample": args.sample, "seed": args.seed})
    distinct, all_faces = oracle.sample_regions(fam, args.sample, args.seed)
    result = {"distinct": str(distinct), "all_faces": all_faces}
    _emit(args, params, result, ["sampling"])


# the golden tables' rows are the k values, their columns n = 1, 2, ...
_TABLE_KS = tuple(verify.EDGES_TABLE)
_TABLE_NS = range(1, 1 + len(verify.EDGES_TABLE[_TABLE_KS[0]]))


def _cmd_tables(args):
    table = verify.face_tables(_TABLE_KS, args.nmax, args.budget)[args.kind]
    rows = {str(k): [str(v) for v in values] for k, values in table.items()}
    if args.format == "csv":
        header = ["k\\n", *range(1, args.nmax + 1)]
        _print_csv([header] + [[k, *values] for k, values in rows.items()])
    else:
        _emit(args, {"kind": args.kind, "nmax": args.nmax}, rows, ["frontier"])


def _cmd_verify(args):
    report = verify.run_suite(args.level)
    if args.format == "json":
        print(json.dumps(report))
    else:
        _print_csv(("PASS" if c["ok"] else "FAIL", c["name"], c["detail"]) for c in report["checks"])
    if not report["ok"]:
        return EXIT_VERIFY


# each flag is (name, add_argument keywords)
_KS = (("--k", {"type": int, "required": True}), ("--s", {"type": int, "required": True}))
_KSN = (*_KS, ("--n", {"type": int, "required": True}))
_FAMILY = (
    ("--k", {"type": int}),
    ("--s", {"type": int}),
    ("--n", {"type": int}),
    ("--grid3xn", {"type": int, "metavar": "N",
                   "help": "use the 3-row grid with N columns instead of --k/--s/--n"}),
)

# command name -> (help, handler, flags)
COMMANDS = {
    "vertices": ("1-D vertex count b_n", _cmd_vertices,
                 (*_KSN, ("--method", {"choices": seq1d.COUNT_METHODS}))),
    "gf": ("1-D generating function", _cmd_gf, (
        *_KS,
        ("--closed", {"action": "store_true",
                      "help": "closed form, when covered (default: transfer-matrix form)"}),
    )),
    "fvector": ("face counts by dimension (frontier DP)", _cmd_fvector, _FAMILY),
    "total-faces": ("total face count incl. the empty face", _cmd_total_faces, _FAMILY),
    "facets": ("1-D facet count / H-representation", _cmd_facets, (
        *_KSN,
        ("--hrep", {"action": "store_true", "help": "emit the inequality description"}),
        ("--oracle", {"action": "store_true",
                      "help": "cross-check the formula against the frontier DP's facet count"}),
        ("--paper-literal", {"action": "store_true",
                             "help": "diff report for the uncorrected published description"}),
    )),
    "growth": ("exponential growth rate of vertex counts", _cmd_growth, (
        ("--k", {"type": int}),
        ("--s", {"type": int}),
        ("--grid3xn", {"action": "store_true", "help": "3-row grid instead of 1-D"}),
        ("--large-strides", {"action": "store_true",
                             "help": "cross-check the closed large-strides formula"}),
    )),
    "grid3xn": ("vertex counts V_n of the 3-row grid", _cmd_grid3xn, (
        ("--n", {"type": int, "required": True}),
        ("--method", {"choices": seq2d.COUNT_METHODS}),
        ("--class-counts", {"action": "store_true",
                            "help": "per-class vertex counts (oracle; --budget bounds n)"}),
    )),
    "grid2xn": ("vertex counts of the 2-row grid", _cmd_grid2xn,
                (("--n", {"type": int, "required": True}),)),
    "regions": ("sample gradient regions of the pooling map", _cmd_regions, (
        *_FAMILY,
        ("--sample", {"type": int, "required": True}),
        ("--seed", {"type": int, "default": 0}),
    )),
    "tables": ("reproduce the golden edge/total-face tables", _cmd_tables, (
        ("--kind", {"choices": ("edges", "total"), "required": True}),
        ("--nmax", {"type": int, "default": 4, "choices": _TABLE_NS}),
    )),
    "verify": ("run the self-verification suite", _cmd_verify,
               (("--level", {"choices": ("quick", "full"), "default": "quick"}),)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolregions",
        description="Exact counts of max-pooling linearity regions and the faces of their polytopes.",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET,
                        help="work budget: candidate choice lists of an oracle walk, "
                             "(state, chosen set) pairs of the frontier DP")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    return parser


_PARSER = None


def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser unchanged, so one instance serves every call
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # counts such as V_4500 have more digits than the default str(int)
    # limit; Pythons before 3.10.7 have no limit and no setter
    max_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_max_digits = getattr(sys, "set_int_max_str_digits", lambda _: None)
    set_max_digits(0)
    try:
        oracle.check_budget(args.budget)
        return args.func(args) or EXIT_OK
    except BudgetExceededError as exc:
        print(json.dumps({"error": "budget-exceeded", "detail": str(exc)}))
        return EXIT_BUDGET
    except VerificationError as exc:
        print(json.dumps({"error": "verification-failure", "detail": str(exc)}))
        return EXIT_VERIFY
    except PoolRegionsError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}))
        return EXIT_INVALID
    finally:
        set_max_digits(max_digits)


if __name__ == "__main__":
    sys.exit(main())
