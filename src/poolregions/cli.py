"""Command-line surface: machine-readable counts and the verification suite.

Every command prints a single JSON object by default (big integers as
decimal strings, polynomials as coefficient-string lists) and exits 0 on
success, 2 on invalid parameters, 3 on budget exhaustion, 4 on a
verification failure.  `--format csv` emits key,value lines (or the table
layout for `tables`).  Output is byte-stable for fixed inputs.
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


def _emit(args, command, params, result, provenance):
    payload = {
        "command": command,
        "params": params,
        "result": result,
        "provenance": provenance,
        "version": __version__,
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        _emit_csv(payload)


def _emit_csv(payload):
    def flat(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                yield from flat(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, list):
            yield prefix, ";".join(str(x) for x in value)
        else:
            yield prefix, value

    print("key,value")
    for key, value in flat("result", payload["result"]):
        print(f"{key},{value}")
    print(f"provenance,{';'.join(payload['provenance'])}")


def _family(args):
    if args.grid3xn is not None:
        if (args.k, args.s, args.n) != (None, None, None):
            raise InvalidParamsError("--grid3xn excludes --k/--s/--n")
        return windows_3xn(args.grid3xn), {"grid3xn": args.grid3xn}
    if args.k is None or args.s is None or args.n is None:
        raise InvalidParamsError("need --k/--s/--n or --grid3xn")
    return windows_1d(args.n, args.k, args.s), {"n": args.n, "k": args.k, "s": args.s}


def _cmd_vertices(args):
    params = {"n": args.n, "k": args.k, "s": args.s}
    if args.method:
        value = seq1d.count_1d(args.n, args.k, args.s, args.method, budget=args.budget)
        _emit(args, "vertices", params, str(value), [args.method])
        return EXIT_OK
    if args.k <= args.s:
        # the walk model needs k > s; below it only the closed route (k^n) applies
        values = {"closed": seq1d.count_1d(args.n, args.k, args.s, "closed")}
    else:
        values = {m: seq1d.count_1d(args.n, args.k, args.s, m) for m in ("matrix", "gf")}
        try:
            values["closed"] = seq1d.count_1d(args.n, args.k, args.s, "closed")
        except RegimeNotCoveredError:
            pass
    value = verify.agreed_value("vertices", values)
    _emit(args, "vertices", params, str(value), sorted(values))
    return EXIT_OK


def _cmd_gf(args):
    params = {"k": args.k, "s": args.s}
    if args.closed:
        closed = seq1d.gf_closed(args.k, args.s)
        result = {"gf": _gf_json(closed.gf), "series_form": "1 + sum b_n x^n"}
        _emit(args, "gf", params, result, list(closed.regimes))
        return EXIT_OK
    g = seq1d.gf_1d(args.k, args.s)
    result = {"gf": _gf_json(g), "series_form": "sum b_(n+1) x^n"}
    _emit(args, "gf", params, result, ["matrix"])
    return EXIT_OK


def _cmd_fvector(args):
    fam, params = _family(args)
    fv = frontier.fvector(fam, budget=args.budget)
    result = {
        "counts": {str(dim): str(c) for dim, c in sorted(fv.counts.items())},
        "polytope_dim": fv.polytope_dim,
        "total_nonempty": str(fv.total()),
    }
    _emit(args, "fvector", params, result, ["frontier"])
    return EXIT_OK


def _cmd_total_faces(args):
    fam, params = _family(args)
    total = frontier.fvector(fam, budget=args.budget).total() + 1
    _emit(args, "total-faces", params, str(total), ["frontier"])
    return EXIT_OK


def _cmd_facets(args):
    params = {"n": args.n, "k": args.k, "s": args.s}
    if args.paper_literal:
        if args.hrep or args.oracle:
            raise InvalidParamsError("--paper-literal excludes --hrep and --oracle")
        fam = windows_1d(args.n, args.k, args.s)
        report = facets1d.printed_description_diff(
            args.n, args.k, args.s, oracle.enumerate_vertices(fam, budget=args.budget)
        )
        _emit(args, "facets", params, report, ["oracle", "derived"])
        return EXIT_OK
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
        verify.agreed_value("facets", {"formula": formula, "frontier": fv.facet_count()})
        provenance.append("frontier")
    _emit(args, "facets", params, result, provenance)
    return EXIT_OK


def _cmd_growth(args):
    if args.grid3xn:
        if args.k is not None or args.s is not None or args.large_strides:
            raise InvalidParamsError("--grid3xn excludes --k/--s and --large-strides")
        value = seq2d.growth_2d()
        _emit(args, "growth", {"grid3xn": True}, repr(value), ["matrix-root"])
        return EXIT_OK
    if args.k is None or args.s is None:
        raise InvalidParamsError("growth needs --k/--s or --grid3xn")
    params = {"k": args.k, "s": args.s}
    value = seq1d.growth_1d(args.k, args.s)
    provenance = ["matrix-root"]
    if args.large_strides:
        closed = seq1d.growth_large_strides(args.k, args.s)
        provenance.append("closed-form")
        verify.agreed_value("growth", {"matrix-root": value, "closed-form": closed}, tol=1e-9)
    _emit(args, "growth", params, repr(value), provenance)
    return EXIT_OK


def _cmd_grid3xn(args):
    params = {"n": args.n, "method": args.method or "all"}
    if args.class_counts:
        if args.method:
            raise InvalidParamsError("--class-counts excludes --method")
        cc = seq2d.class_counts(args.n, budget=args.budget)
        result = {"class_counts": [str(c) for c in cc.counts], "total": str(cc.total())}
        _emit(args, "grid3xn", params, result, ["oracle"])
        return EXIT_OK
    if args.method:
        value = seq2d.count_2d(args.n, args.method, budget=args.budget)
        _emit(args, "grid3xn", params, str(value), [args.method])
        return EXIT_OK
    values = {m: seq2d.count_2d(args.n, m) for m in ("b6", "gf")}
    if args.n <= 4:
        values["oracle"] = seq2d.count_2d(args.n, "oracle", budget=args.budget)
    value = verify.agreed_value("grid3xn", values)
    _emit(args, "grid3xn", params, str(value), sorted(values))
    return EXIT_OK


def _cmd_grid2xn(args):
    _emit(args, "grid2xn", {"n": args.n}, str(seq2d.count_2xn(args.n)), ["matrix"])
    return EXIT_OK


def _cmd_regions(args):
    fam, params = _family(args)
    params.update({"sample": args.sample, "seed": args.seed})
    distinct, all_faces = oracle.sample_regions(fam, args.sample, args.seed)
    result = {"distinct": str(distinct), "all_faces": all_faces}
    _emit(args, "regions", params, result, ["sampling"])
    return EXIT_OK


def _cmd_tables(args):
    table = verify.face_tables((3, 4, 5, 6), args.nmax, args.budget)[args.kind]
    rows = {str(k): [str(v) for v in values] for k, values in table.items()}
    if args.format == "csv":
        print("k\\n," + ",".join(str(n) for n in range(1, args.nmax + 1)))
        for k, values in rows.items():
            print(",".join([k, *values]))
    else:
        _emit(args, "tables", {"kind": args.kind, "nmax": args.nmax}, rows, ["frontier"])
    return EXIT_OK


def _cmd_verify(args):
    report = verify.run_suite(args.level)
    if args.format == "json":
        print(json.dumps(report))
    else:
        for check in report["checks"]:
            print(f"{'PASS' if check['ok'] else 'FAIL'},{check['name']},{check['detail']}")
    return EXIT_OK if report["ok"] else EXIT_VERIFY


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

    def add_ks(p, with_n=True):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--s", type=int, required=True)
        if with_n:
            p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("vertices", help="1-D vertex count b_n")
    add_ks(p)
    p.add_argument("--method", choices=seq1d.COUNT_METHODS)
    p.set_defaults(func=_cmd_vertices)

    p = sub.add_parser("gf", help="1-D generating function")
    add_ks(p, with_n=False)
    p.add_argument("--closed", action="store_true",
                   help="closed form, when covered (default: transfer-matrix form)")
    p.set_defaults(func=_cmd_gf)

    def add_family(p):
        p.add_argument("--k", type=int)
        p.add_argument("--s", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--grid3xn", type=int, metavar="N",
                       help="use the 3-row grid with N columns instead of --k/--s/--n")

    p = sub.add_parser("fvector", help="face counts by dimension (frontier DP)")
    add_family(p)
    p.set_defaults(func=_cmd_fvector)

    p = sub.add_parser("total-faces", help="total face count incl. the empty face")
    add_family(p)
    p.set_defaults(func=_cmd_total_faces)

    p = sub.add_parser("facets", help="1-D facet count / H-representation")
    add_ks(p)
    p.add_argument("--hrep", action="store_true", help="emit the inequality description")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check the formula against the frontier DP's facet count")
    p.add_argument("--paper-literal", action="store_true",
                   help="diff report for the uncorrected published description")
    p.set_defaults(func=_cmd_facets)

    p = sub.add_parser("growth", help="exponential growth rate of vertex counts")
    p.add_argument("--k", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--grid3xn", action="store_true", help="3-row grid instead of 1-D")
    p.add_argument("--large-strides", action="store_true",
                   help="cross-check the closed large-strides formula")
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("grid3xn", help="vertex counts V_n of the 3-row grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=seq2d.COUNT_METHODS)
    p.add_argument("--class-counts", action="store_true",
                   help="per-class vertex counts (oracle; --budget bounds n)")
    p.set_defaults(func=_cmd_grid3xn)

    p = sub.add_parser("grid2xn", help="vertex counts of the 2-row grid")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_grid2xn)

    p = sub.add_parser("regions", help="sample gradient regions of the pooling map")
    add_family(p)
    p.add_argument("--sample", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_regions)

    p = sub.add_parser("tables", help="reproduce the golden edge/total-face tables")
    p.add_argument("--kind", choices=("edges", "total"), required=True)
    p.add_argument("--nmax", type=int, default=4, choices=range(1, 6))
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(func=_cmd_verify)

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
        return args.func(args)
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
