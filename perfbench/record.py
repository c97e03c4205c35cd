"""Record the expected answer of every benchmark query, cross-checked first.

    PYTHONPATH=src python3 -X int_max_str_digits=0 perfbench/record.py

Run from the repository root at a commit whose answers are trusted.  Every
query that any seed can draw goes once through `poolregions.cli.main`; the
digest of its exit code and answer (`queries.digest`) is written to
perfbench/expected.json.
Before it is written, each answer is checked against a second route (an
oracle walk at small sizes, a different CLI command, or this file's own
series expansion and Euler relation) and against the repository's golden
values.  The recording aborts on the first disagreement.

The -X flag lifts the integer string-conversion limit in this process only,
so the answer with more than 4300 digits is recorded as a correct CLI would
print it.  The benchmark itself keeps the interpreter's default limit.
"""

import contextlib
import functools
import io
import json
import math
import os
import sys

import queries
from poolregions import cli

HERE = os.path.dirname(os.path.abspath(__file__))


@functools.cache
def run(argv):
    """Output of one CLI call (argv as a tuple); a nonzero exit aborts."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    out = buf.getvalue()
    if code != 0:
        raise SystemExit(f"{queries.key(argv)} exited {code}: {out}")
    return out


def result(argv):
    return json.loads(run(tuple(argv)))["result"]


def series(num, den, upto):
    """Taylor coefficients 0..upto of num/den, den[0] = 1 (integer arithmetic)."""
    out = []
    for n in range(upto + 1):
        acc = num[n] if n < len(num) else 0
        acc -= sum(den[i] * out[n - i] for i in range(1, min(n, len(den) - 1) + 1))
        out.append(acc)
    return out


def ints(coeffs):
    return [int(c) for c in coeffs]


def expect(ok, what):
    if not ok:
        raise SystemExit(f"cross-check failed: {what}")


def cross_check_pair(k, s, vertex_ns):
    """gf, growth, closed gf and vertex counts of one (k, s) against each other."""
    ks = ["--k", str(k), "--s", str(s)]
    gf = result(["gf", *ks])["gf"]
    num, den = ints(gf["num"]), ints(gf["den"])
    coeffs = series(num, den, 2000)
    for n in range(1, 5 if k <= 8 else 4):
        oracle = int(result(["vertices", *ks, "--n", str(n), "--method", "oracle"]))
        expect(coeffs[n - 1] == oracle, f"gf({k},{s}) series vs oracle at n={n}")
    for n in vertex_ns:
        expect(int(result(queries.vertices_query(k, s, n))) == coeffs[n - 1], f"vertices ({k},{s},{n})")
    growth = float(result(["growth", *ks]))
    expect(abs(growth - math.log(coeffs[2000] / coeffs[1999])) < 1e-9, f"growth({k},{s})")
    if queries.closed_covered(k, s):
        closed = result(["gf", *ks, "--closed"])["gf"]
        # G = 1 + x F, compared coefficient by coefficient
        g = series(ints(closed["num"]), ints(closed["den"]), 60)
        expect(g == [1] + coeffs[:60], f"closed gf({k},{s})")


def cross_check_grids(widths):
    v3 = series([0, 1, 1, -1], [1, -13, 31, -20, 4], 4500)
    v2 = series([0, 1], [1, -4, 2], 4000)
    for n in queries.V_VALUES:
        expect(v3[n] == queries.V_VALUES[n] and v2[n] == queries.V2XN_VALUES[n], f"golden V_{n}")
        if n <= 4:
            expect(int(result(["grid3xn", "--n", str(n), "--method", "oracle"])) == v3[n], f"oracle V_{n}")
    for n in widths:
        expect(int(result(["grid3xn", "--n", str(n)])) == v3[n], f"grid3xn {n}")
        expect(int(result(["grid2xn", "--n", str(n)])) == v2[n], f"grid2xn {n}")
    big = [*queries.DEFECT[:3], "--method", "b6"]
    expect(int(result(queries.DEFECT)) == int(result(big)) == v3[4500], "V_4500 gf vs b6")


def cross_check_enumerate():
    fv = result(["fvector", "--k", "4", "--s", "2", "--n", "6"])
    f = {int(d): int(c) for d, c in fv["counts"].items()}
    expect(sum((-1) ** d * c for d, c in f.items()) == 1, "Euler relation of (4,2,6)")
    expect(f[0] == int(result(["vertices", "--k", "4", "--s", "2", "--n", "6"])), "f_0 of (4,2,6)")
    facets = result(["facets", "--k", "4", "--s", "2", "--n", "6"])["count"]
    expect(f[fv["polytope_dim"] - 1] == int(facets), "facets of (4,2,6)")
    fv = result(["fvector", "--k", "6", "--s", "1", "--n", "4"])
    facets = result(["facets", "--k", "6", "--s", "1", "--n", "4", "--oracle"])["count"]
    expect(fv["counts"][str(fv["polytope_dim"] - 1)] == facets, "facets of (6,1,4)")
    for k, s, n in ((3, 1, 16), (6, 2, 10)):
        by_oracle = result(["vertices", "--k", str(k), "--s", str(s), "--n", str(n), "--method", "oracle"])
        expect(by_oracle == result(queries.vertices_query(k, s, n)), f"vertices ({k},{s},{n}) oracle vs matrix")


def main():
    if sys.flags.int_max_str_digits != 0:
        raise SystemExit("run with python3 -X int_max_str_digits=0 (see the docstring)")
    every = queries.all_algebra_sizes() + queries.queries("algebra", 0) + queries.ENUMERATE
    every += queries.queries("verify", 0)
    expected = {}
    for argv in every:
        out = run(tuple(argv))
        expect(queries.golden(argv, out) is not False, f"golden value of {queries.key(argv)}")
        expected[queries.key(argv)] = queries.digest(argv, 0, out)

    by_pair = {}
    for argv in queries.all_algebra_sizes():
        if argv[0] == "vertices":
            by_pair.setdefault((int(argv[2]), int(argv[4])), []).append(int(argv[6]))
    for (k, s), ns in by_pair.items():
        cross_check_pair(k, s, ns)
    cross_check_grids(sorted({int(a[2]) for a in queries.all_algebra_sizes() if a[0] != "vertices"}))
    cross_check_enumerate()

    with open(os.path.join(HERE, "expected.json"), "w") as f:
        json.dump(expected, f, indent=0, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(expected)} answers")


if __name__ == "__main__":
    main()
