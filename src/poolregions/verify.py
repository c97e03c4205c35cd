"""Self-verification: cross-method grids and golden-table comparisons.

Each check raises VerificationError with a structured message on mismatch.
`CHECKS` is the one definition of the paper's acceptance criteria: the
`verify` CLI command runs it at either level, and the acceptance test suite
runs each check at the full level.  `agreed_value` and `face_tables` back
the other commands' cross-checks.  `quick` covers every criterion at reduced
grid sizes, `full` runs the complete grids.

Cross-checks live here: the counting routes compute each value one way
and do not re-check it per call.  An identity between routes is proven
once, by one check (check_two_dim proves the 3xn and 2xn generating-function
identities), and no check repeats a leg that another of its legs already
covers.
"""

from __future__ import annotations

import math

from . import facets1d, frontier, oracle, seq1d, seq2d
from .errors import RegimeNotCoveredError, VerificationError
from .model import windows_1d, windows_3xn
from .polyalg import (
    det_poly,
    gf_equal,
    gf_from_matrix,
    int_rank,
    one_plus_x_times,
    poly_mul,
    rational_gf,
    series_coeffs,
    smallest_positive_root_bracket,
    poly_eval,
)

# golden regression data: edge counts and total face counts (empty face
# included) of the stride-1 polytopes, rows k = 3..6, columns n = 1..5
EDGES_TABLE = {
    3: (3, 11, 34, 96, 260),
    4: (6, 21, 64, 180, 480),
    5: (10, 34, 102, 284, 752),
    6: (15, 50, 148, 408, 1072),
}
TOTAL_FACES_TABLE = {
    3: (8, 26, 88, 298, 1016),
    4: (16, 58, 208, 730, 2512),
    5: (32, 122, 448, 1594, 5536),
    6: (64, 250, 928, 3322, 11584),
}

Q_FACETS = {2: 8, 3: 21, 4: 40, 5: 67}
V_VALUES = {2: 14, 3: 150, 4: 1536, 5: 15594}
V2XN_VALUES = {2: 4, 3: 14, 4: 48, 5: 164}
GF_2XN = rational_gf((0, 1), (1, -4, 2))  # x + sum_{n>=2} V'_n x^n

LARGE_STRIDE_PAIRS = ((4, 2), (5, 3), (6, 3), (6, 4), (7, 4))
PROPORTIONAL_PAIRS = ((3, 1), (4, 1), (5, 1), (4, 2), (6, 2), (6, 3))
TRIVIAL_PAIRS = ((2, 1), (3, 2), (2, 2), (3, 3))


def _fail(name, detail):
    raise VerificationError(f"{name}: {detail}")


def agreed_value(name, values, tol=0):
    """The value every method in `values` (method -> value) gives.

    Values agree when each lies within `tol` of the first; otherwise this
    raises VerificationError naming every method's value.
    """
    first = next(iter(values.values()))
    if any(abs(v - first) > tol for v in values.values()):
        _fail(name, "methods disagree: " + ", ".join(f"{m}={v}" for m, v in values.items()))
    return first


def check_golden_gf_k3s1():
    """The (k, s) = (3, 1) generating function and its first coefficients."""
    g = seq1d.gf_1d(3, 1)
    if (g.num, g.den) != ((3, 1, -1), (1, -2, -1, 1)):
        _fail("golden-gf", f"canonical form is {g.num}/{g.den}")
    coeffs = series_coeffs(g, 4)
    if coeffs != [3, 7, 16, 36, 81]:
        _fail("golden-gf", f"series starts {coeffs}")
    return "gf_1d(3,1) = (3+x-x^2)/(1-2x-x^2+x^3); series [3,7,16,36,81]"


def check_cross_method_grid(full=True):
    """count_1d agreement across oracle/matrix/gf/closed on the (k, s, n) grid."""
    kmax, nmax = (6, 6) if full else (4, 4)
    cells = 0
    for k in range(2, kmax + 1):
        for s in range(1, k):
            for n in range(1, nmax + 1):
                values = {m: seq1d.count_1d(n, k, s, m) for m in ("matrix", "oracle", "gf")}
                try:
                    values["closed"] = seq1d.count_1d(n, k, s, "closed")
                except RegimeNotCoveredError:
                    pass
                agreed_value(f"cross-method (n={n},k={k},s={s})", values)
                cells += 1
    return f"{cells} grid cells agree across all applicable methods"


def check_large_strides():
    """Quadratic closed form: gf equality and the order-2 recurrence."""
    for k, s in LARGE_STRIDE_PAIRS:
        closed = seq1d.gf_closed(k, s)
        if "large-strides" not in closed.regimes:
            _fail("large-strides", f"(k={k},s={s}) regime not detected")
        if not gf_equal(closed.gf, one_plus_x_times(seq1d.gf_1d(k, s))):
            _fail("large-strides", f"(k={k},s={s}) closed form != matrix form")
        c = (k - s) * (k - s - 1)
        b = [seq1d.count_1d(n, k, s, "matrix") for n in range(1, 23)]
        for n in range(2, 21):
            if b[n + 1] != k * b[n] - c * b[n - 1]:  # b[i] holds b_{i+1}
                _fail("large-strides", f"(k={k},s={s}) recurrence fails at n={n}")
    return f"{len(LARGE_STRIDE_PAIRS)} pairs: closed gf == matrix gf, recurrence holds"


def check_proportional_strides():
    """Proportional-strides closed form and the initial-value formulas."""
    for k, s in PROPORTIONAL_PAIRS:
        closed = seq1d.gf_closed(k, s)
        if "proportional" not in closed.regimes:
            _fail("proportional", f"(k={k},s={s}) regime not detected")
        if not gf_equal(closed.gf, one_plus_x_times(seq1d.gf_1d(k, s))):
            _fail("proportional", f"(k={k},s={s}) closed form != matrix form")
        if s == 1:
            # the stride-1 specialization written out directly
            num = [0] * (k + 1)
            num[0], num[1], num[2] = 1, k - 4, -(k - 2)
            num[k] += 1
            den = [0] * (k + 3)
            den[0], den[1], den[2] = 1, -4, 4
            den[k] += 1
            den[k + 1] -= k
            den[k + 2] += k - 2
            if not gf_equal(closed.gf, rational_gf(num, den)):
                _fail("proportional", f"k={k}: s=1 specialization mismatch")
        r = k // s - 1
        for m in range(1, r + 3):
            want = seq1d.count_1d(m + 1, k, s, "matrix")
            got = seq1d.closed_initial(m, k, s)
            if got != want:
                _fail("proportional", f"(k={k},s={s}) b_{m+1}: closed {got} != matrix {want}")
    return f"{len(PROPORTIONAL_PAIRS)} pairs: closed gf and initial values match"


def check_trivial_regime():
    """b_n = k^n whenever 1 < k <= s+1, against the oracle."""
    for k, s in TRIVIAL_PAIRS:
        for n in range(1, 6):
            want = seq1d.count_1d(n, k, s, "closed")
            got = oracle.count_vertices(windows_1d(n, k, s))
            if want != got:
                _fail("trivial", f"(k={k},s={s},n={n}): k^n={want} oracle={got}")
    return f"{len(TRIVIAL_PAIRS)} pairs at n <= 5: oracle equals k^n"


def face_tables(ks, nmax, budget):
    """Edge and total face counts of the stride-1 polytopes, k in ks, n <= nmax.

    Counts each (k, n) cell once with the frontier DP and checks both counts
    against EDGES_TABLE and TOTAL_FACES_TABLE.  Returns {"edges": {k: [...]},
    "total": {k: [...]}}, one value per n.
    """
    edges_table, total_table = {}, {}
    for k in ks:
        edges_table[k], total_table[k] = [], []
        for n in range(1, nmax + 1):
            fv = frontier.fvector(windows_1d(n, k, 1), budget=budget)
            edges = fv.counts.get(1, 0)
            total = fv.total() + 1
            if edges != EDGES_TABLE[k][n - 1]:
                _fail("tables", f"(k={k},n={n}) edges {edges} != {EDGES_TABLE[k][n-1]}")
            if total != TOTAL_FACES_TABLE[k][n - 1]:
                _fail("tables", f"(k={k},n={n}) total {total} != {TOTAL_FACES_TABLE[k][n-1]}")
            edges_table[k].append(edges)
            total_table[k].append(total)
    return {"edges": edges_table, "total": total_table}


def check_face_tables(full=True):
    """Edge counts and total face counts against the golden tables.

    The frontier DP fills the tables; the oracle walks every cell again and
    must agree with it.
    """
    ks = (3, 4, 5, 6) if full else (3, 4)
    nmax = 4 if full else 3
    tables = face_tables(ks, nmax, budget=10**10)
    for k in ks:
        for n in range(1, nmax + 1):
            fv = oracle.enumerate_faces(windows_1d(n, k, 1), budget=10**10)
            for kind, got in (("edges", fv.counts.get(1, 0)), ("total", fv.total() + 1)):
                agreed_value(
                    f"tables (k={k},n={n}) {kind}",
                    {"frontier": tables[kind][k][n - 1], "oracle": got},
                )
    return f"{len(ks) * nmax} table cells reproduced (edges and totals)"


def check_facets(full=True):
    """Facet formula vs oracle vs frontier DP; h-representation soundness and tightness."""
    kmax, nmax = (5, 4) if full else (4, 3)
    checked = 0
    for k in range(2, kmax + 1):
        for s in range(1, k):
            for n in range(1, nmax + 1):
                fam = windows_1d(n, k, s)
                formula = facets1d.facet_count_formula(n, k, s)
                fv = oracle.enumerate_faces(fam)
                got = fv.facet_count()
                if formula != got:
                    _fail("facets", f"(n={n},k={k},s={s}) formula {formula} != oracle {got}")
                dp = frontier.fvector(fam)
                if dp != fv:
                    _fail("facets", f"(n={n},k={k},s={s}) frontier {dp.counts} != oracle {fv.counts}")
                checked += 1
                hrep = facets1d.h_representation(n, k, s)
                points = facets1d.vertex_points(fam.ambient_size, oracle.enumerate_vertices(fam))
                for row in hrep.rows():
                    if not all(row.satisfied_by(p) for p in points):
                        _fail("facets", f"(n={n},k={k},s={s}) row {row.label} unsound")
                if len(hrep.inequalities) != formula:
                    _fail("facets", f"(n={n},k={k},s={s}) row count != formula")
                for row in hrep.inequalities:
                    tight = [p for p in points if row.tight_at(p)]
                    if not tight:
                        _fail("facets", f"(n={n},k={k},s={s}) row {row.label} never tight")
                    diffs = [
                        [a - b for a, b in zip(p, tight[0])] for p in tight[1:]
                    ]
                    if int_rank(diffs) != fam.ambient_size - 2:
                        _fail(
                            "facets",
                            f"(n={n},k={k},s={s}) row {row.label} not facet-supporting",
                        )
    report = facets1d.printed_description_diff(
        2, 3, 1, oracle.enumerate_vertices(windows_1d(2, 3, 1))
    )
    if report["rows_violated"] == 0:
        _fail("facets", "printed-description diff report shows no violations")
    senses = {
        (e["printed"]["sense"], e["derived"]["sense"])
        for e in report["entries"]
        if e["violations"] and e["derived"]
    }
    if (">=", "<=") not in senses:
        _fail("facets", "no violated printed >= row is a derived <= row")
    return (
        f"{checked} (n,k,s) cells: formula == oracle, h-rep sound+tight; "
        f"printed description violates {report['rows_violated']} rows at (2,3,1)"
    )


def check_two_dim(full=True):
    """Width-n vertex counts, the derived 14x14 matrix, and facet counts.

    The two generating-function identities are equalities of rational
    functions, so each holds for every n: B6's generating function is the
    closed gf_2d(), and the 2xn one is x plus x^2 times gf_1d(4, 2).
    """
    left = tuple(int(i == 4) for i in range(6))
    right = tuple(int(i == 5) for i in range(6))
    if not gf_equal(seq2d.gf_2d(), gf_from_matrix(seq2d.b6_matrix(), left, right)):
        _fail("two-dim", "closed generating function disagrees with the 6x6 matrix")
    g = one_plus_x_times(seq1d.gf_1d(4, 2))
    if not gf_equal(GF_2XN, rational_gf(poly_mul((0, 1), g.num), g.den)):
        _fail("two-dim", "2xn generating function != x + x^2 gf_1d(4,2)")
    for n, want in V_VALUES.items():
        for method in ("b6", "gf"):
            got = seq2d.count_2d(n, method)
            if got != want:
                _fail("two-dim", f"V_{n} via {method} = {got} != {want}")
    oracle_max = 4 if full else 3
    for n in range(2, oracle_max + 1):
        got = seq2d.count_2d(n, "oracle")
        if got != V_VALUES[n]:
            _fail("two-dim", f"V_{n} via oracle = {got}")
    derived = seq2d.derive_a14()
    if derived.entries != seq2d.A14_ENTRIES:
        _fail("two-dim", "derived 14x14 matrix differs from the embedded one")
    if sum(sum(r) for r in derived.entries) != 150:
        _fail("two-dim", "14x14 matrix does not have 150 ones")
    for n, want in V2XN_VALUES.items():
        got = seq2d.count_2xn(n)
        if got != want:
            _fail("two-dim", f"2xn V'_{n} = {got} != {want}")
    facet_max = 4 if full else 3
    for n in range(2, facet_max + 1):
        got = oracle.enumerate_faces(windows_3xn(n)).facet_count()
        if got != Q_FACETS[n]:
            _fail("two-dim", f"Q_{n} facets via enumeration = {got} != {Q_FACETS[n]}")
    for n, want in Q_FACETS.items():
        got = frontier.fvector(windows_3xn(n)).facet_count()
        if got != want:
            _fail("two-dim", f"Q_{n} facets via frontier DP = {got} != {want}")
    return (
        "V_2..V_5 = 14,150,1536,15594; 14x14 matrix reproduced (150 ones); "
        "Q facets 8,21,40,67; 2xn 4,14,48,164"
    )


def check_class_counts(full=True):
    """Per-class vertex counts: symmetry identities and the V_(n-1) positions."""
    top = 4 if full else 3
    for n in range(2, top + 1):
        counts = seq2d.class_counts(n).counts
        pairs = ((0, 9), (1, 12), (10, 4), (3, 6))
        for a, b in pairs:
            if counts[a] != counts[b]:
                _fail("class-counts", f"n={n}: positions {a+1},{b+1} differ")
        if not counts[1] == counts[12] == counts[4] == counts[10]:
            _fail("class-counts", f"n={n}: four-way identity fails")
        if sum(counts) != seq2d.count_2d(n, "b6"):
            _fail("class-counts", f"n={n}: class counts do not sum to V_n")
        if n >= 3:
            prev = seq2d.count_2d(n - 1, "b6")
            if not counts[5] == counts[7] == counts[11] == counts[13] == prev:
                _fail("class-counts", f"n={n}: positions 6,8,12,14 != V_(n-1)")
    return f"identities hold for n = 2..{top}"


def check_asymptotics():
    """Growth rates: golden values, closed-form agreement, bracket certificates."""
    g31 = seq1d.growth_1d(3, 1)
    if abs(g31 - 0.8096) > 5e-4:
        _fail("asymptotics", f"growth(3,1) = {g31}")
    for k, s in LARGE_STRIDE_PAIRS:
        agreed_value(
            f"asymptotics (k={k},s={s})",
            {"matrix": seq1d.growth_1d(k, s), "closed": seq1d.growth_large_strides(k, s)},
            tol=1e-9,
        )
    g2 = seq2d.growth_2d()
    if abs(g2 - 2.3156) > 1e-3:
        _fail("asymptotics", f"growth_2d = {g2}")
    if abs(1 / math.exp(g2) - 0.098706) > 1e-4:
        _fail("asymptotics", f"1/exp(growth_2d) = {1/math.exp(g2)}")
    # bracket certificates: exact signs must straddle zero
    for p in (
        det_poly(seq1d.adjacency(3, 1)),
        det_poly(seq1d.adjacency(4, 2)),
        det_poly(seq1d.adjacency(7, 4)),
        seq2d.gf_2d().den,
    ):
        lo, hi = smallest_positive_root_bracket(p, 1e-12)
        if not (poly_eval(p, lo) > 0 >= poly_eval(p, hi)):
            _fail("asymptotics", f"bracket certificate fails for {p}")
    return "growth(3,1)~0.8096, growth_2d~2.3156, closed forms agree, brackets certified"


def check_region_sampling():
    """Sampled gradient regions converge to the vertex counts."""
    distinct, all_faces = oracle.sample_regions(windows_1d(2, 3, 1), 2000, seed=7)
    if distinct != 7 or not all_faces:
        _fail("regions", f"1-D: distinct={distinct} all_faces={all_faces}")
    distinct, all_faces = oracle.sample_regions(windows_3xn(2), 2000, seed=11)
    if distinct != 14 or not all_faces:
        _fail("regions", f"3x2: distinct={distinct} all_faces={all_faces}")
    return "sampling reaches 7 regions (1-D) and 14 regions (3x2), all faces"


def check_boundary_discrepancy():
    """Document the known odd-k lower-boundary mismatch of the closed growth."""
    a, b = seq1d.growth_1d(5, 2), seq1d.growth_large_strides(5, 2)
    if abs(a - b) < 1e-6:
        _fail(
            "boundary",
            "(k=5,s=2) unexpectedly agrees; the documented discrepancy vanished",
        )
    return (
        f"known discrepancy at (k=5,s=2): closed growth {b:.6f} vs matrix {a:.6f} "
        "(closed form valid only from ceil(k/2))"
    )


# check name -> callable(full) that returns the pass detail or raises
CHECKS = {
    "golden-gf": lambda full: check_golden_gf_k3s1(),
    "cross-method-grid": lambda full: check_cross_method_grid(full),
    "large-strides": lambda full: check_large_strides(),
    "proportional-strides": lambda full: check_proportional_strides(),
    "trivial-regime": lambda full: check_trivial_regime(),
    "face-count-tables": lambda full: check_face_tables(full),
    "facets": lambda full: check_facets(full),
    "two-dim": lambda full: check_two_dim(full),
    "class-counts": lambda full: check_class_counts(full),
    "asymptotics": lambda full: check_asymptotics(),
    "region-sampling": lambda full: check_region_sampling(),
    "known-boundary-discrepancy": lambda full: check_boundary_discrepancy(),
}


def run_suite(level: str = "quick") -> dict:
    """Run every check at the given level; returns a structured report."""
    full = level == "full"
    results = []
    for name, fn in CHECKS.items():
        try:
            summary = fn(full)
            results.append({"name": name, "ok": True, "detail": summary})
        except VerificationError as exc:
            results.append({"name": name, "ok": False, "detail": str(exc)})
    return {
        "level": level,
        "ok": all(r["ok"] for r in results),
        "checks": results,
    }
