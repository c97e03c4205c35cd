"""Acceptance gate: one test per criterion, printed as a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The two long-running extensions prescribed for the full tier only (the 3x5
full face enumeration and the n = 5 table columns) carry the `full` marker:
`pytest -m full tests/test_acceptance.py -s`.
"""

import math
import time
from contextlib import contextmanager

import pytest

from poolregions import facets1d, oracle, seq1d, seq2d
from poolregions.errors import RegimeNotCoveredError
from poolregions.model import windows_1d, windows_3xn
from poolregions.polyalg import (
    gf_equal,
    int_rank,
    one_plus_x_times,
    poly_eval,
    rational_gf,
    series_coeffs,
    smallest_positive_root_bracket,
)
from poolregions.verify import EDGES_TABLE, TOTAL_FACES_TABLE


@contextmanager
def criterion(number, name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} {name}: FAIL ({time.time()-start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number:>2} {name}: PASS ({time.time()-start:.1f}s)")


def test_criterion_1_golden_gf():
    with criterion(1, "golden gf (k=3, s=1)"):
        start = time.time()
        g = seq1d.gf_1d(3, 1)
        assert (g.num, g.den) == ((3, 1, -1), (1, -2, -1, 1))
        assert series_coeffs(g, 4) == [3, 7, 16, 36, 81]
        assert time.time() - start < 1.0


def test_criterion_2_cross_method_grid():
    with criterion(2, "cross-method grid"):
        start = time.time()
        for k in range(2, 7):
            for s in range(1, k):
                for n in range(1, 7):
                    want = seq1d.count_1d(n, k, s, "matrix")
                    assert seq1d.count_1d(n, k, s, "oracle") == want, (n, k, s)
                    assert seq1d.count_1d(n, k, s, "gf") == want, (n, k, s)
                    try:
                        assert seq1d.count_1d(n, k, s, "closed") == want, (n, k, s)
                    except RegimeNotCoveredError:
                        pass
        assert time.time() - start < 300


def test_criterion_3_large_strides():
    with criterion(3, "large strides"):
        for k, s in [(4, 2), (5, 3), (6, 3), (6, 4), (7, 4)]:
            closed = seq1d.gf_closed(k, s)
            assert "large-strides" in closed.regimes
            assert gf_equal(closed.gf, one_plus_x_times(seq1d.gf_1d(k, s)))
            c = (k - s) * (k - s - 1)
            b = {n: seq1d.count_1d(n, k, s, "matrix") for n in range(1, 23)}
            for n in range(2, 21):
                assert b[n + 2] == k * b[n + 1] - c * b[n]


def test_criterion_4_proportional_strides():
    with criterion(4, "proportional strides"):
        for k, s in [(3, 1), (4, 1), (5, 1), (4, 2), (6, 2), (6, 3)]:
            closed = seq1d.gf_closed(k, s)
            assert "proportional" in closed.regimes
            assert gf_equal(closed.gf, one_plus_x_times(seq1d.gf_1d(k, s)))
            if s == 1:
                num = [0] * (k + 1)
                num[0], num[1], num[2] = 1, k - 4, -(k - 2)
                num[k] += 1
                den = [0] * (k + 3)
                den[0], den[1], den[2] = 1, -4, 4
                den[k] += 1
                den[k + 1] -= k
                den[k + 2] += k - 2
                assert gf_equal(closed.gf, rational_gf(num, den))
            r = k // s - 1
            for m in range(1, r + 3):
                assert seq1d.closed_initial(m, k, s) == seq1d.count_1d(m + 1, k, s, "matrix")


def test_criterion_5_trivial_regime():
    with criterion(5, "trivial regime b_n = k^n"):
        for k, s in [(2, 1), (3, 2), (2, 2), (3, 3)]:
            for n in range(1, 6):
                assert seq1d.trivial_count(n, k, s) == len(
                    oracle.enumerate_vertices(windows_1d(n, k, s))
                ), (n, k, s)


def test_criterion_6_golden_tables():
    with criterion(6, "edge and total-face tables (n <= 4)"):
        start = time.time()
        for k in (3, 4, 5, 6):
            for n in range(1, 5):
                fv = oracle.enumerate_faces(windows_1d(n, k, 1), budget=10**10)
                assert fv.counts.get(1, 0) == EDGES_TABLE[k][n - 1], (k, n)
                assert fv.total() + 1 == TOTAL_FACES_TABLE[k][n - 1], (k, n)
        assert time.time() - start < 600


@pytest.mark.full
def test_criterion_6_golden_tables_n5():
    with criterion(6, "edge and total-face tables (n = 5 columns)"):
        for k in (3, 4, 5, 6):
            fv = oracle.enumerate_faces(windows_1d(5, k, 1), budget=10**10)
            assert fv.counts.get(1, 0) == EDGES_TABLE[k][4], k
            assert fv.total() + 1 == TOTAL_FACES_TABLE[k][4], k


def test_criterion_7_facets():
    with criterion(7, "facet counts and h-representation"):
        for k in range(2, 6):
            for s in range(1, k):
                for n in range(1, 5):
                    fam = windows_1d(n, k, s)
                    formula = facets1d.facet_count_formula(n, k, s)
                    assert formula == oracle.facet_count_oracle(fam), (n, k, s)
                    rep = facets1d.h_representation(n, k, s)
                    K = fam.ambient_size
                    points = facets1d.vertex_points(K, oracle.enumerate_vertices(fam))
                    for row in rep.rows():
                        assert all(row.satisfied_by(p) for p in points), (n, k, s, row.label)
                    assert len(rep.inequalities) == formula
                    for row in rep.inequalities:
                        tight = [p for p in points if row.tight_at(p)]
                        assert tight, (n, k, s, row.label)
                        diffs = [[a - b for a, b in zip(p, tight[0])] for p in tight[1:]]
                        assert int_rank(diffs) == K - 2, (n, k, s, row.label)
        report = facets1d.printed_description_diff(
            2, 3, 1, oracle.enumerate_vertices(windows_1d(2, 3, 1))
        )
        assert report["rows_violated"] > 0
        senses = {
            (e["printed"]["sense"], e["derived"]["sense"])
            for e in report["entries"]
            if e["violations"] and e["derived"]
        }
        assert (">=", "<=") in senses


def test_criterion_8_two_dim():
    with criterion(8, "3xn and 2xn counts"):
        assert [seq2d.count_2d(n, "b6") for n in (2, 3, 4, 5)] == [14, 150, 1536, 15594]
        assert [seq2d.count_2d(n, "gf") for n in (2, 3, 4, 5)] == [14, 150, 1536, 15594]
        for n in (2, 3, 4):
            assert seq2d.count_2d(n, "oracle") == seq2d.count_2d(n, "b6")
        derived = seq2d.derive_a14()
        assert derived.entries == seq2d.A14_ENTRIES
        assert sum(sum(r) for r in derived.entries) == 150
        for n, want in {2: 8, 3: 21, 4: 40}.items():
            assert oracle.facet_count_oracle(windows_3xn(n), budget=10**10) == want
        # the 2-block partition scan pins n = 5 in every run; the full tier
        # below reconfirms it by complete enumeration
        for n, want in {2: 8, 3: 21, 4: 40, 5: 67}.items():
            assert oracle.facet_count_two_classes(windows_3xn(n)) == want
        assert [seq2d.count_2xn(n) for n in (2, 3, 4, 5)] == [4, 14, 48, 164]


@pytest.mark.full
def test_criterion_8_full_q5_enumeration():
    with criterion(8, "3x5 facet count by full enumeration"):
        start = time.time()
        fv = oracle.enumerate_faces(windows_3xn(5), budget=10**10)
        assert fv.polytope_dim == 14
        assert fv.counts[fv.polytope_dim - 1] == 67
        assert fv.counts[0] == 15594
        assert time.time() - start < 900


def test_criterion_9_class_counts():
    with criterion(9, "class-count identities"):
        for n in (2, 3, 4):
            c = seq2d.class_counts(n).counts
            assert c[0] == c[9] and c[1] == c[12] and c[10] == c[4] and c[3] == c[6]
            assert c[1] == c[12] == c[4] == c[10]
            assert sum(c) == seq2d.count_2d(n, "b6")
        for n in (3, 4):
            c = seq2d.class_counts(n).counts
            assert c[5] == c[7] == c[11] == c[13] == seq2d.count_2d(n - 1, "b6")


def test_criterion_10_asymptotics():
    with criterion(10, "growth rates"):
        assert abs(seq1d.growth_1d(3, 1) - 0.8096) <= 5e-4
        for k, s in [(4, 2), (5, 3), (6, 3), (6, 4), (7, 4)]:
            assert abs(seq1d.growth_1d(k, s) - seq1d.growth_large_strides(k, s)) <= 1e-9
        g2 = seq2d.growth_2d()
        assert abs(g2 - 2.3156) <= 1e-3
        assert abs(1 / math.exp(g2) - 0.098706) <= 1e-4
        # every root must come with an exact-sign bracket
        from poolregions.polyalg import det_poly

        for p in [
            det_poly(seq1d.adjacency(3, 1)),
            det_poly(seq1d.adjacency(4, 2)),
            det_poly(seq1d.adjacency(7, 4)),
            seq2d.gf_2d().den,
        ]:
            lo, hi = smallest_positive_root_bracket(p, 1e-12)
            assert poly_eval(p, lo) > 0 >= poly_eval(p, hi)


def test_criterion_11_region_sampling():
    with criterion(11, "region sampling"):
        first = oracle.sample_regions(windows_1d(2, 3, 1), 20000, seed=7)
        assert first == (7, True)
        assert oracle.sample_regions(windows_1d(2, 3, 1), 20000, seed=7) == first
        distinct, all_faces = oracle.sample_regions(windows_3xn(2), 200000, seed=11)
        assert (distinct, all_faces) == (14, True)
