"""Acceptance gate: one test per criterion, printed as a pass/fail line.

Each criterion runs one `poolregions.verify` check at the full level, so the
checks are defined once, in `verify.CHECKS`.  Run with
`pytest -s tests/test_acceptance.py` to see the per-criterion lines.  Two
oracle legs are not `verify` checks: the n = 5 table columns, and the 3x5
full face enumeration, which carries the `full` marker:
`pytest -m full tests/test_acceptance.py -s`.
"""

import time
from contextlib import contextmanager

import pytest

from poolregions import oracle, verify
from poolregions.model import windows_1d, windows_3xn
from poolregions.verify import EDGES_TABLE, TOTAL_FACES_TABLE

# criterion number -> (verify check, label on the ACCEPTANCE line,
# wall-clock gate in seconds or None)
CRITERIA = {
    1: ("golden-gf", "golden gf (k=3, s=1)", 1.0),
    2: ("cross-method-grid", "cross-method grid", 300),
    3: ("large-strides", "large strides", None),
    4: ("proportional-strides", "proportional strides", None),
    5: ("trivial-regime", "trivial regime b_n = k^n", None),
    6: ("face-count-tables", "edge and total-face tables (n <= 4)", 600),
    7: ("facets", "facet counts and h-representation", None),
    8: ("two-dim", "3xn and 2xn counts", None),
    9: ("class-counts", "class-count identities", None),
    10: ("asymptotics", "growth rates", None),
    11: ("region-sampling", "region sampling", None),
    12: ("known-boundary-discrepancy", "known boundary discrepancy", None),
}


@contextmanager
def criterion(number, name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} {name}: FAIL ({time.time()-start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number:>2} {name}: PASS ({time.time()-start:.1f}s)")


def run_criterion(number):
    check, label, gate = CRITERIA[number]
    with criterion(number, label):
        start = time.time()
        verify.CHECKS[check](True)
        if gate is not None:
            assert time.time() - start < gate


def test_criteria_are_the_verify_checks():
    # a check added to verify without a criterion here would skip the gate
    assert [CRITERIA[n][0] for n in sorted(CRITERIA)] == list(verify.CHECKS)
    assert sorted(CRITERIA) == list(range(1, len(CRITERIA) + 1))
    tested = {int(name.split("_")[2]) for name in globals() if name.startswith("test_criterion_")}
    assert tested == set(CRITERIA)


def test_criterion_1_golden_gf():
    run_criterion(1)


def test_criterion_2_cross_method_grid():
    run_criterion(2)


def test_criterion_3_large_strides():
    run_criterion(3)


def test_criterion_4_proportional_strides():
    run_criterion(4)


def test_criterion_5_trivial_regime():
    run_criterion(5)


def test_criterion_6_golden_tables():
    run_criterion(6)


def test_criterion_6_golden_tables_n5():
    with criterion(6, "edge and total-face tables (n = 5 columns)"):
        for k in (3, 4, 5, 6):
            fv = oracle.enumerate_faces(windows_1d(5, k, 1), budget=10**10)
            assert fv.counts.get(1, 0) == EDGES_TABLE[k][4], k
            assert fv.total() + 1 == TOTAL_FACES_TABLE[k][4], k


def test_criterion_7_facets():
    run_criterion(7)


def test_criterion_8_two_dim():
    run_criterion(8)


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
    run_criterion(9)


def test_criterion_10_asymptotics():
    run_criterion(10)


def test_criterion_11_region_sampling():
    run_criterion(11)


def test_criterion_12_boundary_discrepancy():
    run_criterion(12)
