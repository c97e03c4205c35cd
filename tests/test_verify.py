import ast
import os

import pytest

import poolregions
from poolregions import facets1d, oracle, seq1d, seq2d, verify
from poolregions.errors import VerificationError
from poolregions.oracle import FVector
from poolregions.polyalg import rational_gf


@pytest.fixture(scope="module")
def quick_report():
    return verify.run_suite("quick")


def test_quick_suite_passes(quick_report):
    failed = [c for c in quick_report["checks"] if not c["ok"]]
    assert quick_report["ok"], failed
    assert quick_report["level"] == "quick"
    assert {c["name"] for c in quick_report["checks"]} == set(verify.CHECKS)


def test_report_structure(quick_report):
    for check in quick_report["checks"]:
        assert set(check) == {"name", "ok", "detail"}
        assert isinstance(check["detail"], str) and check["detail"]


# every quick check passes with exactly this detail, in this order
QUICK_DETAILS = [
    ("golden-gf", "gf_1d(3,1) = (3+x-x^2)/(1-2x-x^2+x^3); series [3,7,16,36,81]"),
    ("cross-method-grid", "24 grid cells agree across all applicable methods"),
    ("large-strides", "5 pairs: closed gf == matrix gf, recurrence holds"),
    ("proportional-strides", "6 pairs: closed gf and initial values match"),
    ("trivial-regime", "4 pairs at n <= 5: oracle equals k^n"),
    ("face-count-tables", "6 table cells reproduced (edges and totals)"),
    ("facets", "18 (n,k,s) cells: formula == oracle, h-rep sound+tight; printed description violates 4 rows at (2,3,1)"),
    ("two-dim", "V_2..V_5 = 14,150,1536,15594; 14x14 matrix reproduced (150 ones); Q facets 8,21,40,67; 2xn 4,14,48,164"),
    ("class-counts", "identities hold for n = 2..3"),
    ("asymptotics", "growth(3,1)~0.8096, growth_2d~2.3156, closed forms agree, brackets certified"),
    ("region-sampling", "sampling reaches 7 regions (1-D) and 14 regions (3x2), all faces"),
    ("known-boundary-discrepancy", "known discrepancy at (k=5,s=2): closed growth 1.098612 vs matrix 1.270197 (closed form valid only from ceil(k/2))"),
]


def test_quick_report_is_pinned(quick_report):
    expected = [{"name": name, "ok": True, "detail": detail} for name, detail in QUICK_DETAILS]
    assert quick_report == {"level": "quick", "ok": True, "checks": expected}


def test_boundary_discrepancy_is_reported_not_failed(quick_report):
    entry = next(c for c in quick_report["checks"] if c["name"] == "known-boundary-discrepancy")
    assert entry["ok"]
    assert "discrepancy" in entry["detail"]


def test_face_tables_check_compares_frontier_with_oracle(monkeypatch):
    enumerate_faces = oracle.enumerate_faces

    def one_edge_too_many(family, budget):
        fv = enumerate_faces(family, budget)
        return FVector({**fv.counts, 1: fv.counts[1] + 1}, fv.polytope_dim)

    monkeypatch.setattr(oracle, "enumerate_faces", one_edge_too_many)
    with pytest.raises(VerificationError, match=r"tables \(k=3,n=1\) edges: methods disagree: frontier=3, oracle=4"):
        verify.check_face_tables(full=False)


def _raises_assertion_error(node):
    if isinstance(node, ast.Assert):
        return True
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_raises_no_assertion_error():
    # a failed cross-check must end in VerificationError and exit 4, and
    # python -O strips assert statements
    root = os.path.dirname(poolregions.__file__)
    found = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as f:
                tree = ast.parse(f.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if _raises_assertion_error(node)]
    assert found == []


def _off_by_one(module, name, when):
    """Patch module.name so that it returns one more on calls where `when` holds."""
    original = getattr(module, name)

    def patched(monkeypatch):
        def wrong(*args):
            value = original(*args)
            return value + 1 if when(*args) else value

        monkeypatch.setattr(module, name, wrong)

    return patched


def _gf_of_next_stride(monkeypatch):
    gf_1d = seq1d.gf_1d
    monkeypatch.setattr(seq1d, "gf_1d", lambda k, s: gf_1d(k, s + 1))


def _growth_2d_shifted(monkeypatch):
    growth_2d = seq2d.growth_2d
    monkeypatch.setattr(seq2d, "growth_2d", lambda: growth_2d() + 0.01)


def _boundary_agrees(monkeypatch):
    growth_1d = seq1d.growth_1d
    monkeypatch.setattr(seq1d, "growth_large_strides", lambda k, s: growth_1d(k, s))


def _b6_entry_changed(monkeypatch):
    rows = [list(row) for row in seq2d.B6_ENTRIES]
    rows[5][3] = 1
    monkeypatch.setattr(seq2d, "B6_ENTRIES", tuple(map(tuple, rows)))


# check name -> (one wrong golden constant or route value, expected failure)
MUTATIONS = {
    "golden-gf": (_gf_of_next_stride, r"golden-gf: canonical form is \(3,\)/\(1, -3\)"),
    "cross-method-grid": (
        _off_by_one(seq1d, "count_1d", lambda n, k, s, method: method == "gf" and n == 3),
        r"cross-method \(n=3,k=2,s=1\): methods disagree",
    ),
    "large-strides": (
        _off_by_one(seq1d, "count_1d", lambda n, k, s, method: n == 12),
        r"large-strides: \(k=4,s=2\) recurrence fails at n=10",
    ),
    "proportional-strides": (
        _off_by_one(seq1d, "closed_initial", lambda m, k, s: m == 2),
        r"proportional: \(k=3,s=1\) b_3",
    ),
    "trivial-regime": (
        _off_by_one(seq1d, "count_1d", lambda n, k, s, method: method == "closed" and n == 5),
        r"trivial: \(k=2,s=1,n=5\)",
    ),
    "face-count-tables": (
        lambda mp: mp.setitem(verify.TOTAL_FACES_TABLE, 4, (16, 58, 209, 730, 2512)),
        r"tables: \(k=4,n=3\) total 208 != 209",
    ),
    "facets": (
        _off_by_one(facets1d, "facet_count_formula", lambda n, k, s: n == 2),
        r"facets: \(n=2,k=2,s=1\) formula",
    ),
    "two-dim": (
        lambda mp: mp.setitem(verify.V_VALUES, 5, 15595),
        "two-dim: V_5 via b6 = 15594 != 15595",
    ),
    "class-counts": (
        _off_by_one(seq2d, "count_2d", lambda n, method: n == 3),
        "class-counts: n=3: class counts do not sum to V_n",
    ),
    "asymptotics": (_growth_2d_shifted, "asymptotics: growth_2d"),
    "region-sampling": (
        lambda mp: mp.setattr(oracle, "sample_regions", lambda family, trials, seed: (6, True)),
        "regions: 1-D: distinct=6",
    ),
    "known-boundary-discrepancy": (_boundary_agrees, r"boundary: \(k=5,s=2\) unexpectedly agrees"),
}


@pytest.mark.parametrize("name", list(verify.CHECKS))
def test_each_check_catches_a_wrong_value(name, monkeypatch):
    mutate, message = MUTATIONS[name]
    mutate(monkeypatch)
    with pytest.raises(VerificationError, match=message):
        verify.CHECKS[name](False)


@pytest.mark.parametrize("mutate, message", [
    (_b6_entry_changed, "two-dim: closed generating function disagrees with the 6x6 matrix"),
    (
        lambda mp: mp.setattr(verify, "GF_2XN", rational_gf((0, 0, 1), (1, -4, 2))),
        r"two-dim: 2xn generating function != x \+ x\^2 gf_1d\(4,2\)",
    ),
    # Q_3 is the face walk's last size at the quick level; Q_4 only the DP checks
    (lambda mp: mp.setitem(verify.Q_FACETS, 3, 22), "two-dim: Q_3 facets via enumeration = 21 != 22"),
    (lambda mp: mp.setitem(verify.Q_FACETS, 4, 41), "two-dim: Q_4 facets via frontier DP = 40 != 41"),
])
def test_two_dim_proves_the_gf_identities(mutate, message, monkeypatch):
    mutate(monkeypatch)
    with pytest.raises(VerificationError, match=message):
        verify.check_two_dim(False)
