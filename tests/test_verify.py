import pytest

from poolregions import oracle, verify
from poolregions.errors import VerificationError
from poolregions.oracle import FVector


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
