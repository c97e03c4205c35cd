import pytest

from poolregions import verify


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
