import pytest

from poolregions import facets1d, oracle
from poolregions.errors import InvalidParamsError
from poolregions.model import windows_1d
from poolregions.polyalg import int_rank


def vertex_points(n, k, s):
    fam = windows_1d(n, k, s)
    return facets1d.vertex_points(fam.ambient_size, oracle.enumerate_vertices(fam))


def test_formula_values():
    assert facets1d.facet_count_formula(2, 3, 1) == 6
    assert facets1d.facet_count_formula(3, 3, 2) == 9
    assert facets1d.facet_count_formula(4, 5, 2) == 17
    assert facets1d.facet_count_formula(1, 4, 2) == 4
    with pytest.raises(InvalidParamsError):
        facets1d.facet_count_formula(2, 1, 1)


def test_hrep_223_example():
    rep = facets1d.h_representation(2, 3, 1)
    assert rep.ambient == 4
    assert len(rep.equalities) == 1
    eq = rep.equalities[0]
    assert eq.coeffs == (1, 1, 1, 1) and eq.rhs == 2 and eq.sense == "="
    by_label = {r.label: r for r in rep.inequalities}
    assert by_label["prefix-union 0"].coeffs == (0, 0, 0, 1)
    assert by_label["prefix-union 0"].rhs == 1
    assert by_label["prefix-union 0"].sense == "<="
    assert by_label["suffix-union 1"].coeffs == (1, 0, 0, 0)
    assert by_label["suffix-union 1"].rhs == 1
    singles = [r for r in rep.inequalities if r.label.startswith("singleton")]
    assert len(singles) == 4
    assert all(r.sense == ">=" and r.rhs == 0 for r in singles)
    assert len(rep.inequalities) == 6


def test_hrep_simplex():
    rep = facets1d.h_representation(1, 4, 2)
    assert len(rep.inequalities) == 4
    assert all(r.label.startswith("singleton") for r in rep.inequalities)


def test_hrep_excludes_overlap_points_when_k_is_s_plus_1():
    rep = facets1d.h_representation(2, 3, 2)  # windows {0,1,2}, {2,3,4}
    singles = {r.label for r in rep.inequalities if r.label.startswith("singleton")}
    assert "singleton 2" not in singles
    assert len(rep.inequalities) == facets1d.facet_count_formula(2, 3, 2) == 6

    rep3 = facets1d.h_representation(3, 2, 1)  # excluded coordinates 1 and 2
    singles3 = {r.label for r in rep3.inequalities if r.label.startswith("singleton")}
    assert singles3 == {"singleton 0", "singleton 3"}


def test_hrep_rejects_low_dimension():
    with pytest.raises(InvalidParamsError):
        facets1d.h_representation(2, 2, 2)


@pytest.mark.parametrize(
    "n,k,s",
    [(2, 3, 1), (3, 3, 1), (2, 4, 1), (3, 4, 2), (2, 3, 2), (3, 2, 1), (4, 3, 2), (2, 5, 3)],
)
def test_hrep_sound_and_tight(n, k, s):
    rep = facets1d.h_representation(n, k, s)
    points = vertex_points(n, k, s)
    for row in rep.rows():
        assert all(row.satisfied_by(p) for p in points), row.label
    assert len(rep.inequalities) == facets1d.facet_count_formula(n, k, s)
    K = rep.ambient
    for row in rep.inequalities:
        tight = [p for p in points if row.tight_at(p)]
        assert tight, row.label
        diffs = [[a - b for a, b in zip(p, tight[0])] for p in tight[1:]]
        assert int_rank(diffs) == K - 2, row.label


def test_printed_rows_shape():
    rows = facets1d.printed_rows(2, 3, 1)
    senses = {r.sense for r in rows if not r.label == "affine-span"}
    assert senses == {">="}
    by_label = {r.label: r for r in rows}
    assert by_label["suffix-union 1"].rhs == 0  # printed constant r-1


@pytest.mark.parametrize("fn", [facets1d.h_representation, facets1d.printed_rows])
@pytest.mark.parametrize("n,k,s", [(2, 3, 0), (2, 2, 2), (0, 3, 1)])
def test_descriptions_reject_bad_params(fn, n, k, s):
    # both descriptions need k > s >= 1, n >= 1; printed_rows(2, 3, 0) used to return rows
    with pytest.raises(InvalidParamsError, match=r"needs k > s >= 1, n >= 1"):
        fn(n, k, s)


def test_diff_report_shows_violations():
    report = facets1d.printed_description_diff(
        2, 3, 1, oracle.enumerate_vertices(windows_1d(2, 3, 1))
    )
    assert report["vertex_count"] == 7
    assert report["rows_violated"] > 0
    violated = {e["label"] for e in report["entries"] if e["violations"]}
    assert "prefix-union 0" in violated
    prefix = next(e for e in report["entries"] if e["label"] == "prefix-union 0")
    assert prefix["example_violating_vertex"] == (1, 1, 0, 0)
    assert prefix["printed"]["sense"] == ">=" and prefix["derived"]["sense"] == "<="


def test_derived_rows_never_violated():
    for n, k, s in [(2, 3, 1), (3, 4, 2), (2, 3, 2)]:
        rep = facets1d.h_representation(n, k, s)
        pts = vertex_points(n, k, s)
        assert all(row.satisfied_by(p) for row in rep.rows() for p in pts)
