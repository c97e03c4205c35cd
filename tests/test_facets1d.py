import pytest

from poolregions import facets1d, oracle
from poolregions.errors import InvalidParamsError
from poolregions.model import windows_1d


def vertex_words(n, k, s):
    return oracle.enumerate_vertices(windows_1d(n, k, s))


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
    faults = facets1d.hrep_faults(rep, vertex_words(n, k, s), facets1d.facet_count_formula(n, k, s))
    assert list(faults) == []


def _prefix_rhs_moved(by):
    def mutate(rows):
        rows[0] = rows[0]._replace(rhs=rows[0].rhs + by)
    return mutate


def _last_row_is_overlap_point(rows):
    # 2 = s is where windows 0 and 1 meet when k = s + 1: no facet
    rows[-1] = facets1d.HRow((0, 0, 1, 0, 0, 0, 0), 0, ">=", "singleton 2")


@pytest.mark.parametrize("mutate, faults", [
    (_prefix_rhs_moved(-1), ["row prefix-union 0 unsound", "row prefix-union 0 not facet-supporting"]),
    (_prefix_rhs_moved(+1), ["row prefix-union 0 never tight"]),
    (_last_row_is_overlap_point, ["row singleton 2 not facet-supporting"]),
    (list.pop, ["row count != formula"]),
], ids=["rhs-lowered", "rhs-raised", "overlap-singleton", "row-dropped"])
def test_hrep_faults_name_each_broken_row(mutate, faults):
    rep = facets1d.h_representation(3, 3, 2)
    rows = list(rep.inequalities)
    assert rows[0].label == "prefix-union 0"
    mutate(rows)
    broken = rep._replace(inequalities=tuple(rows))
    words = vertex_words(3, 3, 2)
    assert list(facets1d.hrep_faults(broken, words, facets1d.facet_count_formula(3, 3, 2))) == faults


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
    report = facets1d.printed_description_diff(2, 3, 1)
    assert report["vertex_count"] == 7
    assert report["rows_violated"] > 0
    violated = {e["label"] for e in report["entries"] if e["violations"]}
    assert "prefix-union 0" in violated
    prefix = next(e for e in report["entries"] if e["label"] == "prefix-union 0")
    assert prefix["example_violating_vertex"] == (1, 1, 0, 0)
    assert prefix["printed"]["sense"] == ">=" and prefix["derived"]["sense"] == "<="


def test_diff_report_rejects_a_budget_below_one_before_the_walk(monkeypatch):
    monkeypatch.setattr(facets1d, "enumerate_vertices", lambda *a: pytest.fail("the walk ran"))
    with pytest.raises(InvalidParamsError, match=r"^budget must be >= 1, got 0$"):
        facets1d.printed_description_diff(2, 3, 1, budget=0)


@pytest.mark.parametrize("n,k,s", [(2, 3, 1), (3, 3, 2), (3, 4, 1), (2, 5, 3), (4, 2, 1)])
def test_word_value_is_the_dense_dot_product(n, k, s):
    # the one row evaluator reads words; the dense point is its definition
    words = vertex_words(n, k, s)
    rep = facets1d.h_representation(n, k, s)
    points = facets1d.vertex_points(rep.ambient, words)
    for row in rep.rows() + facets1d.printed_rows(n, k, s):
        dense = [sum(c * x for c, x in zip(row.coeffs, p)) for p in points]
        assert facets1d.word_values(row, words) == dense, row.label
