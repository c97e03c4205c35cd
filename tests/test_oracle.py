import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poolregions import oracle
from poolregions.errors import BudgetExceededError, TieDetectedError
from poolregions.faces import FaceSelection, build_selection_graph, is_face, selection_from_word
from poolregions.model import WindowFamily, windows_1d, windows_3xn


def reference_fvector(family):
    """Slow route: scan every choice list and classify with the graph builder."""
    pools = []
    for w in family.windows:
        elems = sorted(w)
        pools.append(
            [frozenset(c) for r in range(1, len(elems) + 1) for c in itertools.combinations(elems, r)]
        )
    counts = {}
    for combo in itertools.product(*pools):
        g = build_selection_graph(FaceSelection(family, combo))
        if g.acyclic:
            dim = family.ambient_size - len(g.classes)
            counts[dim] = counts.get(dim, 0) + 1
    return counts


def reference_vertices(family):
    words = []
    for word in itertools.product(*[sorted(w) for w in family.windows]):
        if is_face(selection_from_word(family, word)):
            words.append(word)
    return words


SMALL_FAMILIES = [
    windows_1d(1, 3, 1),
    windows_1d(2, 3, 1),
    windows_1d(3, 3, 1),
    windows_1d(2, 4, 2),
    windows_1d(3, 2, 1),
    windows_1d(2, 2, 2),
    windows_1d(2, 2, 3),  # gap coordinate
    windows_1d(2, 5, 3),
    windows_3xn(2),
    WindowFamily(5, (frozenset({0, 1, 2}), frozenset({2, 3}), frozenset({3, 4, 0}))),
]


@pytest.mark.parametrize("family", SMALL_FAMILIES, ids=range(len(SMALL_FAMILIES)))
def test_enumerate_faces_matches_reference(family):
    assert oracle.enumerate_faces(family).counts == reference_fvector(family)


@pytest.mark.parametrize("family", SMALL_FAMILIES, ids=range(len(SMALL_FAMILIES)))
def test_enumerate_vertices_matches_reference(family):
    assert oracle.enumerate_vertices(family) == reference_vertices(family)


@pytest.mark.parametrize("family", SMALL_FAMILIES, ids=range(len(SMALL_FAMILIES)))
def test_count_vertices_matches_reference(family):
    assert oracle.count_vertices(family) == len(reference_vertices(family))


@st.composite
def families(draw):
    # as in test_frontier: d <= 7, at most 4 windows, gap coordinates allowed
    d = draw(st.integers(1, 7))
    window = st.frozensets(st.integers(0, d - 1), min_size=1, max_size=d)
    return WindowFamily(d, tuple(draw(st.lists(window, min_size=1, max_size=4))))


@settings(max_examples=60, deadline=None)
@given(families())
@example(WindowFamily(5, (frozenset({0, 1, 2}), frozenset({2, 3}), frozenset({3, 4, 0}))))
def test_vertex_walk_matches_reference_on_random_families(family):
    want = reference_vertices(family)
    assert oracle.enumerate_vertices(family) == want
    assert oracle.count_vertices(family) == len(want)


@pytest.mark.parametrize("family", SMALL_FAMILIES, ids=range(len(SMALL_FAMILIES)))
def test_dimension_zero_count_equals_vertex_count(family):
    fv = oracle.enumerate_faces(family)
    assert fv.counts[0] == len(oracle.enumerate_vertices(family))


def test_vertices_golden_counts():
    assert len(oracle.enumerate_vertices(windows_1d(1, 3, 1))) == 3
    assert len(oracle.enumerate_vertices(windows_1d(2, 3, 1))) == 7
    assert len(oracle.enumerate_vertices(windows_3xn(2))) == 14


def test_vertices_lexicographic_order():
    words = oracle.enumerate_vertices(windows_1d(3, 3, 1))
    assert words == sorted(words)
    assert len(words) == 16


def test_fvector_golden():
    fv = oracle.enumerate_faces(windows_1d(2, 3, 1))
    assert fv.counts == {0: 7, 1: 11, 2: 6, 3: 1}
    assert fv.polytope_dim == 3
    triangle = oracle.enumerate_faces(windows_1d(1, 3, 1))
    assert triangle.counts == {0: 3, 1: 3, 2: 1}
    fv3 = oracle.enumerate_faces(windows_1d(3, 3, 1))
    assert fv3.counts[0] == 16 and fv3.counts[1] == 34


def test_total_face_count_golden():
    # faces including the empty one
    assert oracle.enumerate_faces(windows_1d(1, 3, 1)).total() + 1 == 8
    assert oracle.enumerate_faces(windows_1d(2, 3, 1)).total() + 1 == 26
    assert oracle.enumerate_faces(windows_1d(2, 4, 1)).total() + 1 == 58


def test_facet_count_golden():
    assert oracle.enumerate_faces(windows_1d(2, 3, 1)).facet_count() == 6
    assert oracle.enumerate_faces(windows_3xn(2)).facet_count() == 8
    assert oracle.enumerate_faces(windows_3xn(3)).facet_count() == 21


def test_benchmark_named_facet_counts():
    # the two counts agree exactly when the polytope has dimension d - 1
    assert oracle.facet_count_oracle(windows_3xn(3)) == 21
    assert oracle.facet_count_two_classes(windows_3xn(3)) == 21
    # a square in R^4: four edges, and the square itself is the one two-class face
    assert oracle.facet_count_oracle(windows_1d(2, 2, 2)) == 4
    assert oracle.facet_count_two_classes(windows_1d(2, 2, 2)) == 1


def test_product_family_top_dimension():
    # disjoint windows: polytope is a product, top dimension drops
    fam = windows_1d(2, 2, 2)
    fv = oracle.enumerate_faces(fam)
    assert fv.polytope_dim == 2
    assert fv.counts[2] == 1


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        oracle.enumerate_vertices(windows_1d(20, 6, 1), budget=10**6)
    with pytest.raises(BudgetExceededError):
        oracle.count_vertices(windows_1d(20, 6, 1), budget=10**6)
    with pytest.raises(BudgetExceededError):
        oracle.enumerate_faces(windows_3xn(5))  # 15^8 over the default budget


def test_region_pattern():
    fam = windows_1d(2, 3, 1)
    assert oracle.region_pattern(fam, (5, 1, 2, 0)) == (0, 2)
    with pytest.raises(TieDetectedError):
        oracle.region_pattern(fam, (1, 1, 0, 0))


def test_region_pattern_decreasing_input():
    fam = windows_3xn(2)
    x = [1.0 - 0.1 * i for i in range(6)]
    word = oracle.region_pattern(fam, x)
    assert word == (0, 2)
    assert is_face(selection_from_word(fam, word))


def test_region_patterns_are_faces():
    fam = windows_1d(3, 3, 1)
    distinct, all_faces = oracle.sample_regions(fam, 3000, seed=5)
    assert all_faces
    assert distinct <= len(oracle.enumerate_vertices(fam))


def test_sample_regions_converges_1d():
    distinct, all_faces = oracle.sample_regions(windows_1d(2, 3, 1), 20000, seed=0)
    assert (distinct, all_faces) == (7, True)
    distinct, _ = oracle.sample_regions(windows_1d(1, 2, 1), 1000, seed=1)
    assert distinct == 2


def test_sample_regions_redraws_ties(monkeypatch):
    # every other draw is declared tied; each trial must redraw once and the
    # sample must still reach every region
    calls = []
    real = oracle.region_pattern

    def tie_every_other_draw(family, x):
        calls.append(len(x))
        if len(calls) % 2:
            raise TieDetectedError("forced redraw")
        return real(family, x)

    monkeypatch.setattr(oracle, "region_pattern", tie_every_other_draw)
    assert oracle.sample_regions(windows_3xn(2), 3000, 1) == (14, True)
    assert calls == [6] * 6000


def test_sample_regions_ignores_global_random_state():
    fam = windows_1d(3, 3, 1)
    results = []
    for global_seed in (0, 1):
        random.seed(global_seed)
        before = random.getstate()
        results.append(oracle.sample_regions(fam, 200, seed=3))
        assert random.getstate() == before
    assert results[0] == results[1]


def test_sample_regions_deterministic():
    a = oracle.sample_regions(windows_1d(3, 3, 1), 500, seed=123)
    b = oracle.sample_regions(windows_1d(3, 3, 1), 500, seed=123)
    assert a == b


def test_vertex_count_never_exceeded_by_sampling():
    for fam in (windows_1d(2, 3, 1), windows_1d(2, 4, 2), windows_3xn(2)):
        n_vertices = len(oracle.enumerate_vertices(fam))
        distinct, _ = oracle.sample_regions(fam, 2000, seed=9)
        assert distinct <= n_vertices


def test_face_walk_order_independent():
    # the window order must never change the tallies
    fam = windows_3xn(3)

    def tally(order):
        permuted = WindowFamily(fam.ambient_size, tuple(fam.windows[i] for i in order))
        return oracle.enumerate_faces(permuted)

    base = tally([0, 1, 2, 3])
    assert base == tally([3, 2, 1, 0])
    assert base == tally([0, 2, 1, 3])


def test_fvector_top_entry():
    # whenever windows chain-overlap the polytope has full dimension d-1
    for n, k, s in [(2, 3, 1), (3, 4, 2), (2, 2, 1), (4, 3, 2)]:
        fam = windows_1d(n, k, s)
        fv = oracle.enumerate_faces(fam)
        assert fv.polytope_dim == fam.ambient_size - 1
        assert fv.counts[fv.polytope_dim] == 1
