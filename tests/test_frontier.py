import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from poolregions import facets1d, frontier, oracle, seq1d, seq2d
from poolregions.errors import BudgetExceededError, InvalidParamsError
from poolregions.model import PoolingLayer, WindowFamily, windows_1d, windows_3xn, windows_from_layer
from poolregions.verify import EDGES_TABLE, Q_FACETS, TOTAL_FACES_TABLE, V_VALUES
from strategies import families


@settings(max_examples=60, deadline=None)
@given(families())
@example(WindowFamily(5, (frozenset({0, 1, 2}), frozenset({2, 3}), frozenset({3, 4, 0}))))
def test_fvector_matches_oracle_on_random_families(family):
    # the oracle's budget caps the candidate product, up to 127^4 for the
    # families drawn here, although its pruned walk stays small
    assert frontier.fvector(family) == oracle.enumerate_faces(family, budget=10**9)


@st.composite
def layers(draw):
    nu = draw(st.integers(1, 2))
    input_dims = tuple(draw(st.integers(1, 4)) for _ in range(nu))
    window_dims = tuple(draw(st.integers(1, K)) for K in input_dims)
    return PoolingLayer(input_dims, window_dims, draw(st.integers(1, 2)))


@settings(max_examples=30, deadline=None)
@given(layers())
def test_fvector_matches_oracle_on_layers(layer):
    family = windows_from_layer(layer)
    assume(math.prod((1 << len(w)) - 1 for w in family.windows) <= 10**5)
    assert frontier.fvector(family) == oracle.enumerate_faces(family)


def test_golden_tables_through_n5():
    for k in (3, 4, 5, 6):
        for n in range(1, 6):
            fv = frontier.fvector(windows_1d(n, k, 1))
            assert fv.counts[1] == EDGES_TABLE[k][n - 1], (k, n)
            assert fv.total() + 1 == TOTAL_FACES_TABLE[k][n - 1], (k, n)


@pytest.mark.parametrize("n, total", [(2, 130), (3, 5986), (4, 258530), (5, 11069570)])
def test_grid3xn_totals_vertices_and_facets(n, total):
    fv = frontier.fvector(windows_3xn(n))
    assert fv.total() + 1 == total
    assert fv.counts[0] == V_VALUES[n]
    assert fv.facet_count() == Q_FACETS[n]
    assert fv.polytope_dim == 3 * n - 1


def test_grid3xn_window_order_keeps_the_frontier_small():
    # 22 windows of 15 chosen sets each; the column sweep needs at most 45
    # states, whereas the row-first listing order of windows_3xn keeps a
    # whole row live and runs out of memory near this width
    fv = frontier.fvector(windows_3xn(12), budget=22 * 45 * 15)
    assert fv.counts[0] == seq2d.count_2d(12, "b6")
    assert fv.facet_count() == 480


def test_window_order_does_not_depend_on_the_transpose():
    # ties broken by index alone sweep 4x8 along its short axis and pass a
    # million states; the tie-breaks make it peak with 8x4, at 333 states
    tall = windows_from_layer(PoolingLayer((8, 4), (2, 2), 1))
    wide = windows_from_layer(PoolingLayer((4, 8), (2, 2), 1))
    assert frontier.fvector(wide, budget=10**6) == frontier.fvector(tall)


def test_euler_relation_and_independent_routes_426():
    n, k, s = 6, 4, 2
    fv = frontier.fvector(windows_1d(n, k, s))
    assert sum((-1) ** dim * c for dim, c in fv.counts.items()) == 1
    assert fv.counts[0] == seq1d.count_1d(n, k, s, "matrix")
    assert fv.facet_count() == facets1d.facet_count_formula(n, k, s)
    assert fv.total() == 607041


def test_gap_family():
    # k < s leaves the gap coordinates 2 and 5 unused: three disjoint
    # segments, so the polytope is a 3-cube
    fam = windows_1d(3, 2, 3)
    assert frozenset().union(*fam.windows) == {0, 1, 3, 4, 6, 7}
    fv = frontier.fvector(fam)
    assert fv.counts == {0: 8, 1: 12, 2: 6, 3: 1}
    assert fv.polytope_dim == 3
    assert fv == oracle.enumerate_faces(fam)


def test_budget_bounds_work_done():
    # a window of four offers 15 chosen sets to the one starting state
    with pytest.raises(BudgetExceededError):
        frontier.fvector(windows_3xn(4), budget=14)
    assert frontier.fvector(windows_1d(1, 4, 1), budget=15).total() == 15
    with pytest.raises(InvalidParamsError):
        frontier.fvector(windows_3xn(2), budget=0)
