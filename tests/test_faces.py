import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolregions.errors import InvalidSelectionError, NotAFaceError
from poolregions.faces import (
    FaceSelection,
    build_selection_graph,
    face_dimension,
    full_selection,
    is_face,
    normal_cone,
    selection_from_word,
)
from poolregions.model import PoolingLayer, WindowFamily, windows_1d, windows_3xn, windows_from_layer
from strategies import all_selections, families


def grid_3x3():
    return windows_from_layer(PoolingLayer((3, 3), (2, 2), 1))


# independent facehood oracle: search for integer level values h over the
# coordinates that are constant on each chosen set and strictly larger there
# than on the rest of the window
def has_supporting_levels(sel):
    d = sel.family.ambient_size
    for levels in itertools.product(range(d), repeat=d):
        ok = True
        for chosen, window in zip(sel.chosen, sel.family.windows):
            vals = {levels[a] for a in chosen}
            if len(vals) != 1:
                ok = False
                break
            top = vals.pop()
            if any(levels[b] >= top for b in window - chosen):
                ok = False
                break
        if ok:
            return True
    return False


def test_center_panel_cycle():
    # 3x3 grid, one singleton per window, chosen cells forming a ring
    sel = selection_from_word(grid_3x3(), (1, 5, 3, 7))
    assert not is_face(sel)
    with pytest.raises(NotAFaceError):
        face_dimension(sel)


def test_right_panel_acyclic():
    sel = selection_from_word(grid_3x3(), (0, 5, 4, 8))
    assert is_face(sel)
    assert face_dimension(sel) == 0


def test_single_window_full_face():
    fam = windows_1d(1, 4, 1)
    sel = full_selection(fam)
    g = build_selection_graph(sel)
    assert g.acyclic
    assert len(g.classes) == 1
    assert not g.edges
    assert face_dimension(sel) == 3


def test_full_selection_dimension():
    assert face_dimension(full_selection(windows_1d(2, 3, 1))) == 3
    assert face_dimension(full_selection(windows_1d(3, 4, 2))) == 7
    assert face_dimension(full_selection(windows_3xn(2))) == 5


def test_full_selection_always_acyclic():
    for fam in (windows_1d(4, 3, 1), windows_1d(3, 2, 2), windows_3xn(3), grid_3x3()):
        assert is_face(full_selection(fam))


def test_disjoint_singletons_are_faces():
    fam = windows_1d(3, 2, 2)  # disjoint-ish windows (k = s)
    for word in itertools.product(*[sorted(w) for w in fam.windows]):
        assert is_face(selection_from_word(fam, word))


def test_vertex_dimension_zero():
    fam = windows_1d(2, 3, 1)
    for word in [(0, 1), (0, 3), (2, 2)]:
        assert face_dimension(selection_from_word(fam, word)) == 0


def test_selection_validation():
    fam = windows_1d(2, 3, 1)
    with pytest.raises(InvalidSelectionError):
        FaceSelection(fam, (frozenset({0}),))  # wrong arity
    with pytest.raises(InvalidSelectionError):
        FaceSelection(fam, (frozenset({0}), frozenset()))  # empty
    with pytest.raises(InvalidSelectionError):
        FaceSelection(fam, (frozenset({3}), frozenset({1})))  # 3 not in window 0


def test_facehood_matches_supporting_level_search():
    # exhaustive agreement with the independent linear-functional search
    for fam in (windows_1d(2, 3, 1), windows_1d(3, 2, 1), windows_1d(2, 2, 2)):
        for sel in all_selections(fam):
            assert is_face(sel) == has_supporting_levels(sel)


def test_facehood_matches_supporting_levels_3x2():
    fam = windows_3xn(2)
    sels = list(all_selections(fam))
    for sel in sels[::7]:  # thinned: the search is d^d per selection
        assert is_face(sel) == has_supporting_levels(sel)


def test_normal_cone_vertex_word():
    fam = windows_1d(2, 3, 1)
    cone = normal_cone(selection_from_word(fam, (0, 3)))
    assert cone.equalities == ()
    # x_1 <= x_0, x_2 <= x_0, x_1 <= x_3, x_2 <= x_3
    assert set(cone.inequalities) == {(1, 0), (2, 0), (1, 3), (2, 3)}


def test_normal_cone_full_selection_is_lineality():
    cone = normal_cone(full_selection(windows_1d(2, 3, 1)))
    assert cone.inequalities == ()
    assert set(cone.equalities) == {(a, b) for a in range(4) for b in range(a + 1, 4)}


def test_normal_cone_rejects_nonface():
    with pytest.raises(NotAFaceError):
        normal_cone(selection_from_word(grid_3x3(), (1, 5, 3, 7)))


def test_normal_cone_grid_vertex():
    # acyclic singleton selection on the 3x3 grid: one inequality per
    # (chosen, other-window-coordinate) pair
    cone = normal_cone(selection_from_word(grid_3x3(), (0, 5, 4, 8)))
    assert cone.equalities == ()
    assert set(cone.inequalities) == {
        (1, 0), (3, 0), (4, 0),
        (1, 5), (2, 5), (4, 5),
        (3, 4), (6, 4), (7, 4),
        (4, 8), (5, 8), (7, 8),
    }


def test_normal_cone_levels_satisfy_description():
    # any topological level assignment read back through the cone rows must
    # rank chosen coordinates strictly above their window's rest
    fam = windows_3xn(2)
    for sel in all_selections(fam):
        g = build_selection_graph(sel)
        if not g.acyclic:
            continue
        cone = normal_cone(sel)
        for a, b in cone.inequalities:
            assert a != b


def topological_levels(graph):
    """Longest-path height of each class in the (acyclic) class DAG."""
    succ = {}
    for u, v in graph.edges:
        succ.setdefault(u, set()).add(v)
    height = {}

    def h(u):
        if u not in height:
            height[u] = 1 + max((h(v) for v in succ.get(u, ())), default=0)
        return height[u]

    return [h(i) for i in range(len(graph.classes))]


def test_topological_levels_reselect_chosen_faces():
    # the class-DAG heights give a functional whose per-window argmax set is
    # exactly the chosen set: the full roundtrip of the criterion
    for fam in (windows_1d(3, 3, 1), windows_1d(2, 4, 2), windows_3xn(2)):
        for sel in all_selections(fam):
            g = build_selection_graph(sel)
            if not g.acyclic:
                continue
            levels = topological_levels(g)
            coord_level = {}
            for idx, cls in enumerate(g.classes):
                for a in cls:
                    coord_level[a] = levels[idx]
            for chosen, window in zip(sel.chosen, fam.windows):
                top = max(coord_level[a] for a in window)
                argmax = {a for a in window if coord_level[a] == top}
                assert argmax == set(chosen)


def test_sink_removal_preserves_acyclicity():
    # dropping sink classes (no outgoing edges) never changes the verdict
    def acyclic_after_sink_removal(sel):
        g = build_selection_graph(sel)
        keep = {i for i, _ in g.edges}
        edges = {(u, v) for u, v in g.edges if u in keep and v in keep}
        # detect cycles among kept nodes only
        adj = {}
        for u, v in edges:
            adj.setdefault(u, set()).add(v)
        seen, done = set(), set()

        def dfs(u):
            seen.add(u)
            for v in adj.get(u, ()):
                if v in seen and v not in done:
                    return True
                if v not in seen and dfs(v):
                    return True
            done.add(u)
            return False

        return not any(dfs(u) for u in list(adj) if u not in seen)

    fam = windows_1d(3, 3, 1)
    for sel in all_selections(fam):
        assert is_face(sel) == acyclic_after_sink_removal(sel)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_restriction_monotone(data):
    # dropping windows can only remove edges/merges: a face stays a face
    fam = windows_1d(4, 3, 1)
    sel = FaceSelection(
        fam,
        tuple(
            frozenset(data.draw(st.sets(st.sampled_from(sorted(w)), min_size=1)))
            for w in fam.windows
        ),
    )
    if not is_face(sel):
        return
    keep = data.draw(st.sets(st.integers(min_value=0, max_value=3), min_size=1))
    sub_windows = tuple(fam.windows[i] for i in sorted(keep))
    sub_chosen = tuple(sel.chosen[i] for i in sorted(keep))
    sub_fam = WindowFamily(fam.ambient_size, sub_windows)
    assert is_face(FaceSelection(sub_fam, sub_chosen))


def test_graph_edges_match_definition():
    # recompute edges naively from the definition and compare
    fam = windows_3xn(2)
    for sel in list(all_selections(fam))[::11]:
        g = build_selection_graph(sel)
        cls_of = {}
        for i, cls in enumerate(g.classes):
            for a in cls:
                cls_of[a] = i
        expected = set()
        for chosen, window in zip(sel.chosen, fam.windows):
            for a in chosen:
                for b in window - chosen:
                    expected.add((cls_of[a], cls_of[b]))
        assert set(g.edges) == expected


@st.composite
def selections(draw):
    # a random family, then one nonempty chosen subset per window
    family = draw(families())
    chosen = [draw(st.frozensets(st.sampled_from(sorted(w)), min_size=1)) for w in family.windows]
    return FaceSelection(family, chosen)


@settings(max_examples=300, deadline=None)
@given(selections())
def test_classes_are_the_merged_parts(sel):
    # merge every chosen set with all the parts it meets, one set at a time
    parts = [frozenset((a,)) for a in range(sel.family.ambient_size)]
    for c in sel.chosen:
        parts = [p for p in parts if not p & c] + [frozenset().union(*(p for p in parts if p & c))]
    assert build_selection_graph(sel).classes == tuple(sorted(parts, key=min))
