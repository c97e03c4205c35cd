"""Facehood criterion for Minkowski sums of coordinate simplices.

A candidate face of the sum P = sum_i conv{e_a : a in w_i} is a list of
chosen vertex sets, one nonempty subset per window.  The criterion builds a
directed graph on equivalence classes of coordinates:

  * coordinates are merged when they appear together in some chosen set
    (transitive closure);
  * there is an edge from the class holding chosen[i] to the class of every
    coordinate of w_i not chosen by window i.

The candidate is a face exactly when this graph is acyclic, where a loop at
a single class counts as a cycle.  For a face, the dimension is
d - (number of classes), and the graph also yields the facial normal cone:
x_a = x_b inside a class, and x_a <= x_b whenever the class of b points to
the class of a.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvalidSelectionError, NotAFaceError
from .model import WindowFamily


class FaceSelection(namedtuple("FaceSelection", "family chosen")):
    """One chosen vertex set per window of a family (`chosen`: a tuple of
    frozensets, one per window of the WindowFamily `family`)."""

    __slots__ = ()

    def __new__(cls, family: WindowFamily, chosen):
        chosen = tuple(frozenset(c) for c in chosen)
        if len(chosen) != len(family.windows):
            raise InvalidSelectionError("need one chosen set per window")
        for c, w in zip(chosen, family.windows):
            if not c:
                raise InvalidSelectionError("chosen sets must be nonempty")
            if not c <= w:
                raise InvalidSelectionError("chosen set not contained in its window")
        return super().__new__(cls, family, chosen)


def selection_from_word(family: WindowFamily, word) -> FaceSelection:
    """Singleton selection picking coordinate word[i] inside window i."""
    return FaceSelection(family, tuple(frozenset((a,)) for a in word))


def full_selection(family: WindowFamily) -> FaceSelection:
    """The selection choosing every window entirely (the whole polytope)."""
    return FaceSelection(family, family.windows)


class SelectionGraph(namedtuple("SelectionGraph", "classes edges")):
    """Class partition plus directed class graph of a selection.

    `classes` (a tuple of frozensets) are sorted by minimum element; `edges`
    is a frozenset of ordered pairs of class indices (loops permitted).
    """

    __slots__ = ()

    @property
    def acyclic(self) -> bool:
        """Whether the graph has no directed cycle (a loop is one)."""
        from graphlib import CycleError, TopologicalSorter

        sorter = TopologicalSorter()
        for src, dst in self.edges:
            sorter.add(dst, src)
        try:
            sorter.prepare()
        except CycleError:
            return False
        return True


class ConeDescription(namedtuple("ConeDescription", "ambient equalities inequalities")):
    """Normal cone of a face, modulo the all-ones direction.

    Pairs (a, b) in `equalities` mean x_a = x_b; in `inequalities` they mean
    x_a <= x_b.  Representatives are minimum class elements, one relation per
    class pair; `ambient` is the number of coordinates.
    """

    __slots__ = ()


def build_selection_graph(sel: FaceSelection) -> SelectionGraph:
    """Compute the class partition and class graph of a selection."""
    # rep[a] is the least coordinate of a's class; a chosen set meeting
    # several classes relabels them all to the least of them
    rep = list(range(sel.family.ambient_size))
    for c in sel.chosen:
        hit = {rep[a] for a in c}
        if len(hit) > 1:
            least = min(hit)
            rep = [least if r in hit else r for r in rep]

    members: dict[int, list[int]] = {}
    for a, r in enumerate(rep):  # a class shows first at its least coordinate
        members.setdefault(r, []).append(a)
    index_of = {r: i for i, r in enumerate(members)}
    classes = tuple(map(frozenset, members.values()))

    edges = set()
    for c, w in zip(sel.chosen, sel.family.windows):
        src = index_of[rep[min(c)]]
        edges.update((src, index_of[rep[b]]) for b in w - c)
    return SelectionGraph(classes=classes, edges=frozenset(edges))


def is_face(sel: FaceSelection) -> bool:
    """Whether the selection's Minkowski sum of chosen faces is a face of P."""
    return build_selection_graph(sel).acyclic


def _face_graph(sel):
    """The selection graph, or NotAFaceError when it has a directed cycle."""
    graph = build_selection_graph(sel)
    if not graph.acyclic:
        raise NotAFaceError("selection graph has a directed cycle")
    return graph


def face_dimension(sel: FaceSelection) -> int:
    """Dimension of the face: ambient size minus the number of classes."""
    return sel.family.ambient_size - len(_face_graph(sel).classes)


def normal_cone(sel: FaceSelection) -> ConeDescription:
    """Equality/inequality description of the face's normal cone."""
    graph = _face_graph(sel)
    equalities = []
    for cls in graph.classes:
        elems = sorted(cls)
        equalities.extend((a, b) for i, a in enumerate(elems) for b in elems[i + 1:])
    reps = [min(cls) for cls in graph.classes]
    # edge (src -> dst) pins the dst class below the src class: x_dst <= x_src
    inequalities = sorted((reps[dst], reps[src]) for src, dst in graph.edges)
    return ConeDescription(
        ambient=sel.family.ambient_size,
        equalities=tuple(sorted(equalities)),
        inequalities=tuple(inequalities),
    )
