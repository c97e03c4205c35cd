"""The package records: immutable named tuples that keep their validation."""

import pytest

from poolregions import frontier, oracle, seq2d
from poolregions.errors import InvalidParamsError, InvalidSelectionError
from poolregions.faces import (
    FaceSelection,
    SelectionGraph,
    build_selection_graph,
    normal_cone,
    selection_from_word,
)
from poolregions.facets1d import HRep, h_representation
from poolregions.model import PoolingLayer, WindowFamily, windows_1d, windows_3xn
from poolregions.polyalg import TransferMatrix, rational_gf
from poolregions.seq1d import adjacency, gf_closed

FAMILY = windows_1d(2, 3, 1)
VERTEX = selection_from_word(FAMILY, (0, 1))
HREP = h_representation(2, 3, 1)

RECORDS = {
    "FaceSelection": VERTEX,
    "SelectionGraph": build_selection_graph(VERTEX),
    "ConeDescription": normal_cone(VERTEX),
    "HRow": HREP.inequalities[0],
    "HRep": HREP,
    "PoolingLayer": PoolingLayer((3, 3), (2, 2), 1),
    "WindowFamily": FAMILY,
    "FVector": frontier.fvector(FAMILY),
    "RationalGF": rational_gf((1,), (1, -2)),
    "TransferMatrix": adjacency(3, 1),
    "ClosedForm": gf_closed(4, 2),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_immutable(name):
    rec = RECORDS[name]
    assert type(rec).__name__ == name
    for field in (*rec._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
    assert rec == tuple(rec)
    assert repr(rec).startswith(f"{name}({rec._fields[0]}=")


# each validated record, built from lists and from the normalised tuples
VALIDATED = [
    (lambda: FaceSelection(FAMILY, [[0, 1], [3]]),
     lambda: FaceSelection(FAMILY, (frozenset({0, 1}), frozenset({3})))),
    (lambda: PoolingLayer([3, 4], [2, 2], 1), lambda: PoolingLayer((3, 4), (2, 2), 1)),
    (lambda: WindowFamily(3, [[0, 1], [1, 2]]),
     lambda: WindowFamily(3, (frozenset({0, 1}), frozenset({1, 2})))),
    (lambda: TransferMatrix([[1, 0], [2, 1]]), lambda: TransferMatrix(((1, 0), (2, 1)))),
]


@pytest.mark.parametrize("from_lists, from_tuples", VALIDATED)
def test_validated_record_normalises_inputs(from_lists, from_tuples):
    a, b = from_lists(), from_tuples()
    assert a == b and hash(a) == hash(b)
    for x, y in zip(a, b):
        assert type(x) is type(y)
        if isinstance(y, tuple):
            assert [type(t) for t in x] == [type(t) for t in y]


@pytest.mark.parametrize("build, error", [
    (lambda: FaceSelection(FAMILY, [[0]]), InvalidSelectionError),
    (lambda: FaceSelection(FAMILY, [[0], []]), InvalidSelectionError),
    (lambda: FaceSelection(FAMILY, [[0], [0]]), InvalidSelectionError),
    (lambda: PoolingLayer([3], [2, 2], 1), InvalidParamsError),
    (lambda: WindowFamily(3, [[0, 3]]), InvalidParamsError),
    (lambda: TransferMatrix([]), InvalidParamsError),
    (lambda: TransferMatrix([[1, 0]]), InvalidParamsError),
    (lambda: TransferMatrix([[1, 0], [1]]), InvalidParamsError),
    (lambda: TransferMatrix([[1, 0], [-1, 1]]), InvalidParamsError),
])
def test_validated_record_rejects_bad_input(build, error):
    with pytest.raises(error):
        build()


def test_records_store_only_independent_fields():
    # a field another field fixes is computed where it is read
    assert TransferMatrix._fields == ("entries",)
    assert PoolingLayer._fields == ("input_dims", "window_dims", "stride")
    assert oracle.FVector._fields == ("counts",)
    assert HRep._fields == ("equalities", "inequalities")
    assert SelectionGraph._fields == ("classes", "edges")
    assert not hasattr(seq2d, "ClassCounts")


def test_derived_fields_read_their_source():
    for m in (adjacency(5, 2), seq2d.b6_matrix()):
        assert m.size == len(m.entries)
    fam = windows_3xn(3)
    for fv in (oracle.enumerate_faces(fam), frontier.fvector(fam)):
        assert fv.polytope_dim == max(fv.counts) == 8
    rep = h_representation(3, 4, 2)
    assert {len(row.coeffs) for row in rep.rows()} == {rep.ambient} == {8}
    loop = SelectionGraph((frozenset({0}), frozenset({1})), frozenset({(0, 1), (1, 1)}))
    assert not loop.acyclic and loop._replace(edges=frozenset({(0, 1)})).acyclic
    counts = seq2d.class_counts(3)
    assert type(counts) is tuple and len(counts) == 14 and sum(counts) == 150
