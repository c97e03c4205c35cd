import math

import pytest

from poolregions import frontier, oracle
from poolregions.errors import InvalidParamsError
from poolregions.model import (
    PoolingLayer,
    WindowFamily,
    windows_1d,
    windows_3xn,
    windows_from_layer,
)


def test_windows_1d_basic():
    fam = windows_1d(2, 3, 1)
    assert fam.ambient_size == 4
    assert [sorted(w) for w in fam.windows] == [[0, 1, 2], [1, 2, 3]]


def test_windows_1d_single_window():
    fam = windows_1d(1, 5, 2)
    assert fam.ambient_size == 5
    assert [sorted(w) for w in fam.windows] == [[0, 1, 2, 3, 4]]


def test_windows_1d_stride_two():
    fam = windows_1d(3, 4, 2)
    assert fam.ambient_size == 8
    assert [sorted(w) for w in fam.windows] == [
        [0, 1, 2, 3],
        [2, 3, 4, 5],
        [4, 5, 6, 7],
    ]


def test_windows_1d_overlaps():
    for n, k, s in [(4, 3, 1), (3, 5, 2), (4, 2, 2), (2, 2, 3)]:
        fam = windows_1d(n, k, s)
        assert len(fam.windows) == n
        assert all(len(w) == k for w in fam.windows)
        for a, b in zip(fam.windows, fam.windows[1:]):
            assert len(a & b) == max(0, k - s)


def test_windows_1d_gap_coordinates_kept():
    fam = windows_1d(2, 2, 3)  # windows {0,1}, {3,4}: coordinate 2 unused
    assert fam.ambient_size == 5
    assert frozenset().union(*fam.windows) == {0, 1, 3, 4}


def test_windows_3xn_shapes():
    for n in (2, 3, 4):
        fam = windows_3xn(n)
        assert fam.ambient_size == 3 * n
        assert len(fam.windows) == 2 * (n - 1)
        assert all(len(w) == 4 for w in fam.windows)
        assert frozenset().union(*fam.windows) == set(range(3 * n))


def test_windows_3xn_layout():
    fam = windows_3xn(2)
    assert [sorted(w) for w in fam.windows] == [[0, 1, 2, 3], [2, 3, 4, 5]]
    fam3 = windows_3xn(3)
    assert [sorted(w) for w in fam3.windows] == [
        [0, 1, 3, 4],
        [1, 2, 4, 5],
        [3, 4, 6, 7],
        [4, 5, 7, 8],
    ]


def test_windows_1d_are_the_written_out_windows():
    # k < s included: the last three leave gap coordinates
    cases = [(2, 3, 1), (3, 4, 2), (1, 5, 2), (4, 2, 2), (5, 2, 1), (2, 2, 3), (3, 2, 3), (3, 1, 4)]
    for n, k, s in cases:
        assert windows_1d(n, k, s) == WindowFamily(
            s * (n - 1) + k, tuple(frozenset(range(s * i, s * i + k)) for i in range(n))
        )


def test_layer_3xn_matches_windows_3xn():
    # windows_3xn is the layer's family: placements with the top row first,
    # cell (i, j) flattened to i*n + j
    for n in range(2, 12):
        layer = PoolingLayer((3, n), (2, 2), 1)
        assert windows_from_layer(layer) == windows_3xn(n)
        assert windows_3xn(n) == WindowFamily(3 * n, tuple(
            frozenset((i + di) * n + j + dj for di in (0, 1) for dj in (0, 1))
            for i in (0, 1) for j in range(n - 1)
        ))


@pytest.mark.parametrize("layer, windows, trimmed", [
    # placements r = 0, 1 cover cells 0..4; cell 5 is no window's
    (PoolingLayer((6,), (3,), 2), [{0, 1, 2}, {2, 3, 4}], WindowFamily(5, [{0, 1, 2}, {2, 3, 4}])),
    # one placement: the last row and column of the 3x3 input are unused
    (PoolingLayer((3, 3), (2, 2), 2), [{0, 1, 3, 4}], WindowFamily(4, [{0, 1, 2, 3}])),
], ids=["1d", "2d"])
def test_layer_keeps_its_input_coordinates(layer, windows, trimmed):
    fam = windows_from_layer(layer)
    assert fam == WindowFamily(math.prod(layer.input_dims), windows)
    # coordinates no window uses change no count
    assert frontier.fvector(fam) == frontier.fvector(trimmed)
    assert oracle.enumerate_faces(fam) == oracle.enumerate_faces(trimmed)


def test_layer_validation():
    with pytest.raises(InvalidParamsError):
        PoolingLayer((), (), 1)
    with pytest.raises(InvalidParamsError):
        PoolingLayer((3,), (4,), 1)
    with pytest.raises(InvalidParamsError):
        PoolingLayer((3,), (2,), 0)
    with pytest.raises(InvalidParamsError):
        PoolingLayer((3,), (2, 2), 1)


def test_window_family_validation():
    with pytest.raises(InvalidParamsError):
        WindowFamily(3, (frozenset(),))
    with pytest.raises(InvalidParamsError):
        WindowFamily(3, (frozenset({3}),))
    with pytest.raises(InvalidParamsError):
        WindowFamily(3, ())
