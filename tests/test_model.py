import pytest

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
    assert not fam.covers_ambient


def test_windows_3xn_shapes():
    for n in (2, 3, 4):
        fam = windows_3xn(n)
        assert fam.ambient_size == 3 * n
        assert len(fam.windows) == 2 * (n - 1)
        assert all(len(w) == 4 for w in fam.windows)
        assert fam.covers_ambient


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


def test_layer_1d_matches_windows_1d():
    # whenever k >= s the window union has no gaps and trimming is a no-op
    for n, k, s in [(2, 3, 1), (3, 4, 2), (1, 5, 2), (4, 2, 2), (5, 2, 1)]:
        layer = PoolingLayer((s * (n - 1) + k,), (k,), s)
        assert windows_from_layer(layer) == windows_1d(n, k, s)


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


def test_layer_trims_unused_coordinates():
    # a 1-D layer whose last coordinates no window reaches
    layer = PoolingLayer((6,), (3,), 2)  # placements r = 0, 1 cover {0..4}
    fam = windows_from_layer(layer)
    assert fam.ambient_size == 5
    assert fam.covers_ambient
    assert fam == windows_1d(2, 3, 2)


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
