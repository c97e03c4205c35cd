"""Max-pooling layer configurations and their window families.

A pooling layer of any dimension is materialized as a family of "windows":
subsets of a flattened coordinate set {0, ..., d-1}, one per output cell.
All downstream counting (vertices, faces, facets of the associated Minkowski
sum of simplices) works purely on these index subsets.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import InvalidParamsError


class PoolingLayer(namedtuple("PoolingLayer", "input_dims window_dims stride")):
    """A max-pooling layer: input extents, window extents, shared stride.

    `input_dims` and `window_dims` are tuples of one extent per array axis
    (K_1..K_nu and k_1..k_nu, so nu is their common length); `stride` is a
    single scalar shared by all axes.
    """

    __slots__ = ()

    def __new__(cls, input_dims, window_dims, stride: int):
        input_dims, window_dims = tuple(input_dims), tuple(window_dims)
        if not input_dims or len(window_dims) != len(input_dims):
            raise InvalidParamsError("need at least one axis and one window extent per input axis")
        if stride < 1:
            raise InvalidParamsError("stride must be >= 1")
        for K, k in zip(input_dims, window_dims):
            if k < 1 or K < 1:
                raise InvalidParamsError("all extents must be >= 1")
            if k > K:
                raise InvalidParamsError("window extent exceeds input extent")
        return super().__new__(cls, input_dims, window_dims, stride)


class WindowFamily(namedtuple("WindowFamily", "ambient_size windows")):
    """An ordered family of nonempty windows over coordinates {0,...,d-1}.

    `ambient_size` is d; `windows` is a tuple of frozensets.  Families
    produced from a PoolingLayer are trimmed: coordinates used by no window
    are dropped and the rest relabeled, so the windows cover {0,...,d-1}
    exactly.  Families built directly (windows_1d with k < s) may leave gaps;
    `covers_ambient` tells the two apart.
    """

    __slots__ = ()

    def __new__(cls, ambient_size: int, windows):
        windows = tuple(frozenset(w) for w in windows)
        if ambient_size < 1:
            raise InvalidParamsError("ambient size must be >= 1")
        if not windows:
            raise InvalidParamsError("need at least one window")
        for w in windows:
            if not w:
                raise InvalidParamsError("windows must be nonempty")
            if min(w) < 0 or max(w) >= ambient_size:
                raise InvalidParamsError("window coordinate out of range")
        return super().__new__(cls, ambient_size, windows)

    @property
    def covers_ambient(self) -> bool:
        return len(frozenset().union(*self.windows)) == self.ambient_size


def windows_from_layer(layer: PoolingLayer) -> WindowFamily:
    """Materialize a layer's windows as flattened, trimmed index sets.

    One window per valid placement r (lexicographic order over r); each is
    the row-major flattening of the base window shifted by stride*r.  Unused
    input coordinates are dropped and the remaining ones relabeled so the
    union of all windows is {0,...,d-1}.
    """
    K = layer.input_dims
    k = layer.window_dims
    s = layer.stride
    nu = len(K)
    # row-major flat index: last axis varies fastest
    mult = [1] * nu
    for ax in range(nu - 2, -1, -1):
        mult[ax] = mult[ax + 1] * K[ax + 1]

    placements = itertools.product(*[range((K[ax] - k[ax]) // s + 1) for ax in range(nu)])
    raw = []
    for r in placements:
        cells = itertools.product(*[range(s * r[ax], s * r[ax] + k[ax]) for ax in range(nu)])
        raw.append(frozenset(sum(c * m for c, m in zip(cell, mult)) for cell in cells))

    used = sorted(frozenset().union(*raw))
    relabel = {old: new for new, old in enumerate(used)}
    windows = tuple(frozenset(relabel[a] for a in w) for w in raw)
    return WindowFamily(ambient_size=len(used), windows=windows)


def windows_1d(n: int, k: int, s: int) -> WindowFamily:
    """The n windows {s*i, ..., s*i+k-1} on {0, ..., s(n-1)+k-1}.

    Consecutive windows overlap in max(0, k-s) coordinates; for k < s the
    family leaves gap coordinates (kept, not trimmed).
    """
    if n < 1 or k < 1 or s < 1:
        raise InvalidParamsError("n, k, s must be positive")
    d = s * (n - 1) + k
    return WindowFamily(d, tuple(frozenset(range(s * i, s * i + k)) for i in range(n)))


def windows_3xn(n: int) -> WindowFamily:
    """The 2(n-1) two-by-two windows, stride 1, on the 3-row, n-column grid.

    The layer's family from `windows_from_layer`: cell (i, j) flattens
    row-major to i*n + j, and the windows are ordered with the top row of
    placements first, (i=0, j=0..n-2) then (i=1, j=0..n-2).
    """
    if n < 2:
        raise InvalidParamsError("need n >= 2 columns")
    return windows_from_layer(PoolingLayer((3, n), (2, 2), 1))
