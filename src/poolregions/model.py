"""Max-pooling layer configurations and their window families.

A pooling layer of any dimension is materialized as a family of "windows":
subsets of its d input cells, flattened row-major to {0, ..., d-1}, one per
output cell.  All downstream counting (vertices, faces, facets of the
associated Minkowski sum of simplices) works purely on these index subsets.
"""

from __future__ import annotations

import math
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

    `ambient_size` is d; `windows` is a tuple of frozensets.  A layer's
    family keeps every input cell as a coordinate, so windows may leave
    gaps (a 1-D layer with k < s, or cells past the last placement); a
    coordinate no window uses stays a class of its own and changes no count.
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


def windows_from_layer(layer: PoolingLayer) -> WindowFamily:
    """The layer's windows as sets of row-major flat input-cell indices.

    One window per valid placement r (lexicographic order over r): the flat
    index of its corner cell stride*r plus the flat offsets of the base
    window.  The ambient size is the number of input cells.
    """
    K, k, s = layer
    # row-major flat indices (last axis fastest), built axis by axis
    offsets, corners = [0], [0]
    for Kax, kax in zip(K, k):
        offsets = [c * Kax + i for c in offsets for i in range(kax)]
        corners = [c * Kax + i for c in corners for i in range(0, Kax - kax + 1, s)]
    return WindowFamily(math.prod(K), [frozenset(map(c.__add__, offsets)) for c in corners])


def windows_1d(n: int, k: int, s: int) -> WindowFamily:
    """The n windows {s*i, ..., s*i+k-1} on {0, ..., s(n-1)+k-1}.

    The family of the 1-D layer with s(n-1)+k inputs.  Consecutive windows
    overlap in max(0, k-s) coordinates; for k < s the coordinates between
    them belong to no window.
    """
    if n < 1 or k < 1 or s < 1:
        raise InvalidParamsError("n, k, s must be positive")
    return windows_from_layer(PoolingLayer((s * (n - 1) + k,), (k,), s))


def windows_3xn(n: int) -> WindowFamily:
    """The 2(n-1) two-by-two windows, stride 1, on the 3-row, n-column grid.

    The layer's family from `windows_from_layer`: cell (i, j) flattens
    row-major to i*n + j, and the windows are ordered with the top row of
    placements first, (i=0, j=0..n-2) then (i=1, j=0..n-2).
    """
    if n < 2:
        raise InvalidParamsError("need n >= 2 columns")
    return windows_from_layer(PoolingLayer((3, n), (2, 2), 1))
