"""Vertex counts for the 3-row grid with two-by-two windows.

The two-window polytope on the 3x2 grid has 14 vertices; Q2_VERTEX_PAIRS
takes them from the oracle, in its lexicographic word order.  One private
reader, _cells, maps the two windows of any column pair of a 3xn vertex
word to one of these 14; Q2_VERTEX_PAIRS, derive_a14() and class_counts()
all read the oracle's vertex words through it.  The paper gives two
matrices.  A14 is a 14x14 0/1 matrix that records which pairs of these
vertices, on two overlapping column pairs, form a vertex of the width-3
polytope; derive_a14() reads it off the 150 vertex words of the 3x3 grid.
A14 does not count vertices: its walk counts 1^T A14^n 1 for n = 0..3 are 14,
150, 1538, 15636, against V_2..V_5 = 14, 150, 1536, 15594.  B6 is a 6x6
integer matrix whose powers give the vertex counts V_n for every width n;
nothing here derives it from A14.  This module carries both matrices, the
closed generating function, the 2-row reduction, per-class vertex counts,
and the growth rate.

Each count route computes its value one way.  The identities that tie the
routes together are proven once, by verify's two-dim check: B6's generating
function equals gf_2d(), and the 2-row generating function x/(1-4x+2x^2)
equals x + x^2 gf_1d(4, 2).  Both are equalities of rational functions, so
they hold for every n.
"""

from __future__ import annotations

import math

from . import oracle, seq1d
from .errors import InvalidParamsError
from .model import windows_3xn
from .polyalg import (
    RationalGF,
    TransferMatrix,
    mat_power_entry,
    rational_gf,
    series_coeff,
    smallest_positive_root,
)


def _cells(word, n, c):
    """The cells (row, col - c) that windows c and n - 1 + c of a 3xn word choose.

    In windows_3xn(n) these are the upper and lower windows of column pair
    (c, c + 1), and cell (i, j) is the flat coordinate i*n + j.
    """
    up, lo = word[c], word[n - 1 + c]
    return (up // n, up % n - c), (lo // n, lo % n - c)


# the 14 vertices of the two-window (3x2) polytope, each as its chosen cell
# (row, col) in the upper and lower window, in the oracle's lexicographic
# word order; the transfer matrices index by this order, and A14_ENTRIES and
# the class counts pin it
Q2_VERTEX_PAIRS: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = tuple(
    _cells(w, 2, 0) for w in oracle.enumerate_vertices(windows_3xn(2))
)
_PAIR_INDEX = {pair: i for i, pair in enumerate(Q2_VERTEX_PAIRS)}

# the paper's 14x14 matrix: entry (i, j) = 1 when the j-th vertex of the left
# column pair plus the i-th vertex of the right column pair is a vertex of the
# width-3 polytope; derive_a14() reads it off the oracle's width-3 vertices
# and must reproduce it exactly
A14_ENTRIES: tuple[tuple[int, ...], ...] = (
    (1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 0, 0, 0, 0),
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0),
    (1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1, 0, 0, 0),
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0),
    (1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 0),
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1, 0, 1, 1),
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 0),
    (1, 0, 1, 1, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1),
    (1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (1, 0, 1, 1, 0, 0, 1, 1, 1, 1, 1, 0, 1, 1),
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
)

# the paper's 6x6 matrix; V_n is entry (5, 6) of the n-th power.  It is not
# a reduction of A14 (see the module docstring): verify proves its generating
# function equal to gf_2d() and checks its counts against the oracle
B6_ENTRIES: tuple[tuple[int, ...], ...] = (
    (2, 2, 1, 1, 1, 1),
    (2, 3, 1, 1, 2, 1),
    (2, 2, 1, 2, 1, 1),
    (2, 3, 1, 2, 2, 1),
    (2, 4, 1, 2, 4, 1),
    (2, 2, 1, 0, 1, 1),
)
B6_COUNT_ENTRY = (4, 5)  # entry (5, 6) above, zero-based

COUNT_METHODS = ("oracle", "b6", "gf")


def b6_matrix() -> TransferMatrix:
    return TransferMatrix(B6_ENTRIES)


def derive_a14() -> TransferMatrix:
    """Read the 14x14 appending matrix off the vertices of the 3x3 grid.

    Left vertices live in columns (0, 1), right vertices in columns (1, 2).
    Entry (right, left) is 1 when the four-window word joining them is a
    vertex.  Every vertex word of windows_3xn(3) is such a join, since its
    windows on either column pair choose a Q2 vertex, so setting the entry
    of each of its 150 vertex words gives the whole matrix.
    """
    entries = [[0] * 14 for _ in range(14)]
    for w in oracle.enumerate_vertices(windows_3xn(3)):
        entries[_PAIR_INDEX[_cells(w, 3, 1)]][_PAIR_INDEX[_cells(w, 3, 0)]] = 1
    return TransferMatrix(entries)


def gf_2d() -> RationalGF:
    """Generating function x + sum_{n>=2} V_n x^n, in closed form."""
    return rational_gf((0, 1, 1, -1), (1, -13, 31, -20, 4))


def count_2d(n: int, method: str = "b6", budget: int = oracle.DEFAULT_BUDGET) -> int:
    """Number of vertices V_n of the width-n polytope.

    Methods: `oracle` (full enumeration; the budget bounds n, and the
    default of 10**8 stops it at n = 8), `b6` (entry (5, 6) of the n-th
    power), `gf` (series coefficient).
    """
    if n < 2:
        raise InvalidParamsError("need n >= 2")
    if method == "oracle":
        return oracle.count_vertices(windows_3xn(n), budget)
    if method == "b6":
        return mat_power_entry(b6_matrix(), n, *B6_COUNT_ENTRY)
    if method == "gf":
        return series_coeff(gf_2d(), n)
    raise InvalidParamsError(f"unknown method {method!r}")


def count_methods(n: int) -> tuple[str, ...]:
    """The count_2d routes that cross-check V_n by default; the oracle walk only for n <= 4."""
    return ("b6", "gf", "oracle") if n <= 4 else ("b6", "gf")


def count_2xn(n: int) -> int:
    """Vertices of the 2-row, n-column case, via the 1-D (k, s) = (4, 2) model."""
    if n < 2:
        raise InvalidParamsError("need n >= 2")
    return seq1d.count_1d(n - 1, 4, 2, method="matrix")


def class_counts(n: int, budget: int = oracle.DEFAULT_BUDGET) -> tuple[int, ...]:
    """Vertex counts of the width-n polytope keyed by rightmost column pair.

    Entry i is the number of oracle vertices whose last two windows choose
    the i-th canonical two-window vertex (0-indexed against Q2_VERTEX_PAIRS);
    the 14 entries sum to V_n.  Each vertex is tallied as the walk reaches
    it, so no word is kept.  The oracle budget bounds n; the default of
    10**8 stops it at n = 8.
    """
    if n < 2:
        raise InvalidParamsError("need n >= 2")
    counts = [0] * 14

    def tally(word, last):
        for a in last:
            counts[_PAIR_INDEX[_cells((*word, a), n, n - 2)]] += 1

    oracle.walk_vertices(windows_3xn(n), tally, budget)
    return tuple(counts)


def growth_2d() -> float:
    """Exponential growth rate lim (1/n) log V_n."""
    rho = smallest_positive_root(gf_2d().den)
    return math.log(1 / rho)
