"""Vertex counts of the one-dimensional window polytopes.

For window size k and stride s with k > s, vertices of the n-window polytope
correspond to words (i_0, ..., i_{n-1}) with i_j in window j whose
standardization (subtract s*j from letter j) avoids certain consecutive
pairs, i.e. to length-(n-1) walks in a digraph on {0, ..., k-1}.  This
module builds that digraph, counts by four independent routes (word oracle,
matrix powers, generating function, closed forms), and evaluates growth
rates.

The three transfer routes (the `matrix` count, `gf_1d` and `growth_1d`)
run on the quotient Q of `adjacency(k, s)` on its runs, built and
certified (`polyalg.quotient`) once per (k, s) per process: the number of
walks of length n is sizes . Q^n . 1, sizes[b] being the states in run b,
and det(I - xQ) has the same least positive root as det(I - xM).  Run b
holds the letters a with a // s = b, so Q has ceil(k/s) states; for
k = s + 1, where no pair is forbidden, one block holds every letter.  The
runs are equitable for every k > s.  A letter a < s may be followed by
any letter, so it sends sizes[j] into run j.  A letter a >= s in run i may
be followed only by the s letters of [k - s, k) and by a - s, which lies
in run i - 1 and not in [k - s, k), so it sends the number of letters of
run j in [k - s, k), plus 1 when j = i - 1.  Both depend on the run alone.
`adjacency(k, s)` itself stays the definition.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from . import oracle
from .errors import (
    InvalidParamsError,
    OutOfWindowError,
    RegimeNotCoveredError,
    VerificationError,
)
from .model import windows_1d
from .polyalg import (
    RationalGF,
    TransferMatrix,
    det_poly,
    gf_equal,
    gf_from_matrix,
    quotient,
    rational_gf,
    series_coeff,
    smallest_positive_root,
    vec_mat_power,
)

COUNT_METHODS = ("oracle", "matrix", "gf", "closed")


def _forbidden(a: int, b: int, k: int, s: int) -> bool:
    # standardized letters a then b clash exactly when both sit in the
    # overlap of consecutive windows (a >= s, b <= k-s-1) yet name different
    # coordinates there (a != b + s)
    return a >= s and b <= k - s - 1 and a != b + s


def adjacency(k: int, s: int) -> TransferMatrix:
    """0/1 transition matrix of allowed consecutive standardized letters.

    Zero entries are exactly the (k-s)(k-s-1) forbidden pairs.
    """
    if s < 1 or k <= s:
        raise InvalidParamsError("need k > s >= 1 for the walk model")
    entries = tuple(
        tuple(0 if _forbidden(a, b, k, s) else 1 for b in range(k))
        for a in range(k)
    )
    return TransferMatrix(entries)


@lru_cache(maxsize=256)
def _walk(k: int, s: int):
    """(Q, sizes): the quotient of adjacency(k, s) on its runs and their sizes."""
    block = (0,) * k if k == s + 1 else tuple(a // s for a in range(k))
    q = quotient(adjacency(k, s), block)
    return q, tuple(map(block.count, range(q.size)))


def is_vertex_word(word, k: int, s: int) -> bool:
    """Whether a per-window word names a vertex (no forbidden adjacent pair).

    word[j] must lie in {s*j, ..., s*j + k - 1}.  For k <= s + 1 every word
    passes.
    """
    std = []
    for j, a in enumerate(word):
        if not s * j <= a <= s * j + k - 1:
            raise OutOfWindowError(f"letter {a} outside window {j}")
        std.append(a - s * j)
    return not any(_forbidden(a, b, k, s) for a, b in zip(std, std[1:]))


def gf_1d(k: int, s: int) -> RationalGF:
    """F(x) = sum_{n>=0} b_{n+1} x^n = sum_n sizes . Q^n . 1 on the quotient.

    Formed once per (k, s) per process, like the quotient itself.
    """
    return _gf_1d(k, s)


@lru_cache(maxsize=256)
def _gf_1d(k, s):
    q, sizes = _walk(k, s)
    return gf_from_matrix(q, sizes, (1,) * q.size)


class ClosedForm(namedtuple("ClosedForm", "gf regimes")):
    """A closed generating function G(x) = 1 + sum_{n>=1} b_n x^n (a RationalGF).

    `regimes` names every closed form that applied ("large-strides",
    "proportional"); when both apply they are cross-checked for equality.
    """

    __slots__ = ()


def large_strides_regime(k: int, s: int) -> bool:
    """Whether the large-strides closed forms hold: ceil(k/2) <= s <= k-2."""
    return math.ceil(k / 2) <= s <= k - 2


def proportional_regime(k: int, s: int) -> bool:
    """Whether the proportional-strides closed forms hold: s >= 1, s | k, k >= 2s."""
    return s >= 1 and k % s == 0 and k // s >= 2


def _gf_large_strides(k, s):
    return rational_gf((1,), (1, -k, (k - s) * (k - s - 1)))


def _gf_proportional(k, s):
    r = k // s - 1
    num = [0] * (r + 2)
    num[0] += 1
    num[1] += r * s - s - 2
    num[2] -= r * s - 1
    num[r + 1] += s
    den = [0] * (r + 4)
    den[0] += 1
    den[1] -= 2 * (s + 1)
    den[2] += (s + 1) ** 2
    den[r + 1] += s
    den[r + 2] -= s * s * (r + 1)
    den[r + 3] += s * (r * s - 1)
    return rational_gf(num, den)


def gf_closed(k: int, s: int) -> ClosedForm:
    """Closed form for G(x) = 1 + sum b_n x^n, when a regime applies.

    Large strides: ceil(k/2) <= s <= k-2 gives the quadratic-denominator
    form.  Proportional strides: s | k (with k >= 2s) gives the degree-(r+3)
    form; s = 1 is its specialization.  When both apply they must agree;
    if they do not, this raises VerificationError.  Formed once per (k, s)
    per process.
    """
    return _gf_closed(k, s)


@lru_cache(maxsize=256)
def _gf_closed(k, s):
    if s < 1 or k <= s:
        raise InvalidParamsError("need k > s >= 1")
    regimes = []
    gfs = []
    if large_strides_regime(k, s):
        regimes.append("large-strides")
        gfs.append(_gf_large_strides(k, s))
    if proportional_regime(k, s):
        regimes.append("proportional")
        gfs.append(_gf_proportional(k, s))
    if not gfs:
        raise RegimeNotCoveredError(f"no closed form covers (k={k}, s={s})")
    if len(gfs) == 2 and not gf_equal(gfs[0], gfs[1]):
        raise VerificationError(f"closed forms disagree at (k={k}, s={s})")
    return ClosedForm(gf=gfs[0], regimes=tuple(regimes))


def closed_initial(m: int, k: int, s: int) -> int:
    """b_{m+1} for proportional strides k = s(r+1), valid for 1 <= m <= r+2.

    The first r+1 values follow a geometric-in-(s+1) closed formula; the
    value at m = r+2 carries an extra correction term.
    """
    if not proportional_regime(k, s):
        raise RegimeNotCoveredError(f"need s | k and k >= 2s, got (k={k}, s={s})")
    r = k // s - 1
    if not 1 <= m <= r + 2:
        raise InvalidParamsError(f"m must be in 1..{r + 2}")
    if m <= r + 1:
        return (s + 1) ** (m - 1) * ((m + 1) * s * (k - s - 1) + k + s * (s + 1))
    return (s + 1) ** (r + 1) * (
        (r + 3) * s * (s * r - 1) + s * (r + 1) + s * (s + 1)
    ) + s * (r * s - 1) ** 2


def count_methods(k: int, s: int) -> tuple[str, ...]:
    """The count_1d routes other than the oracle that cover (k, s).

    The walk model (matrix, gf) needs k > s; the closed route covers
    k <= s + 1 and the large- and proportional-strides regimes.
    """
    if k <= s:
        return ("closed",)
    if k == s + 1 or large_strides_regime(k, s) or proportional_regime(k, s):
        return ("matrix", "gf", "closed")
    return ("matrix", "gf")


def count_1d(n: int, k: int, s: int, method: str = "matrix", budget: int = oracle.DEFAULT_BUDGET) -> int:
    """Number of vertices b_n of the n-window polytope, by the given route."""
    if n < 1 or k < 1 or s < 1:
        raise InvalidParamsError("n, k, s must be positive")
    if method == "oracle":
        return oracle.count_vertices(windows_1d(n, k, s), budget)
    if method == "matrix":
        q, sizes = _walk(k, s)
        return sum(vec_mat_power(sizes, q, n - 1))
    if method == "gf":
        return series_coeff(gf_1d(k, s), n - 1)
    if method == "closed":
        if k <= s + 1:
            return k**n
        closed = gf_closed(k, s)
        return series_coeff(closed.gf, n)
    raise InvalidParamsError(f"unknown method {method!r}")


def growth_1d(k: int, s: int) -> float:
    """Exponential growth rate lim (1/n) log b_n, from the quotient's det(I - xQ)."""
    rho = smallest_positive_root(det_poly(_walk(k, s)[0]))
    return math.log(1 / rho)


def growth_large_strides(k: int, s: int) -> float:
    """Closed growth rate for floor(k/2) <= s <= k-2.

    For odd k at the lower boundary s = (k-1)/2 this closed form is known to
    disagree with growth_1d (the sound regime starts at ceil(k/2)); the
    verify suite reports that boundary as a documented discrepancy.
    """
    if not k // 2 <= s <= k - 2:
        raise RegimeNotCoveredError(f"large-strides growth needs k/2 <= s <= k-2, got (k={k}, s={s})")
    c = (k - s) * (k - s - 1)
    return math.log(2 * c / (k - math.sqrt(k * k - 4 * c)))

