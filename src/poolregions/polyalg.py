"""Exact algebra: integer polynomials, rational generating functions,
transfer-matrix determinants, series extraction, and positive-root bracketing.

Polynomials are tuples of Python ints in ascending degree with no trailing
zero (the zero polynomial is the empty tuple).  Everything is exact; floats
appear only in the final root estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    InvalidParamsError,
    NonIntegerCoefficientError,
    NoPositiveRootError,
)

IntPoly = tuple  # ascending coefficients, no trailing zero


def poly(coeffs) -> IntPoly:
    """Canonicalize a coefficient sequence (strip trailing zeros)."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a, b):
    n = max(len(a), len(b))
    return poly((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def poly_neg(a):
    return tuple(-x for x in a)


def poly_sub(a, b):
    return poly_add(a, poly_neg(b))


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly(out)


def poly_eval(a, x):
    """Evaluate with Horner's rule; exact for int/Fraction arguments."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_content(a) -> int:
    g = 0
    for c in a:
        g = gcd(g, c)
    return g


def poly_primitive(a):
    """Primitive part with positive leading coefficient; returns (part, unit)."""
    if not a:
        return (), 1
    g = poly_content(a)
    if a[-1] < 0:
        g = -g
    return tuple(c // g for c in a), g


def _poly_divmod_q(a, b):
    # division over the rationals; b nonzero
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    inv_lead = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        coef = a[i + len(b) - 1] * inv_lead
        q[i] = coef
        if coef:
            for j, bc in enumerate(b):
                a[i + j] -= coef * bc
    while a and not a[-1]:
        a.pop()
    return q, a


def poly_gcd(a, b):
    """Primitive gcd in Z[x] (Euclid over Q, then primitivized)."""
    a, b = poly(a), poly(b)
    while b:
        _, r = _poly_divmod_q(a, b)
        a, b = b, tuple(r)
    if not a:
        return ()
    # clear denominators, take primitive part
    den = 1
    for c in a:
        if isinstance(c, Fraction):
            den = lcm(den, c.denominator)
    ints = [int(c * den) for c in a]
    part, _ = poly_primitive(ints)
    return part


def poly_divexact(a, b):
    """Exact division a / b in Z[x]; raises if not exact."""
    q, r = _poly_divmod_q(a, b)
    if r:
        raise ValueError("polynomial division not exact")
    out = []
    for c in q:
        if c.denominator != 1:
            raise ValueError("polynomial division not exact over Z")
        out.append(int(c))
    return poly(out)


@dataclass(frozen=True)
class RationalGF:
    """A reduced ratio of integer polynomials.

    Canonical form: num and den share no polynomial factor over Q and no
    common integer content, and den(0) > 0.  Always build through
    `rational_gf`; equality of values is tested with `gf_equal`
    (cross-multiplication), never by representation.
    """

    num: IntPoly
    den: IntPoly


def rational_gf(num, den) -> RationalGF:
    num, den = poly(num), poly(den)
    if not den:
        raise InvalidParamsError("denominator must be nonzero")
    if not num:
        return RationalGF((), (1,))
    g = poly_gcd(num, den)
    if len(g) > 1:
        num = poly_divexact(num, g)
        den = poly_divexact(den, g)
    cn, cd = poly_content(num), poly_content(den)
    c = gcd(cn, cd)
    num = tuple(x // c for x in num)
    den = tuple(x // c for x in den)
    # fix the sign on the lowest nonzero denominator coefficient
    low = next(i for i, x in enumerate(den) if x)
    if den[low] < 0:
        num, den = poly_neg(num), poly_neg(den)
    return RationalGF(num, den)


def gf_equal(a: RationalGF, b: RationalGF) -> bool:
    return poly_mul(a.num, b.den) == poly_mul(b.num, a.den)


def one_plus_x_times(gf: RationalGF) -> RationalGF:
    """G = 1 + x*F as a canonical rational function."""
    return rational_gf(poly_add(gf.den, poly_mul((0, 1), gf.num)), gf.den)


@dataclass(frozen=True)
class TransferMatrix:
    """Square matrix of nonnegative integers (walk-counting adjacency)."""

    size: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(tuple(row) for row in self.entries))
        if self.size < 1 or len(self.entries) != self.size:
            raise InvalidParamsError("matrix must be square and nonempty")
        for row in self.entries:
            if len(row) != self.size:
                raise InvalidParamsError("matrix must be square")
            if any(x < 0 for x in row):
                raise InvalidParamsError("entries must be nonnegative")


def mat_vec(m: TransferMatrix, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m.entries)


def vec_mat(v, m: TransferMatrix):
    p = m.size
    return tuple(sum(v[i] * m.entries[i][j] for i in range(p)) for j in range(p))


def mat_power_entry(m: TransferMatrix, n: int, i: int, j: int) -> int:
    """Entry (i, j), zero-based, of the n-th power (exact big integers)."""
    v = tuple(1 if t == j else 0 for t in range(m.size))
    for _ in range(n):
        v = mat_vec(m, v)
    return v[i]


def _bareiss_det(rows):
    """Fraction-free determinant of an integer matrix."""
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def det_poly(m: TransferMatrix) -> IntPoly:
    """det(I - x*M) as an integer polynomial of degree <= size.

    Evaluation-interpolation: the scalar determinant is computed exactly at
    size+1 integer points by fraction-free elimination, then the (degree
    bounded) polynomial is recovered by Lagrange interpolation over Q.
    """
    p = m.size
    xs = list(range(p + 1))
    ys = []
    for x0 in xs:
        rows = [
            [(1 if i == j else 0) - x0 * m.entries[i][j] for j in range(p)]
            for i in range(p)
        ]
        ys.append(_bareiss_det(rows))
    # Lagrange interpolation with exact rationals
    coeffs = [Fraction(0)] * (p + 1)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        denom = 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            # multiply basis by (x - xj)
            nxt = [Fraction(0)] * (len(basis) + 1)
            for t, c in enumerate(basis):
                nxt[t] -= c * xj
                nxt[t + 1] += c
            basis = nxt
            denom *= xi - xj
        scale = Fraction(yi, denom)
        for t, c in enumerate(basis):
            coeffs[t] += c * scale
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise ArithmeticError("interpolation of det(I-xM) left the integers")
        out.append(int(c))
    return poly(out)


def gf_from_matrix(m: TransferMatrix, left, right) -> RationalGF:
    """The rational function whose series is sum_n (left . M^n . right) x^n.

    den = det(I - xM); the numerator has degree < size, so it is pinned by
    the first `size` series terms: num = den * series, truncated.
    """
    p = m.size
    if len(left) != p or len(right) != p:
        raise InvalidParamsError("weight vectors must match the matrix size")
    den = det_poly(m)
    terms = []
    v = tuple(right)
    for _ in range(p):
        terms.append(sum(x * y for x, y in zip(left, v)))
        v = mat_vec(m, v)
    num = [0] * p
    for i, dc in enumerate(den):
        if dc:
            for t in range(p - i):
                num[i + t] += dc * terms[t]
    return rational_gf(num, den)


def series_coeffs(gf: RationalGF, upto: int):
    """Taylor coefficients c_0..c_upto at 0, via the denominator recurrence.

    Raises NonIntegerCoefficientError if the expansion leaves the integers.
    """
    den = gf.den
    if not den or den[0] == 0:
        raise InvalidParamsError("denominator constant coefficient must be nonzero")
    d0 = den[0]
    num = gf.num
    out = []
    for n in range(upto + 1):
        acc = num[n] if n < len(num) else 0
        for i in range(1, min(n, len(den) - 1) + 1):
            acc -= den[i] * out[n - i]
        if acc % d0:
            raise NonIntegerCoefficientError(f"coefficient {n} is {acc}/{d0}")
        out.append(acc // d0)
    return out


def _sign(value) -> int:
    return (value > 0) - (value < 0)


def root_upper_bound(p) -> Fraction:
    """Cauchy bound: every real root has |x| <= 1 + max|a_i| / |lead|."""
    lead = abs(p[-1])
    biggest = max(abs(c) for c in p[:-1]) if len(p) > 1 else 0
    return 1 + Fraction(biggest, lead)


def smallest_positive_root_bracket(p, tol=1e-12) -> tuple[Fraction, Fraction]:
    """Exact-sign bracket (lo, hi) around the least positive root, hi-lo <= tol.

    p(0) must be positive.  The scan starts on (0, 1] and doubles the range
    up to the Cauchy bound, refining the grid when no sign change shows up;
    signs are evaluated exactly at rational points, so the bracket never
    suffers rounding.  Uniqueness inside the bracket is not verified.
    """
    p = poly(p)
    if not p or poly_eval(p, 0) <= 0:
        raise InvalidParamsError("need p(0) > 0")
    bound = root_upper_bound(p)
    tol_f = Fraction(tol).limit_denominator(10**18)

    bracket = None
    grid = 64
    hi = Fraction(1)
    while bracket is None:
        lo_pt = Fraction(0)
        step = hi / grid
        x = step
        while x <= hi:
            if _sign(poly_eval(p, x)) <= 0:
                bracket = (lo_pt, x)
                break
            lo_pt = x
            x += step
        if bracket is None:
            if hi < bound:
                hi *= 2
            elif grid < 1 << 16:
                grid *= 4
            else:
                raise NoPositiveRootError("no sign change below the root bound")

    lo, hi = bracket
    while hi - lo > tol_f:
        mid = (lo + hi) / 2
        if _sign(poly_eval(p, mid)) <= 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def smallest_positive_root(p, tol=1e-12) -> float:
    """Least positive real root of p, to within +-tol."""
    lo, hi = smallest_positive_root_bracket(p, tol)
    return float((lo + hi) / 2)
