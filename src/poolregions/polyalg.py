"""Exact algebra: integer polynomials, rational generating functions,
transfer-matrix determinants, series extraction, and positive-root bracketing.

Polynomials are tuples of Python ints in ascending degree with no trailing
zero (the zero polynomial is the empty tuple).  Everything is exact and
stays in the integers: gcds by primitive pseudo-remainder sequences, exact
division by integer long division, det(I - xM) by Berkowitz's
division-free algorithm (about p^4/4 multiplications for a p x p matrix,
no matrix product), run once per distinct matrix per process (a bounded
cache keyed by the entries).
v . M^n squares M only while the exponent left exceeds p and finishes with
at most p vector products, so the largest powers are never formed; a
single entry of M^n is a row times M^a dotted with M^b times a column,
a + b = n, on the same factors.  A single series coefficient comes from
Bostan-Mori halving in O(log n) polynomial products, each step split into
even and odd halves (two half-size squarings and two half-size products).
The squares M^(2^j) and the denominators' Graeffe iterates depend only on
the matrix or denominator and j, so each is formed once per process and
kept in a bounded cache (the 256 most recently used squares, the 1024 most
recently used iterates), and a call forms none beyond its own schedule.  A
prefix of coefficients comes from the denominator recurrence.  The least
positive root lies in one cell of the dyadic grid a/2^40, each point held
as the integer a, and the sign of p there read from the integer
2^(40 deg) p(a/2^40).  A float Newton estimate from x = 0 names a cell,
and two exact Sturm counts accept it; when they refuse it or the estimate
fails, bisection over the grid finds the cell.  The growth-rate root is
the cell's midpoint, a correctly rounded integer division; only
`smallest_positive_root_bracket` imports `fractions`, for its returned
endpoints.  `RationalGF` and `TransferMatrix` are immutable named tuples,
like every package record.

`quotient` shrinks a walk-counting matrix before any of this: on an
equitable partition it gives Q with the same walk counts and least root of
det(I - xQ), and checks M.P = P.Q exactly for the block indicator matrix P.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import ceil, gcd, ldexp
from operator import mul

from .errors import (
    InvalidParamsError,
    NonIntegerCoefficientError,
    NoPositiveRootError,
    VerificationError,
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


def _prem(a, b):
    """Pseudo-remainder of a by b: lead(b)^(deg a - deg b + 1) * a mod b."""
    r = list(a)
    lead = b[-1]
    db = len(b) - 1
    for i in range(len(a) - len(b), -1, -1):
        coef = r[i + db]
        r = [c * lead for c in r]
        for j, bc in enumerate(b):
            r[i + j] -= coef * bc
    return poly(r)


def poly_gcd(a, b):
    """Primitive gcd in Z[x], positive leading coefficient.

    Primitive pseudo-remainder sequence: each remainder is reduced to its
    primitive part, which keeps the coefficients small and changes the
    remainder only by a unit of Q[x].
    """
    a, b = poly(a), poly(b)
    while b:
        a, b = b, poly_primitive(_prem(a, b))[0]
    return poly_primitive(a)[0]


def poly_divexact(a, b):
    """Exact division a / b in Z[x] by integer long division.

    Raises ValueError unless the quotient lies in Z[x]: a quotient
    coefficient that is not an integer leaves its floor-division remainder
    in the remainder, so both failures show as a nonzero remainder.
    """
    r = list(poly(a))
    lead = b[-1]
    db = len(b) - 1
    q = [0] * max(len(r) - db, 0)
    for i in range(len(q) - 1, -1, -1):
        q[i] = coef = r[i + db] // lead
        if coef:
            for j, bc in enumerate(b):
                r[i + j] -= coef * bc
    if any(r):
        raise ValueError("polynomial division not exact over Z")
    return poly(q)


class RationalGF(namedtuple("RationalGF", "num den")):
    """A reduced ratio of integer polynomials.

    Canonical form: num and den share no polynomial factor over Q and no
    common integer content, and den(0) > 0.  Always build through
    `rational_gf`; equality of values is tested with `gf_equal`
    (cross-multiplication), never by representation.
    """

    __slots__ = ()


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


class TransferMatrix(namedtuple("TransferMatrix", "entries")):
    """Square matrix of nonnegative integers (walk-counting adjacency)."""

    __slots__ = ()

    def __new__(cls, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries:
            raise InvalidParamsError("matrix must be nonempty")
        for row in entries:
            if len(row) != len(entries):
                raise InvalidParamsError("matrix must be square")
            if any(x < 0 for x in row):
                raise InvalidParamsError("entries must be nonnegative")
        return super().__new__(cls, entries)

    @property
    def size(self) -> int:
        return len(self.entries)


def mat_vec(m: TransferMatrix, v):
    """M . v as a tuple."""
    return _mat_vec(m.entries, v)


def _mat_vec(rows, v):
    return tuple(sum(map(mul, row, v)) for row in rows)


def vec_mat(v, m: TransferMatrix):
    """v . M as a tuple."""
    return _vec_mat(v, m.entries)


def _vec_mat(v, rows):
    return tuple(sum(map(mul, v, col)) for col in zip(*rows))


def _mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


@lru_cache(maxsize=256)
def _square(entries, j):
    """M^(2^j) for the matrix with these entries, squared from M^(2^(j-1))."""
    if not j:
        return entries
    half = _square(entries, j - 1)
    return _mat_mul(half, half)


def _power_factors(entries, n):
    """The factors (M^(2^j), 2^j) whose product is M^n, in the order they apply.

    While the exponent left exceeds p = len(entries), each set low bit
    gives its square and the bit is shifted out; the n' <= p left then
    repeat the last square n' times.  Only the squares of that schedule
    are formed.
    """
    j = 0
    while n > len(entries):
        if n & 1:
            yield _square(entries, j), 1 << j
        n >>= 1
        j += 1
    power = _square(entries, j)
    for _ in range(n):
        yield power, 1 << j


def vec_mat_power(v, m: TransferMatrix, n: int):
    """v . M^n, squaring M only while the exponent left exceeds p = m.size.

    Binary powering consumes the low bits of n while n > p; the exponent n'
    left then is at most p, and v is multiplied by the current power M^(2^j)
    n' times.  Those n' <= p vector products cost no more than one further
    squaring (p^3 multiplications), and the largest powers, whose entries
    are the longest integers, are never formed.  The squares M^(2^j) depend
    only on the entries and j, so they are kept per process in a cache of
    the 256 most recently used (entries, j) pairs: a later call on the same
    matrix squares only beyond the powers earlier calls formed, and never
    beyond its own schedule.
    """
    if n < 0:
        raise InvalidParamsError("matrix power must be nonnegative")
    v = tuple(v)
    if len(v) != m.size:
        raise InvalidParamsError("vector length must match the matrix size")
    for power, _ in _power_factors(m.entries, n):
        v = _vec_mat(v, power)
    return v


def mat_power_entry(m: TransferMatrix, n: int, i: int, j: int) -> int:
    """Entry (i, j), zero-based, of the n-th power (exact big integers).

    The entry is (e_i . M^a) . (M^b . e_j) with a + b = n: the factors of
    `vec_mat_power`'s schedule (on the same cached squares) go one by one to
    the side whose exponent is smaller so far, the row e_i taking them on
    the right and the column e_j on the left.  Both vectors stay about half
    the length in digits of row i of M^n, and one dot product ends it.
    """
    if n < 0:
        raise InvalidParamsError("matrix power must be nonnegative")
    if not (0 <= i < m.size and 0 <= j < m.size):
        raise InvalidParamsError("entry index out of range for the matrix size")
    row = tuple(int(t == i) for t in range(m.size))
    column = tuple(int(t == j) for t in range(m.size))
    a = b = 0
    for power, e in _power_factors(m.entries, n):
        if a <= b:
            row, a = _vec_mat(row, power), a + e
        else:
            column, b = _mat_vec(power, column), b + e
    return sum(map(mul, row, column))


def _block_sums(row, block, count):
    """One row of M.P: the row's weight into each of the `count` blocks."""
    sums = [0] * count
    for b, x in zip(block, row):
        sums[b] += x
    return tuple(sums)


def quotient(m: TransferMatrix, block) -> TransferMatrix:
    """The quotient Q of M on the partition with block[i] the block of state i.

    The blocks are numbered 0, ..., q - 1.  Q[a][b] is the weight that the
    first state of block a sends into block b.  With P the p x q block
    indicator matrix, the certificate M.P = P.Q (every state sends its
    block's row of Q) is checked exactly, row by row, before Q is returned;
    VerificationError names the first state that breaks it, so the
    partition must be equitable.

    It gives M^n.P = P.Q^n, so for any u and w, u.M^n.(P.w) = (u.P).Q^n.w,
    and in particular 1.M^n.1 = sizes.Q^n.1 (Kemeny-Snell lumpability; an
    equitable partition in Godsil's terms).  The columns of P span an
    M-invariant subspace on which M acts as Q, so det(I - xQ) divides
    det(I - xM).  If M >= 0 has spectral radius rho and x >= 0 is a left
    Perron vector, x.M = rho x, then (x.P).Q = rho (x.P) with x.P != 0 (P
    has a 1 in every row and no negative entry), so rho is an eigenvalue
    of Q: det(I - xM) and det(I - xQ) share their least positive root 1/rho.
    """
    rows = m.entries
    count = max(block, default=-1) + 1
    if len(block) != m.size or set(block) != set(range(count)):
        raise InvalidParamsError("partition must give each state a block numbered 0, ..., q - 1")
    q = [_block_sums(rows[block.index(b)], block, count) for b in range(count)]
    for i, row in enumerate(rows):
        if _block_sums(row, block, count) != q[block[i]]:
            raise VerificationError(f"lumping: state {i} is not equitable in block {block[i]}")
    return TransferMatrix(q)


def int_rank(rows) -> int:
    """Rank of an integer matrix, by fraction-free (Bareiss) elimination.

    Each column with a nonzero entry on or below the current row gives one
    pivot, moved up by a row swap when needed.  After the t-th pivot every
    entry below it is a (t+1)-minor of the matrix, so the division by the
    previous pivot is exact; the number of pivots is the rank.
    """
    a = [list(r) for r in rows]
    rank = 0
    prev = 1
    for c in range(len(a[0]) if a else 0):
        if rank == len(a):
            break
        k = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if k is None:
            continue
        a[rank], a[k] = a[k], a[rank]
        pivot_row = a[rank]
        pivot = pivot_row[c]
        tail = pivot_row[c + 1:]
        for row in a[rank + 1:]:
            f = row[c]
            row[c + 1:] = [(x * pivot - f * y) // prev for x, y in zip(row[c + 1:], tail)]
        rank += 1
        prev = pivot
    return rank


def det_poly(m: TransferMatrix) -> IntPoly:
    """det(I - x*M) as an integer polynomial of degree <= size.

    Berkowitz's division-free algorithm: the characteristic polynomial of
    the leading r x r block A_r comes from that of A_(r-1) by a product with
    the lower-triangular Toeplitz matrix whose first column is
    (1, -a_rr, -R.C, -R.A.C, -R.A^2.C, ...), where R holds the entries left
    of the diagonal in row r, C those above it in column r, and A = A_(r-1).
    Those terms need r - 2 matrix-vector products, so a p x p matrix costs
    about p^4/4 integer multiplications and never a matrix product.  The
    coefficients of det(tI - M) from the top down are those of det(I - xM)
    from x^0 up.  The result is cached per process by the matrix entries,
    so the `gf`, `growth` and `vertices` queries of one (k, s) compute it
    once.
    """
    return _det_poly(m.entries)


@lru_cache(maxsize=256)
def _det_poly(entries) -> IntPoly:
    coeffs = [1]  # det(tI - A_r) from the top down; A_0 is empty
    for r, row in enumerate(entries):
        # A, R and C of the docstring; w runs through C, A.C, A^2.C, ...
        block = [above[:r] for above in entries[:r]]
        left = row[:r]
        w = [above[r] for above in entries[:r]]
        column = [1, -row[r]]
        for t in range(r):
            column.append(-sum(map(mul, left, w)))
            if t < r - 1:
                w = [sum(map(mul, b, w)) for b in block]
        nxt = [0] * (r + 2)
        for j, c in enumerate(coeffs):
            if c:
                for i, f in enumerate(column[: r + 2 - j]):
                    nxt[i + j] += f * c
        coeffs = nxt
    return poly(coeffs)


def gf_from_matrix(m: TransferMatrix, left, right) -> RationalGF:
    """The rational function whose series is sum_n (left . M^n . right) x^n.

    den = det(I - xM); the numerator has degree < size, so it is pinned by
    the first `size` series terms: num = den * series, truncated.
    """
    p = m.size
    if len(left) != p or len(right) != p:
        raise InvalidParamsError("weight vectors must match the matrix size")
    den = det_poly(m)
    v = tuple(right)
    terms = [sum(map(mul, left, v))]
    for _ in range(p - 1):
        v = mat_vec(m, v)
        terms.append(sum(map(mul, left, v)))
    num = [0] * p
    for i, dc in enumerate(den):
        if dc:
            for t in range(p - i):
                num[i + t] += dc * terms[t]
    return rational_gf(num, den)


def _check_den(den):
    if not den or den[0] == 0:
        raise InvalidParamsError("denominator constant coefficient must be nonzero")


def series_coeffs(gf: RationalGF, upto: int):
    """Taylor coefficients c_0..c_upto at 0, via the denominator recurrence.

    Raises NonIntegerCoefficientError if the expansion leaves the integers.
    """
    den = gf.den
    _check_den(den)
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


def _minus_shifted(a, b, shift):
    """a(y) - y^shift b(y) for shift 0 or 1; a trailing zero may remain."""
    out = list(a) + [0] * (len(b) + shift - len(a))
    for i, c in enumerate(b, shift):
        out[i] -= c
    return tuple(out)


def _graeffe_step(q):
    """V with V(x^2) = Q(x)Q(-x): E^2 - y O^2 for Q(x) = E(x^2) + x O(x^2).

    E^2 and y O^2 have degrees of different parity, so nothing cancels at
    the top and V keeps Q's degree, with no trailing zero.
    """
    even, odd = q[::2], q[1::2]
    return _minus_shifted(poly_mul(even, even), poly_mul(odd, odd), 1)


@lru_cache(maxsize=1024)
def _graeffe(den, t):
    """The t-th Graeffe iterate of den: den itself for t = 0."""
    return _graeffe_step(_graeffe(den, t - 1)) if t else den


def series_coeff(gf: RationalGF, n: int) -> int:
    """The Taylor coefficient c_n at 0 alone, by Bostan-Mori halving.

    P/Q = P(x)Q(-x) / V(x^2) with V(x^2) = Q(x)Q(-x), since that product is
    even.  So c_n is coefficient n // 2 of U/V, where U keeps the
    coefficients of P(x)Q(-x) whose index has the parity of n.  Each step
    is split into halves: with Q(x) = E(x^2) + x O(x^2) and P(x) = A(x^2) +
    x B(x^2), V = E^2 - y O^2 and U is A E - y B O for even n, B E - A O for
    odd n, so a step costs two half-size squarings and two half-size
    products in place of two full-size products.  The iterates V do not
    depend on n or P: the t-th is kept per process in a cache of the 1024
    most recently used (den, t) pairs.  A call uses the iterates t < T,
    T = ceil(log2(n + 1)) the number of steps, forms only those that no
    earlier call formed, and never the last one, whose constant term
    den(0)^(2^T) is all the final step needs.  At n = 0 the coefficient is
    P(0)/Q(0).  Raises NonIntegerCoefficientError unless c_n is an integer.
    """
    if n < 0:
        raise InvalidParamsError("coefficient index must be nonnegative")
    p, den = gf.num, gf.den
    _check_den(den)
    index = n
    t = 0
    while n:
        q = _graeffe(den, t)
        even, odd = q[::2], q[1::2]
        p_even, p_odd = p[::2], p[1::2]
        if n & 1:
            p = _minus_shifted(poly_mul(p_odd, even), poly_mul(p_even, odd), 0)
        else:
            p = _minus_shifted(poly_mul(p_even, even), poly_mul(p_odd, odd), 1)
        n >>= 1
        t += 1
    q0 = den[0] ** (1 << t)  # the constant term of the t-th iterate
    c, r = divmod(p[0] if p else 0, q0)
    if r:
        raise NonIntegerCoefficientError(f"coefficient {index} is {p[0]}/{q0}")
    return c


ROOT_GRID_BITS = 40  # a root bracket is one cell of the grid 2^-40 Z


def _sign(value) -> int:
    return (value > 0) - (value < 0)


def _sign_at(p, a) -> int:
    """Sign of p at a / 2^e, e = ROOT_GRID_BITS: the sign of 2^(e deg) p(a / 2^e)."""
    acc = 0
    shift = 0
    for c in reversed(p):
        acc = acc * a + (c << shift)
        shift += ROOT_GRID_BITS
    return _sign(acc)


def _sturm_chain(p):
    """Sturm sequence of p, built with primitive integer pseudo-remainders.

    Terms are p, p', then each negated remainder divided by its positive
    content.  When p has a multiple root the chain ends in gcd(p, p') of
    positive degree; every term is then divided by it, which leaves a Sturm
    sequence of the square-free part with the same real roots.
    """
    chain = [p]
    deriv = poly(i * c for i, c in enumerate(p))[1:]
    if deriv:
        chain.append(deriv)
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        r = _prem(a, b)
        if not r:
            break
        # -(a mod b) up to a positive factor: lead(b)^(deg a - deg b + 1)
        # is negative exactly when lead(b) < 0 and that exponent is odd
        flip = b[-1] < 0 and (len(a) - len(b)) % 2 == 0
        g = poly_content(r)
        chain.append(tuple(c // g if flip else -c // g for c in r))
    if len(chain[-1]) > 1:
        g, _ = poly_primitive(chain[-1])
        chain = [poly_divexact(t, g) for t in chain]
    return chain


def _count_variations(signs) -> int:
    signs = [t for t in signs if t]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _variations(chain, a) -> int:
    return _count_variations(_sign_at(t, a) for t in chain)


def smallest_positive_root_bracket(p) -> tuple[Fraction, Fraction]:
    """Certified bracket (lo, hi] around the least positive root, hi-lo = 2^-40.

    The endpoints are the `Fraction`s of the grid cell `_root_cell` finds.
    """
    from fractions import Fraction

    lo, hi = _root_cell(p)
    return Fraction(lo, 1 << ROOT_GRID_BITS), Fraction(hi, 1 << ROOT_GRID_BITS)


def _root_cell(p):
    """(lo, hi): the bracket (lo / 2^e, hi / 2^e] of the least positive root.

    p(0) must be positive.  Every point is a grid point a / 2^e, e =
    ROOT_GRID_BITS, held as the integer a; `_sign_at` reads the sign of p
    there.  The Sturm sequence of p counts its distinct roots in any
    interval (a, b] as V(a) - V(b), V being the number of sign variations;
    when V(+oo), read from the leading coefficients, equals V(0),
    NoPositiveRootError is raised.  `_newton_point` names the cell (c - 1, c]
    of a float root estimate, and two Sturm counts accept it: V(c - 1) =
    V(0) proves no root in (0, c - 1] and V(c) < V(c - 1) at least one in
    (c - 1, c], so it is the aligned 2^-e cell that holds the least root.
    Without an estimate, or with a refused one, `_bisect_cell` finds that
    cell.  Either way the bracket is exact and free of rounding.
    """
    p = poly(p)
    if not p or p[0] <= 0:
        raise InvalidParamsError("need p(0) > 0")
    chain = _sturm_chain(p)
    v0 = _count_variations(_sign(t[0]) for t in chain)
    if _count_variations(_sign(t[-1]) for t in chain) == v0:
        raise NoPositiveRootError("Sturm count: no positive root")
    c = _newton_point(p)
    if c is not None and _variations(chain, c - 1) == v0 and _variations(chain, c) < v0:
        return c - 1, c
    return _bisect_cell(p, chain, v0)


def _newton_point(p):
    """The grid point c >= 1 with a float Newton estimate from x = 0 in
    (c - 1, c] / 2^e, or None when the estimate fails.

    The iteration stops once a step is below 2^-(e + 8), well inside one
    cell.  It fails on a coefficient too large for a float, a zero
    derivative, no such step within 64 iterations (an overflow to inf or
    nan makes none), or an estimate <= 0.
    """
    try:
        top_down = tuple(map(float, reversed(p)))
    except OverflowError:
        return None
    x = 0.0
    for _ in range(64):
        value = slope = 0.0
        for c in top_down:  # Horner's rule for p(x) and p'(x) together
            slope = slope * x + value
            value = value * x + c
        if not slope:
            return None
        step = value / slope
        x -= step
        if abs(step) < 2.0 ** -(ROOT_GRID_BITS + 8):
            return ceil(ldexp(x, ROOT_GRID_BITS)) if x > 0 else None
    return None


def _bisect_cell(p, chain, v0):
    """The bracket of `_root_cell` by bisection over the grid, v0 = V(0):
    hi starts at 1 and doubles until (0, hi] holds a root, Sturm bisection
    narrows (lo, hi] until it holds exactly one distinct root with
    p(hi) <= 0 (or is one unit wide), and bisection on the signs of p ends
    it at one unit, so p(lo) > 0 >= p(hi) unless the least root has even
    multiplicity."""
    # invariant: no root in (0, lo], at least one in (lo, hi]
    lo, hi = 0, 1 << ROOT_GRID_BITS
    v_hi = _variations(chain, hi)
    while v_hi == v0:
        lo, hi = hi, hi << 1
        v_hi = _variations(chain, hi)
    while hi - lo > 1 and (v0 - v_hi > 1 or _sign_at(p, hi) > 0):
        mid = (lo + hi) >> 1
        v_mid = _variations(chain, mid)
        if v_mid < v0:
            hi, v_hi = mid, v_mid
        else:
            lo = mid
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if _sign_at(p, mid) <= 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def smallest_positive_root(p) -> float:
    """Least positive real root of p: the midpoint of its 2^-40 bracket,
    (lo + hi) / 2^41 by correctly rounded integer division."""
    lo, hi = _root_cell(p)
    return (lo + hi) / (1 << (ROOT_GRID_BITS + 1))
