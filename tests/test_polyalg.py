import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from poolregions import cli, polyalg, seq1d, seq2d
from poolregions.errors import (
    InvalidParamsError,
    NonIntegerCoefficientError,
    NoPositiveRootError,
    VerificationError,
)
from poolregions.polyalg import (
    RationalGF,
    TransferMatrix,
    det_poly,
    gf_equal,
    gf_from_matrix,
    int_rank,
    mat_power_entry,
    mat_vec,
    poly,
    poly_divexact,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_neg,
    quotient,
    rational_gf,
    series_coeff,
    series_coeffs,
    smallest_positive_root,
    smallest_positive_root_bracket,
    vec_mat,
    vec_mat_power,
)


def transfer_matrices(max_size, max_entry):
    return st.integers(1, max_size).flatmap(
        lambda p: st.lists(
            st.lists(st.integers(0, max_entry), min_size=p, max_size=p),
            min_size=p, max_size=p,
        ).map(TransferMatrix)
    )


small_polys = st.lists(st.integers(-5, 5), max_size=7).map(poly)  # degree <= 6


def test_poly_canonical():
    assert poly([1, 2, 0, 0]) == (1, 2)
    assert poly([0, 0]) == ()
    assert poly_mul((1, 1), (1, -1)) == (1, 0, -1)


def test_det_poly_small():
    ident = TransferMatrix(((1, 0), (0, 1)))
    assert det_poly(ident) == (1, -2, 1)
    ones = TransferMatrix(((1, 1), (1, 1)))
    assert det_poly(ones) == (1, -2)
    walk = TransferMatrix(((1, 1, 1), (1, 0, 1), (0, 1, 1)))
    assert det_poly(walk) == (1, -2, -1, 1)


def test_det_poly_matches_scalar_determinant():
    rng = random.Random(42)
    for _ in range(20):
        p = rng.randint(1, 4)
        m = TransferMatrix(tuple(tuple(rng.randint(0, 3) for _ in range(p)) for _ in range(p)))
        dp = det_poly(m)
        for x0 in (Fraction(1, 3), Fraction(-2, 5), 2):
            rows = sympy.Matrix(
                [
                    [(1 if i == j else 0) - x0 * m.entries[i][j] for j in range(p)]
                    for i in range(p)
                ]
            )
            assert poly_eval(dp, x0) == rows.det()


def test_det_poly_matches_sympy_charpoly():
    # every size up to 12, so each Berkowitz step r <= 12 runs;
    # det(I - xM) lists the coefficients of det(tI - M) from the top down
    rng = random.Random(7)
    t = sympy.Symbol("t")
    for p in [*range(1, 13), *(rng.randint(1, 12) for _ in range(6))]:
        m = TransferMatrix(tuple(tuple(rng.randint(0, 5) for _ in range(p)) for _ in range(p)))
        want = sympy.Matrix(m.entries).charpoly(t).all_coeffs()
        assert det_poly(m) == poly(int(c) for c in want)


def _bareiss_det(rows):
    """Fraction-free determinant of a square integer matrix: the reference
    that det_poly is pinned against.  After the t-th pivot every entry
    below it is a (t+1)-minor, so the division by the previous pivot is
    exact, and the last pivot is the determinant up to the row swaps' sign."""
    a = [list(r) for r in rows]
    sign, prev = 1, 1
    for c in range(len(a)):
        k = next((i for i in range(c, len(a)) if a[i][c]), None)
        if k is None:
            return 0
        if k != c:
            a[c], a[k] = a[k], a[c]
            sign = -sign
        pivot, tail = a[c][c], a[c][c + 1:]
        for row in a[c + 1:]:
            row[c + 1:] = [(x * pivot - row[c] * y) // prev for x, y in zip(row[c + 1:], tail)]
        prev = pivot
    return sign * prev


def _scalar_det_at(m, x0):
    p = m.size
    return _bareiss_det(
        [[(1 if i == j else 0) - x0 * m.entries[i][j] for j in range(p)] for i in range(p)]
    )


def _assert_det_poly_is_pinned_by_bareiss(m):
    # both sides have degree <= p, so agreement at p + 1 distinct points
    # makes them the same polynomial
    p = m.size
    dp = det_poly(m)
    assert len(dp) <= p + 1
    for x0 in range(-(p // 2), p + 1 - p // 2):
        assert poly_eval(dp, x0) == _scalar_det_at(m, x0)


def test_det_poly_of_the_package_matrices_matches_bareiss():
    matrices = [seq1d.adjacency(k, s) for k in range(2, 17) for s in range(1, k)]
    matrices += [seq2d.b6_matrix(), seq2d.derive_a14()]
    assert len(matrices) == 122
    for m in matrices:
        _assert_det_poly_is_pinned_by_bareiss(m)


@settings(max_examples=40, deadline=None)
@given(transfer_matrices(8, 5))
def test_det_poly_matches_bareiss_on_random_matrices(m):
    _assert_det_poly_is_pinned_by_bareiss(m)


def test_bareiss_det_needs_row_swaps():
    assert _bareiss_det([[0, 1], [1, 0]]) == -1
    assert _bareiss_det([[0, 2, 1], [0, 1, 3], [4, 0, 0]]) == 20
    assert _bareiss_det([[0, 1], [0, 2]]) == 0


@settings(max_examples=30, deadline=None)
@given(transfer_matrices(16, 3), st.data())
def test_vec_mat_power_equals_repeated_vec_mat(m, data):
    # exponents 0..40 take in p - 1, p, p + 1, 2p and 2p + 1 around the
    # squaring cutoff at the matrix size p <= 16
    p = m.size
    assert {p - 1, p, p + 1, 2 * p, 2 * p + 1} <= set(range(41))
    v = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=p, max_size=p)))
    step = v
    for e in range(41):
        assert vec_mat_power(v, m, e) == step
        step = vec_mat(step, m)


def test_vec_mat_power_squares_only_while_the_exponent_exceeds_the_size(monkeypatch):
    # 299 -> 149 -> 74 -> 37 -> 18 -> 9: five squarings up to M^32, then
    # nine products with it, where binary powering would square up to M^256
    squarings = []
    mat_mul = polyalg._mat_mul

    def counting_mat_mul(a, b):
        squarings.append(len(a))
        return mat_mul(a, b)

    m = seq1d.adjacency(16, 1)
    v = (1,) * 16
    want = v
    for _ in range(299):
        want = vec_mat(want, m)
    polyalg._square.cache_clear()
    monkeypatch.setattr(polyalg, "_mat_mul", counting_mat_mul)
    assert vec_mat_power(v, m, 299) == want
    assert squarings == [16] * 5
    # the squares are cached: 20 -> 10 needs M^2 only, and 1000 -> ... -> 15
    # squares six times, of which only the sixth is new
    vec_mat_power(v, m, 20)
    assert len(squarings) == 5
    vec_mat_power(v, m, 1000)
    assert len(squarings) == 6


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _first_appearance(keys):
    """Number each key by the order in which its value first appears."""
    ids = {}
    return tuple(ids.setdefault(key, len(ids)) for key in keys)


def _reference_lump(m, right):
    # the plain refinement: every round recomputes each state's weight into
    # every block and splits by (block, weights) until no block splits; the
    # result is the coarsest equitable partition refining `right`
    block = _first_appearance(right)
    while True:
        count = max(block) + 1
        sums = [polyalg._block_sums(row, block, count) for row in m.entries]
        split = _first_appearance(zip(block, sums))
        if split == block:
            return TransferMatrix([sums[block.index(b)] for b in range(count)]), block
        block = split


def test_runs_quotient_equals_the_plain_refinement():
    # the coarsest equitable partition of adjacency(k, s) is its runs a // s,
    # or one block for k = s + 1, numbered as the plain refinement numbers it
    for k in range(2, 41):
        for s in range(1, k):
            m = seq1d.adjacency(k, s)
            q, block = _reference_lump(m, (1,) * k)
            assert block == ((0,) * k if k == s + 1 else tuple(a // s for a in range(k))), (k, s)
            assert quotient(m, block) == q, (k, s)
            assert seq1d._walk(k, s) == (q, tuple(map(block.count, range(q.size)))), (k, s)


@st.composite
def lifted_matrices(draw):
    # a random quotient Q lifted to a 0/1 matrix on shuffled blocks: every
    # state of block a puts Q[a][b] ones on columns of block b of its own
    # choosing, so the blocks are equitable with quotient Q
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    q = [[draw(st.integers(0, n)) for n in sizes] for _ in sizes]
    block = draw(st.permutations([b for b, n in enumerate(sizes) for _ in range(n)]))
    rows = []
    for a in block:
        row = [0] * len(block)
        for b, n in enumerate(sizes):
            cols = [j for j, c in enumerate(block) if c == b]
            chosen = st.lists(st.sampled_from(cols), min_size=q[a][b], max_size=q[a][b], unique=True)
            for j in draw(chosen):
                row[j] = 1
        rows.append(row)
    return TransferMatrix(rows), tuple(block), TransferMatrix(q)


def _with_coarsest_partition(m):
    q, block = _reference_lump(m, (1,) * m.size)
    return m, block, q


@settings(max_examples=100, deadline=None)
@given(st.one_of(lifted_matrices(), transfer_matrices(7, 3).map(_with_coarsest_partition)), st.data())
def test_lump_is_a_certified_quotient(lifted, data):
    # each matrix comes with an equitable partition and its quotient: the
    # blocks it was lifted from, or the coarsest partition of the refinement
    m, block, want = lifted
    q = quotient(m, block)
    assert q == want
    p = m.size
    # P: the p x q block indicator matrix; right = P.w for a weight w per block
    indicator = [[int(block[i] == b) for b in range(q.size)] for i in range(p)]
    assert polyalg._mat_mul(m.entries, indicator) == polyalg._mat_mul(indicator, q.entries)
    w = data.draw(st.lists(st.integers(-3, 3), min_size=q.size, max_size=q.size))
    right = [w[b] for b in block]
    u = data.draw(st.lists(st.integers(-3, 3), min_size=p, max_size=p))
    u_p = [_dot(u, column) for column in zip(*indicator)]
    for n in range(7):
        assert _dot(vec_mat_power(u, m, n), right) == _dot(vec_mat_power(u_p, q, n), w)


def test_lumping_certificate_rejects_a_non_equitable_merge():
    # adjacency(3, 1): states 1 and 2 both have row sum 2, but state 1 sends
    # 1 into {0} and state 2 sends 0, so merging them is not equitable
    m = seq1d.adjacency(3, 1)
    assert quotient(m, (0, 1, 2)) == m
    with pytest.raises(VerificationError, match="state 2"):
        quotient(m, (0, 1, 1))


@settings(max_examples=50, deadline=None)
@given(transfer_matrices(7, 3))
def test_quotient_rejects_a_merge_of_the_coarsest_partition(m):
    # the coarsest equitable partition has no equitable coarsening, so
    # merging its blocks 0 and 1 must fail the certificate
    q, block = _reference_lump(m, (1,) * m.size)
    assume(q.size > 1)
    with pytest.raises(VerificationError, match="not equitable"):
        quotient(m, [max(b - 1, 0) for b in block])


def test_quotient_rejects_a_malformed_partition():
    m = TransferMatrix(((1, 1), (1, 1)))
    with pytest.raises(InvalidParamsError):
        quotient(m, (0,))
    with pytest.raises(InvalidParamsError):
        quotient(m, (0, 2))


def test_vec_mat_and_mat_vec_are_transposes():
    m = TransferMatrix(((1, 2, 0), (0, 1, 3), (4, 0, 1)))
    mt = TransferMatrix(zip(*m.entries))
    v = (2, -1, 5)
    assert vec_mat(v, m) == mat_vec(mt, v) == (22, 3, 2)


def test_vec_mat_power_rejects_negative_exponent():
    with pytest.raises(InvalidParamsError):
        vec_mat_power((1,), TransferMatrix(((2,),)), -1)


@pytest.mark.parametrize("v", [(1, 1), (1, 1, 1, 1), ()], ids=["short", "long", "empty"])
def test_vec_mat_power_rejects_a_vector_of_the_wrong_length(v):
    with pytest.raises(InvalidParamsError):
        vec_mat_power(v, seq1d.adjacency(3, 1), 2)


@pytest.mark.parametrize(
    "i,j", [(3, 0), (-1, 0), (0, 3), (0, -1)],
    ids=["row-too-large", "row-negative", "column-too-large", "column-negative"],
)
def test_mat_power_entry_rejects_an_index_out_of_range(i, j):
    with pytest.raises(InvalidParamsError):
        mat_power_entry(seq1d.adjacency(3, 1), 4, i, j)


@pytest.mark.parametrize("k,s", [(3, 1), (4, 2), (16, 5)])
def test_count_1d_matrix_equals_gf_far_out(k, s):
    n = 2000
    assert seq1d.count_1d(n, k, s, "matrix") == seq1d.count_1d(n, k, s, "gf")


def fraction_rank(rows):
    # Gauss-Jordan over Q: the reference for int_rank
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / lead[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], lead)]
        rank += 1
        if rank == len(rows):
            break
    return rank


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6), st.integers(1, 6), st.integers(0, 4),
    st.booleans(), st.randoms(use_true_random=False),
)
def test_int_rank_equals_fraction_rank(n_rows, n_cols, inner, low_rank, rng):
    if low_rank:
        # a product through `inner` dimensions has rank at most `inner`
        a = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(n_rows)]
        b = [[rng.randint(-3, 3) for _ in range(n_cols)] for _ in range(inner)]
        rows = [[sum(x * y for x, y in zip(r, col)) for col in zip(*b)] for r in a]
    else:
        rows = [[rng.choice((0, 0, 1, -1, 2, 7)) for _ in range(n_cols)] for _ in range(n_rows)]
    assert int_rank(rows) == fraction_rank(rows)


def test_int_rank_small():
    assert int_rank([]) == 0
    assert int_rank([[0, 0], [0, 0]]) == 0
    assert int_rank([[0, 2, 4], [0, 1, 2], [3, 0, 1]]) == 2
    assert int_rank([[1, 2], [3, 4], [5, 6]]) == 2


def test_gf_from_matrix_geometric():
    g = gf_from_matrix(TransferMatrix(((1,),)), (1,), (1,))
    assert (g.num, g.den) == ((1,), (1, -1))
    assert series_coeffs(g, 5) == [1] * 6


def test_gf_from_matrix_matches_matrix_powers():
    rng = random.Random(3)
    for _ in range(12):
        p = rng.randint(1, 4)
        m = TransferMatrix(tuple(tuple(rng.randint(0, 2) for _ in range(p)) for _ in range(p)))
        left = tuple(rng.randint(0, 2) for _ in range(p))
        right = tuple(rng.randint(0, 2) for _ in range(p))
        g = gf_from_matrix(m, left, right)
        coeffs = series_coeffs(g, 8)
        v = right
        for n in range(9):
            assert coeffs[n] == sum(a * b for a, b in zip(left, v))
            v = mat_vec(m, v)


def test_gf_from_matrix_makes_size_minus_one_products(monkeypatch):
    # the first `size` terms left . M^n . right, n < size, need size - 1 products
    calls = []

    def counting_mat_vec(m, v):
        calls.append(m.size)
        return mat_vec(m, v)

    monkeypatch.setattr(polyalg, "mat_vec", counting_mat_vec)
    for k, s in ((2, 1), (3, 1), (7, 4), (16, 5)):
        calls.clear()
        g = gf_from_matrix(seq1d.adjacency(k, s), (1,) * k, (1,) * k)
        assert calls == [k] * (k - 1)
        assert series_coeffs(g, 2 * k) == [seq1d.count_1d(n + 1, k, s) for n in range(2 * k + 1)]
    calls.clear()
    gf_from_matrix(TransferMatrix(((3,),)), (1,), (1,))
    assert calls == []


def test_gf_cofactor_identity():
    # numerator recovered from the series equals the cofactor-sum form
    x = sympy.Symbol("x")
    rng = random.Random(11)
    for _ in range(6):
        p = rng.randint(2, 4)
        m = TransferMatrix(tuple(tuple(rng.randint(0, 2) for _ in range(p)) for _ in range(p)))
        g = gf_from_matrix(m, (1,) * p, (1,) * p)
        big = sympy.eye(p) - x * sympy.Matrix(m.entries)
        num = sympy.expand(
            sum(
                (-1) ** (i + j) * big.minor_submatrix(j, i).det()
                for i in range(p)
                for j in range(p)
            )
        )
        den = sympy.expand(big.det())
        ours = sum(c * x**i for i, c in enumerate(g.num)) / sum(
            c * x**i for i, c in enumerate(g.den)
        )
        assert sympy.simplify(ours - num / den) == 0


def test_rational_gf_canonical_form():
    g = rational_gf((2,), (2, -2))
    assert (g.num, g.den) == ((1,), (1, -1))
    g = rational_gf((0, -1), (-1, 2))
    assert g.den[0] > 0
    g = rational_gf((1, 1), (1, 0, -1))  # (1+x)/(1-x^2) = 1/(1-x)
    assert (g.num, g.den) == ((1,), (1, -1))
    assert rational_gf((0,), (5, 1)).num == ()


def test_gf_equal():
    assert gf_equal(rational_gf((1,), (1, -1)), RationalGF((2,), (2, -2)))
    assert not gf_equal(rational_gf((1,), (1, -1)), rational_gf((1,), (1, -2)))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
)
def test_gf_scaling_invariance(num, den, scale):
    if not any(den) or den[0] == 0 or not any(scale):
        return
    g1 = rational_gf(num, den)
    g2 = rational_gf(poly_mul(poly(num), poly(scale)), poly_mul(poly(den), poly(scale)))
    assert gf_equal(g1, g2)
    assert (g1.num, g1.den) == (g2.num, g2.den)


def test_poly_gcd():
    assert poly_gcd((1, 0, -1), (1, 1)) == (1, 1)
    assert poly_gcd((2, 2), (4, 4)) == (1, 1)
    assert poly_gcd((1, 2, 1), (1, 1)) == (1, 1)
    assert poly_gcd((1, 0, 1), (1, 1)) == (1,)


@settings(max_examples=150, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_poly_gcd_matches_sympy(f, a, b):
    fa, fb = poly_mul(f, a), poly_mul(f, b)
    x = sympy.Symbol("x")
    g = sympy.Poly(fa[::-1] or [0], x).gcd(sympy.Poly(fb[::-1] or [0], x))
    want = poly(int(c) for c in g.primitive()[1].all_coeffs()[::-1])
    if want and want[-1] < 0:
        want = tuple(-c for c in want)
    assert poly_gcd(fa, fb) == want


@settings(max_examples=100, deadline=None)
@given(small_polys, small_polys.filter(bool))
def test_poly_divexact_inverts_poly_mul(q, b):
    assert poly_divexact(poly_mul(q, b), b) == q


@pytest.mark.parametrize(
    "a,b",
    [((1, 1), (2,)), ((1, 0, 1), (1, 1))],
    ids=["quotient-not-integral", "nonzero-remainder"],
)
def test_poly_divexact_rejects_inexact_division(a, b):
    with pytest.raises(ValueError):
        poly_divexact(a, b)


def test_series_coeffs_known():
    assert series_coeffs(rational_gf((1,), (1, -4, 2)), 4) == [1, 4, 14, 48, 164]
    assert series_coeffs(rational_gf((0, 1), (1, -2)), 4) == [0, 1, 2, 4, 8]
    assert series_coeffs(rational_gf((3, 1, -1), (1, -2, -1, 1)), 4) == [3, 7, 16, 36, 81]


def test_series_coeffs_matches_sympy():
    x = sympy.Symbol("x")
    cases = [((3, 1, -1), (1, -2, -1, 1)), ((0, 1, 1, -1), (1, -13, 31, -20, 4))]
    for num, den in cases:
        ours = series_coeffs(RationalGF(num, den), 10)
        expr = sum(c * x**i for i, c in enumerate(num)) / sum(
            c * x**i for i, c in enumerate(den)
        )
        series = sympy.series(expr, x, 0, 11).removeO()
        theirs = [int(series.coeff(x, i)) for i in range(11)]
        assert ours == theirs


def test_series_coeffs_non_integer():
    with pytest.raises(NonIntegerCoefficientError):
        series_coeffs(RationalGF((1,), (2, -1)), 3)
    with pytest.raises(InvalidParamsError):
        series_coeffs(RationalGF((1,), (0, 1)), 3)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-9, 9), max_size=12).map(poly),
    st.tuples(st.sampled_from((1, -1)), st.lists(st.integers(-9, 9), max_size=6)).map(
        lambda d: poly([d[0]] + d[1])
    ),
    st.integers(0, 400),
)
@example((), (1, -2, 1), 7)
@example((3, 1), (-1, 1), 0)
@example((), (-1,), 0)
def test_series_coeff_matches_the_prefix_route(num, den, n):
    # num may be longer than den: halving keeps the polynomial part exact;
    # den(0) = -1 makes every Graeffe iterate's constant term 1
    gf = RationalGF(num, den)
    assert series_coeff(gf, n) == series_coeffs(gf, n)[n]


def test_series_coeff_matches_the_prefix_route_on_the_package_gfs():
    gfs = [seq1d.gf_1d(k, s) for k in range(2, 11) for s in range(1, k)]
    gfs += [seq1d.gf_closed(k, s).gf for k in range(2, 17) for s in range(1, k)
            if seq1d.large_strides_regime(k, s) or seq1d.proportional_regime(k, s)]
    gfs.append(seq2d.gf_2d())
    for gf in gfs:
        prefix = series_coeffs(gf, 300)
        assert [series_coeff(gf, n) for n in range(301)] == prefix, gf


def test_a_second_grid_query_forms_no_square_and_no_iterate(monkeypatch, capsys):
    polyalg._square.cache_clear()
    polyalg._graeffe.cache_clear()
    assert cli.main(["grid3xn", "--n", "3000"]) == 0
    formed = []
    mat_mul, graeffe_step = polyalg._mat_mul, polyalg._graeffe_step
    monkeypatch.setattr(polyalg, "_mat_mul", lambda a, b: formed.append("square") or mat_mul(a, b))
    monkeypatch.setattr(polyalg, "_graeffe_step", lambda q: formed.append("iterate") or graeffe_step(q))
    for n in ("3000", "2049", "1000", "5"):
        assert cli.main(["grid3xn", "--n", n]) == 0
    assert formed == []
    # one more bit of n forms one more square and one more iterate
    assert cli.main(["grid3xn", "--n", "6000"]) == 0
    assert sorted(formed) == ["iterate", "square"]
    capsys.readouterr()


def test_power_kernels_give_the_same_results_on_cold_caches():
    def results():
        return (
            [seq2d.count_2d(n, m) for n in (5, 300, 4095) for m in ("b6", "gf")],
            [seq1d.count_1d(n, 16, 1, m) for n in (2, 300, 1000) for m in ("matrix", "gf")],
        )

    warm = results()
    polyalg._square.cache_clear()
    polyalg._graeffe.cache_clear()
    assert results() == warm


def test_series_coeff_of_every_1d_gf():
    for k in range(2, 17):
        for s in range(1, k):
            gf = seq1d.gf_1d(k, s)
            ns = (0, 1, 2, k, 295, 1000)
            prefix = series_coeffs(gf, max(ns))
            assert [series_coeff(gf, n) for n in ns] == [prefix[n] for n in ns]


def test_series_coeff_of_the_3xn_gf_matches_b6():
    assert series_coeff(seq2d.gf_2d(), 4500) == seq2d.count_2d(4500, "b6")


def test_series_coeff_rejects_non_integer_and_bad_input():
    with pytest.raises(NonIntegerCoefficientError, match="coefficient 3 is"):
        series_coeff(RationalGF((1,), (2, -1)), 3)
    with pytest.raises(InvalidParamsError):
        series_coeff(RationalGF((1,), (0, 1)), 3)
    with pytest.raises(InvalidParamsError):
        series_coeff(RationalGF((1,), (1, -1)), -1)


def test_det_poly_cache_matches_a_fresh_recurrence():
    for k, s in ((3, 1), (7, 4), (16, 5)):
        m = seq1d.adjacency(k, s)
        assert det_poly(m) == polyalg._det_poly.__wrapped__(m.entries)
        assert det_poly(m) is det_poly(TransferMatrix(m.entries))


def test_algebra_queries_of_one_pair_compute_det_poly_once(capsys):
    # gf forms the pair's generating function and its det_poly, growth reads
    # det_poly again, and vertices reads the generating function again
    polyalg._det_poly.cache_clear()
    seq1d._gf_1d.cache_clear()
    for argv in (
        ["gf", "--k", "9", "--s", "4"],
        ["growth", "--k", "9", "--s", "4"],
        ["vertices", "--k", "9", "--s", "4", "--n", "300"],
    ):
        assert cli.main(argv) == 0
    capsys.readouterr()
    info = polyalg._det_poly.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    info = seq1d._gf_1d.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_smallest_positive_root_simple():
    assert abs(smallest_positive_root((1, -2)) - 0.5) < 1e-11


def test_smallest_positive_root_golden():
    r = smallest_positive_root((1, -2, -1, 1))
    assert abs(r - 0.44504) < 1e-4
    r2 = smallest_positive_root((1, -13, 31, -20, 4))
    assert abs(1 / r2 - 10.1311) < 1e-3


def test_smallest_positive_root_picks_least():
    # (1 - 2x)(1 - x/3) has roots 1/2 and 3
    p = poly_mul((1, -2), (3, -1))
    assert abs(smallest_positive_root(p) - 0.5) < 1e-9


def test_root_bracket_certificate():
    for p in [(1, -2), (1, -2, -1, 1), (1, -13, 31, -20, 4), (2, 0, -3)]:
        lo, hi = smallest_positive_root_bracket(p)
        assert hi - lo <= Fraction(1, 10**12) * 2
        assert poly_eval(p, lo) > 0 >= poly_eval(p, hi)


def package_denominators():
    """The denominators behind `growth` (k <= 16) and `growth --grid3xn`."""
    dens = [det_poly(seq1d.adjacency(k, s)) for k in range(2, 17) for s in range(1, k)]
    dens.append(seq2d.gf_2d().den)
    assert len(dens) == 121
    return dens


def _reference_root_cell(p):
    """The bracket by bisection alone, the reference for `_root_cell`: hi
    doubles from 1 until (0, hi] holds a root, Sturm bisection narrows
    (lo, hi] to one distinct root with p(hi) <= 0 (or one unit), and
    bisection on the signs of p ends it at one unit of the 2^-40 grid."""
    p = poly(p)
    chain = polyalg._sturm_chain(p)
    v0 = polyalg._count_variations(polyalg._sign(t[0]) for t in chain)
    if polyalg._count_variations(polyalg._sign(t[-1]) for t in chain) == v0:
        raise NoPositiveRootError("Sturm count: no positive root")
    # invariant: no root in (0, lo], at least one in (lo, hi]
    lo, hi = 0, 1 << polyalg.ROOT_GRID_BITS
    v_hi = polyalg._variations(chain, hi)
    while v_hi == v0:
        lo, hi = hi, hi << 1
        v_hi = polyalg._variations(chain, hi)
    while hi - lo > 1 and (v0 - v_hi > 1 or polyalg._sign_at(p, hi) > 0):
        mid = (lo + hi) >> 1
        v_mid = polyalg._variations(chain, mid)
        if v_mid < v0:
            hi, v_hi = mid, v_mid
        else:
            lo = mid
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if polyalg._sign_at(p, mid) <= 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def test_root_cell_equals_the_bisection_on_the_walk_denominators():
    dens = [det_poly(seq1d.adjacency(k, s)) for k in range(2, 25) for s in range(1, k)]
    dens.append(seq2d.gf_2d().den)
    for p in dens:
        assert polyalg._root_cell(p) == _reference_root_cell(p), p


def test_package_denominators_are_certified_without_bisection(monkeypatch):
    # every root behind `growth` (on the quotients, k <= 16) is accepted from
    # its Newton estimate, so a silent fall back to bisection fails here
    dens = package_denominators()
    dens += [det_poly(seq1d._walk(k, s)[0]) for k in range(2, 17) for s in range(1, k)]
    monkeypatch.setattr(polyalg, "_bisect_cell", lambda *args: pytest.fail("fell back to bisection"))
    for p in dens:
        c = polyalg._newton_point(p)
        assert polyalg._root_cell(p) == (c - 1, c)


@pytest.mark.parametrize(
    "p",
    [
        poly_mul((10**400,), (1, -2)),  # no coefficient is a float
        (1, 0, -4),  # p'(0) = 0
        (1, 3, -1),  # the estimate is the negative root
    ],
    ids=["overflow", "zero-derivative", "negative-estimate"],
)
def test_a_failed_newton_estimate_falls_back_to_bisection(p):
    assert polyalg._newton_point(p) is None
    assert polyalg._root_cell(p) == _reference_root_cell(p)


def test_a_refused_newton_cell_falls_back_to_bisection():
    # the 39-state quotient of adjacency(39, 1) has roots so close to its
    # least one that the float estimate lands a few cells off, and the
    # Sturm counts refuse that cell
    p = det_poly(seq1d._walk(39, 1)[0])
    c = polyalg._newton_point(p)
    assert c is not None and polyalg._root_cell(p) != (c - 1, c)
    assert polyalg._root_cell(p) == _reference_root_cell(p)


@st.composite
def factored_polys(draw):
    # scale * prod (d - n x)^e * prod ((x - b)^2 + c^2): repeated roots of
    # either parity, a twin root 1/(n t) above another (closer than a grid
    # cell when n t > 2^40), and a scale past the float range
    p = (draw(st.sampled_from((1, 3, 10**400))),)
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(-50, 50).filter(bool))
        n = draw(st.integers(-20, 10**4))
        for _ in range(draw(st.integers(1, 3))):
            p = poly_mul(p, (d, -n))
        if draw(st.booleans()):
            t = draw(st.integers(2, 10**12))
            p = poly_mul(p, (d * t + 1, -n * t))
    for _ in range(draw(st.integers(0, 2))):
        b, c = draw(st.integers(-3, 3)), draw(st.integers(1, 3))
        p = poly_mul(p, (b * b + c * c, -2 * b, 1))
    return p if p[0] > 0 else poly_neg(p)


@settings(max_examples=150, deadline=None)
@given(factored_polys())
def test_root_cell_equals_the_bisection_on_factored_polys(p):
    try:
        want = _reference_root_cell(p)
    except NoPositiveRootError:
        with pytest.raises(NoPositiveRootError):
            polyalg._root_cell(p)
        return
    assert polyalg._root_cell(p) == want


def test_package_brackets_are_aligned_dyadic_cells():
    # each bracket is the 2^-40 cell a/2^40 < x <= (a+1)/2^40 that holds the
    # least root
    for p in package_denominators():
        lo, hi = smallest_positive_root_bracket(p)
        assert hi - lo == Fraction(1, 2**40)
        assert (hi * 2**40).denominator == 1
        assert poly_eval(p, lo) > 0 >= poly_eval(p, hi)


def test_root_is_the_rounded_bracket_midpoint():
    for p in package_denominators():
        lo, hi = smallest_positive_root_bracket(p)
        assert smallest_positive_root(p) == float((lo + hi) / 2)


def test_root_signs_straddle_returned_value():
    # exact signs at r -+ tol differ for the returned float r
    tol = 1e-12
    for p in [(1, -2, -1, 1), (1, -13, 31, -20, 4), (1, -6, 6)]:
        r = Fraction(smallest_positive_root(p))
        t = Fraction(tol).limit_denominator(10**15)
        assert poly_eval(p, r - t) > 0 >= poly_eval(p, r + t)


def test_root_bracket_matches_sympy_nroots():
    x = sympy.Symbol("x")
    for p in [(1, -2, -1, 1), (1, -13, 31, -20, 4), (1, -6, 6)]:
        expr = sum(c * x**i for i, c in enumerate(p))
        roots = [complex(r) for r in sympy.Poly(expr, x).nroots()]
        target = min(r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 0)
        assert abs(smallest_positive_root(p) - target) < 1e-9


def test_no_positive_root():
    with pytest.raises(NoPositiveRootError):
        smallest_positive_root((1, 0, 1))
    with pytest.raises(NoPositiveRootError):
        smallest_positive_root((7,))
    with pytest.raises(NoPositiveRootError):
        # roots -1 (double) and -2
        smallest_positive_root(poly_mul((1, 2, 1), (2, 1)))
    with pytest.raises(InvalidParamsError):
        smallest_positive_root((-1, 2))


def test_two_close_roots_and_a_far_one():
    # roots 0.3, 0.3001, 0.9: p changes sign three times, and the Sturm
    # count must separate the first two before the sign bisection
    p = (81027, -630120, 1500100, -1000000)
    assert abs(smallest_positive_root(p) - 0.3) < 1e-12
    lo, hi = smallest_positive_root_bracket(p)
    assert lo < Fraction(3, 10) <= hi and hi - lo <= Fraction(1, 10**12)


def test_root_of_even_multiplicity():
    # (1 - 2x)^2 (1 + x^2) never changes sign
    p = poly_mul(poly_mul((1, -2), (1, -2)), (1, 0, 1))
    lo, hi = smallest_positive_root_bracket(p)
    assert lo < Fraction(1, 2) <= hi
    # (1 - 3x)^2 (1 - x) changes sign only at 1, beyond the double root
    p = poly_mul(poly_mul((1, -3), (1, -3)), (1, -1))
    assert abs(smallest_positive_root(p) - 1 / 3) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-6, 12), st.integers(1, 5)), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), max_size=2),
)
def test_root_bracket_holds_least_positive_root(linear, quadratic):
    # p = prod (d - n x) * prod ((x - b)^2 + c^2): its real roots are the
    # d/n of the linear factors, repeated ones included
    p = (1,)
    roots = []
    for n, d in linear:
        if n == 0:
            continue
        p = poly_mul(p, (d, -n))
        roots.append(Fraction(d, n))
    for b, c in quadratic:
        p = poly_mul(p, (b * b + c * c, -2 * b, 1))
    positive = [r for r in roots if r > 0]
    if not positive:
        with pytest.raises(NoPositiveRootError):
            smallest_positive_root_bracket(p)
        return
    lo, hi = smallest_positive_root_bracket(p)
    assert lo < min(positive) <= hi
    # the aligned 2^-40 cell (a/2^40, (a+1)/2^40] that holds the least root
    unit = Fraction(1, 2**40)
    assert hi == -(-min(positive) // unit) * unit and hi - lo == unit


@settings(max_examples=15, deadline=None)
@given(transfer_matrices(8, 3), st.data())
def test_mat_power_entry_equals_the_row_of_the_power(m, data):
    p = m.size
    ns = list(range(3 * p + 1)) + [data.draw(st.integers(4094, 4098))]
    for n in ns:
        for i in range(p):
            row = vec_mat_power(tuple(int(t == i) for t in range(p)), m, n)
            assert [mat_power_entry(m, n, i, j) for j in range(p)] == list(row), (n, i)


def test_mat_power_entry():
    m = TransferMatrix(((1, 1), (0, 1)))
    assert mat_power_entry(m, 5, 0, 1) == 5
    assert mat_power_entry(m, 0, 0, 0) == 1
    assert mat_power_entry(m, 0, 0, 1) == 0
    # the zeroth power is the identity, the first is M itself
    m = TransferMatrix(((2, 1, 0), (0, 3, 1), (5, 0, 1)))
    assert [[mat_power_entry(m, 0, i, j) for j in range(3)] for i in range(3)] == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]
    ]
    assert [[mat_power_entry(m, 1, i, j) for j in range(3)] for i in range(3)] == [
        list(row) for row in m.entries
    ]


def test_transfer_matrix_validation():
    with pytest.raises(InvalidParamsError):
        TransferMatrix(((1, 1),))
    with pytest.raises(InvalidParamsError):
        TransferMatrix(((-1,),))
