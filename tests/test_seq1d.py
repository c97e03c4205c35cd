import math

import pytest

from poolregions import cli, oracle, seq1d
from poolregions.errors import (
    InvalidParamsError,
    OutOfWindowError,
    PoolRegionsError,
    RegimeNotCoveredError,
)
from poolregions.faces import is_face, selection_from_word
from poolregions.model import windows_1d
from poolregions.polyalg import (
    det_poly,
    gf_equal,
    gf_from_matrix,
    one_plus_x_times,
    rational_gf,
    series_coeffs,
    smallest_positive_root,
    vec_mat_power,
)

PAIRS_16 = [(k, s) for k in range(2, 17) for s in range(1, k)]


def test_adjacency_k3_s1():
    m = seq1d.adjacency(3, 1)
    assert m.entries == ((1, 1, 1), (1, 0, 1), (0, 1, 1))


def test_adjacency_k4_s2():
    m = seq1d.adjacency(4, 2)
    zeros = {(a, b) for a in range(4) for b in range(4) if not m.entries[a][b]}
    assert zeros == {(2, 1), (3, 0)}


def test_adjacency_complete_when_k_is_s_plus_1():
    for k in (2, 3, 5):
        m = seq1d.adjacency(k, k - 1)
        assert all(all(row) for row in m.entries)


def test_adjacency_zero_count():
    for k in range(2, 8):
        for s in range(1, k):
            m = seq1d.adjacency(k, s)
            zeros = sum(row.count(0) for row in m.entries)
            assert zeros == (k - s) * (k - s - 1)


def test_adjacency_rejects_small_k():
    with pytest.raises(InvalidParamsError):
        seq1d.adjacency(3, 3)
    with pytest.raises(InvalidParamsError):
        seq1d.adjacency(2, 5)


def test_is_vertex_word():
    assert seq1d.is_vertex_word((0, 1), 3, 1)
    assert not seq1d.is_vertex_word((1, 2), 3, 1)  # standardizes to (1, 1)
    assert not seq1d.is_vertex_word((2, 1), 3, 1)  # standardizes to (2, 0)
    with pytest.raises(OutOfWindowError):
        seq1d.is_vertex_word((0, 5), 3, 1)


def test_is_vertex_word_trivial_regimes():
    # k <= s+1: every in-window word is a vertex
    for k, s in [(2, 1), (3, 2), (2, 3)]:
        import itertools

        for word in itertools.product(*[range(s * j, s * j + k) for j in range(3)]):
            assert seq1d.is_vertex_word(word, k, s)


def test_word_matches_face_criterion():
    import itertools

    for k in range(2, 6):
        for s in range(1, k):
            for n in (2, 3, 4):
                fam = windows_1d(n, k, s)
                for word in itertools.product(*[sorted(w) for w in fam.windows]):
                    assert seq1d.is_vertex_word(word, k, s) == is_face(
                        selection_from_word(fam, word)
                    )


def test_gf_1d_golden():
    g = seq1d.gf_1d(3, 1)
    assert (g.num, g.den) == ((3, 1, -1), (1, -2, -1, 1))
    assert series_coeffs(g, 4) == [3, 7, 16, 36, 81]


def test_gf_1d_large_stride_examples():
    assert gf_equal(one_plus_x_times(seq1d.gf_1d(5, 3)), rational_gf((1,), (1, -5, 2)))
    assert gf_equal(one_plus_x_times(seq1d.gf_1d(2, 1)), rational_gf((1,), (1, -2)))


def test_gf_closed_regimes():
    both = seq1d.gf_closed(6, 3)
    assert set(both.regimes) == {"large-strides", "proportional"}
    assert gf_equal(both.gf, rational_gf((1,), (1, -6, 6)))

    ls = seq1d.gf_closed(7, 4)
    assert ls.regimes == ("large-strides",)
    assert gf_equal(ls.gf, rational_gf((1,), (1, -7, 6)))

    prop = seq1d.gf_closed(3, 1)
    assert prop.regimes == ("proportional",)
    assert gf_equal(prop.gf, one_plus_x_times(seq1d.gf_1d(3, 1)))

    with pytest.raises(RegimeNotCoveredError):
        seq1d.gf_closed(5, 2)  # below ceil(k/2), not proportional


def test_gf_closed_s1_display():
    # stride-1 closed form written out coefficient by coefficient
    for k in (3, 4, 5, 6):
        num = [0] * (k + 1)
        num[0], num[1], num[2] = 1, k - 4, -(k - 2)
        num[k] += 1
        den = [0] * (k + 3)
        den[0], den[1], den[2] = 1, -4, 4
        den[k] += 1
        den[k + 1] -= k
        den[k + 2] += k - 2
        assert gf_equal(seq1d.gf_closed(k, 1).gf, rational_gf(num, den))


def test_count_methods_agree_small_grid():
    for k in range(2, 7):
        for s in range(1, k):
            for n in range(1, 7):
                want = seq1d.count_1d(n, k, s, "matrix")
                assert seq1d.count_1d(n, k, s, "oracle") == want
                assert seq1d.count_1d(n, k, s, "gf") == want
                try:
                    assert seq1d.count_1d(n, k, s, "closed") == want
                except RegimeNotCoveredError:
                    assert math.ceil(k / 2) > s and k % s != 0 and k > s + 1


def test_count_methods_are_the_routes_that_do_not_raise():
    # s < k covers the walk model; k <= s leaves only the closed route k^n
    for k in range(1, 17):
        for s in range(1, 17):
            covered = []
            for m in ("matrix", "gf", "closed"):
                try:
                    seq1d.count_1d(3, k, s, m)
                    covered.append(m)
                except PoolRegionsError:
                    pass
            assert seq1d.count_methods(k, s) == tuple(covered), (k, s)


def test_proportional_regime_rejects_nonpositive_stride():
    assert not seq1d.proportional_regime(3, 0)
    assert not seq1d.proportional_regime(-4, -2)
    assert seq1d.proportional_regime(6, 3) and not seq1d.proportional_regime(3, 3)


def test_oracle_count_at_n12():
    assert seq1d.count_1d(12, 3, 1, "oracle") == seq1d.count_1d(12, 3, 1, "matrix")


def test_count_examples():
    assert seq1d.count_1d(1, 4, 1, "matrix") == 4
    assert seq1d.count_1d(5, 3, 1, "gf") == 81
    assert seq1d.count_1d(2, 4, 2, "closed") == 14
    assert seq1d.count_1d(2, 4, 2, "matrix") == 4 * 4 - 2 * 1


def test_single_window_count_is_k():
    for k in range(2, 7):
        for s in range(1, k):
            assert seq1d.count_1d(1, k, s, "matrix") == k


def test_count_1d_trivial_regime():
    # k <= s + 1: the closed route returns k**n without a generating function
    assert seq1d.count_1d(3, 3, 2, "closed") == 27
    assert seq1d.count_1d(4, 2, 3, "closed") == 16
    assert seq1d.count_1d(1, 5, 5, "closed") == 5


def test_closed_initial_examples():
    assert seq1d.closed_initial(1, 4, 2) == 14  # b_2
    assert seq1d.closed_initial(2, 3, 1) == 16  # b_3
    assert seq1d.closed_initial(4, 3, 1) == 81  # b_5 via the r+2 formula
    with pytest.raises(InvalidParamsError, match=r"m must be in 1\.\.4"):
        seq1d.closed_initial(5, 3, 1)
    with pytest.raises(RegimeNotCoveredError):
        seq1d.closed_initial(1, 5, 2)


def test_closed_initial_matches_matrix():
    for k in range(2, 9):
        for s in range(1, k):
            if k % s or k // s < 2:
                continue
            r = k // s - 1
            for m in range(1, r + 3):
                assert seq1d.closed_initial(m, k, s) == seq1d.count_1d(
                    m + 1, k, s, "matrix"
                )


def test_growth_golden():
    assert abs(seq1d.growth_1d(3, 1) - 0.8096) < 5e-4
    assert abs(seq1d.growth_1d(2, 1) - math.log(2)) < 1e-10


def test_growth_large_strides_closed():
    assert abs(seq1d.growth_large_strides(4, 2) - math.log(2 + math.sqrt(2))) < 1e-12
    assert abs(seq1d.growth_large_strides(5, 3) - math.log(4 / (5 - math.sqrt(17)))) < 1e-12
    for k, s in [(4, 2), (5, 3), (6, 3), (6, 4), (7, 4)]:
        assert abs(seq1d.growth_1d(k, s) - seq1d.growth_large_strides(k, s)) < 1e-9


def test_growth_boundary_discrepancy_documented():
    # at s = floor(k/2) < ceil(k/2) the closed form is wrong; keep this
    # mismatch visible so a silent behavior change gets noticed
    assert abs(seq1d.growth_large_strides(5, 2) - math.log(3)) < 1e-12
    assert abs(seq1d.growth_1d(5, 2) - seq1d.growth_large_strides(5, 2)) > 0.1
    with pytest.raises(RegimeNotCoveredError):
        seq1d.growth_large_strides(5, 1)


def test_growth_matches_coefficient_growth():
    # (1/n) log b_n approaches the computed rate from below at these sizes
    k, s = 3, 1
    rate = seq1d.growth_1d(k, s)
    b30 = seq1d.count_1d(30, k, s, "matrix")
    b31 = seq1d.count_1d(31, k, s, "matrix")
    assert abs(math.log(b31 / b30) - rate) < 1e-3


def test_gf_numerator_equals_cofactor_sum():
    # the series-recovered numerator agrees with the classical cofactor
    # form of walk generating functions on every small walk matrix
    import sympy

    x = sympy.Symbol("x")
    for k in range(2, 5):
        for s in range(1, k):
            m = seq1d.adjacency(k, s)
            g = seq1d.gf_1d(k, s)
            big = sympy.eye(k) - x * sympy.Matrix(m.entries)
            num = sum(
                (-1) ** (i + j) * big.minor_submatrix(j, i).det()
                for i in range(k)
                for j in range(k)
            )
            ours = sum(c * x**i for i, c in enumerate(g.num)) / sum(
                c * x**i for i, c in enumerate(g.den)
            )
            assert sympy.simplify(ours - num / big.det()) == 0, (k, s)


def test_literal_index_range_would_fail_golden_gf():
    # an off-by-one variant of the forbidden-pair rule (skipping the i = 0
    # pairs) changes the matrix and the golden series; the verify suite
    # would catch such a build immediately
    from poolregions.polyalg import TransferMatrix, gf_from_matrix

    k, s = 3, 1
    entries = tuple(
        tuple(
            0 if (a >= s + 1 and b <= k - s - 1 and a != b + s) else 1
            for b in range(k)
        )
        for a in range(k)
    )
    assert entries != seq1d.adjacency(k, s).entries
    mutated = gf_from_matrix(TransferMatrix(entries), (1,) * k, (1,) * k)
    assert series_coeffs(mutated, 4) != [3, 7, 16, 36, 81]


def test_oracle_matches_k_power_when_windows_disjoint():
    # s = k: windows touch without overlapping and every word is a vertex
    for k in range(2, 7):
        n = 4 if k < 6 else 3
        fam = windows_1d(n, k, k)
        assert len(oracle.enumerate_vertices(fam)) == k**n


def test_larger_window_scaling():
    # nothing in the exact pipeline degrades at bigger k or deep n
    assert seq1d.count_1d(40, 10, 3, "matrix") == seq1d.count_1d(40, 10, 3, "gf")
    b40 = seq1d.count_1d(40, 10, 3, "matrix")
    b41 = seq1d.count_1d(41, 10, 3, "matrix")
    assert abs(math.log(b41 / b40) - seq1d.growth_1d(10, 3)) < 1e-2


@pytest.mark.parametrize("k,s", PAIRS_16, ids=[f"k{k}s{s}" for k, s in PAIRS_16])
def test_transfer_routes_on_the_quotient_match_the_full_matrix(k, s):
    m = seq1d.adjacency(k, s)
    ones = (1,) * k
    assert gf_equal(seq1d.gf_1d(k, s), gf_from_matrix(m, ones, ones))
    for n in (1, 2, 7, 40):
        assert seq1d.count_1d(n, k, s, "matrix") == sum(vec_mat_power(ones, m, n - 1))
    assert seq1d.growth_1d(k, s) == math.log(1 / smallest_positive_root(det_poly(m)))


def test_quotient_has_ceil_k_over_s_states():
    # a checked range, not a proof for every k
    for k in range(2, 41):
        for s in range(1, k):
            q, sizes = seq1d._walk(k, s)
            assert q.size == (1 if k == s + 1 else math.ceil(k / s)), (k, s)
            assert sum(sizes) == k


def test_quotient_size_is_the_reduced_denominator_degree():
    for k, s in PAIRS_16:
        assert seq1d._walk(k, s)[0].size == len(seq1d.gf_1d(k, s).den) - 1, (k, s)


def test_queries_of_one_pair_build_its_adjacency_once(monkeypatch, capsys):
    calls = []
    adjacency = seq1d.adjacency

    def counting_adjacency(k, s):
        calls.append((k, s))
        return adjacency(k, s)

    seq1d._walk.cache_clear()
    monkeypatch.setattr(seq1d, "adjacency", counting_adjacency)
    for argv in (
        ["gf", "--k", "9", "--s", "4"],
        ["growth", "--k", "9", "--s", "4"],
        ["vertices", "--k", "9", "--s", "4", "--n", "300"],
    ):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls == [(9, 4)]
