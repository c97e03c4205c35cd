import math

import pytest

from poolregions import oracle, polyalg, seq1d, seq2d
from poolregions.errors import InvalidParamsError
from poolregions.faces import is_face, selection_from_word
from poolregions.model import windows_3xn
from poolregions.polyalg import series_coeffs, vec_mat_power


def q2_words():
    # flat index on the 3x2 grid = 2 * row + col
    return [(2 * up[0] + up[1], 2 * lo[0] + lo[1]) for up, lo in seq2d.Q2_VERTEX_PAIRS]


def test_q2_vertices_are_the_14_faces():
    words = q2_words()
    assert len(words) == len(set(words)) == 14
    fam = windows_3xn(2)
    assert all(is_face(selection_from_word(fam, w)) for w in words)


def test_q2_excluded_pairs():
    # only the two cross choices inside the shared middle row are not faces
    fam = windows_3xn(2)
    all_words = {
        (a, b) for a in sorted(fam.windows[0]) for b in sorted(fam.windows[1])
    }
    excluded = all_words - set(q2_words())
    # middle-row cells of the 3x2 grid are flat indices 2 and 3
    assert excluded == {(2, 3), (3, 2)}
    for word in excluded:
        assert not is_face(selection_from_word(fam, word))


def test_derive_a14_matches_embedded():
    derived = seq2d.derive_a14()
    assert derived.entries == seq2d.A14_ENTRIES


def test_a14_entry_examples():
    assert seq2d.A14_ENTRIES[0][2] == 1  # (1,3) one-based
    assert seq2d.A14_ENTRIES[1][10] == 0  # (2,11) one-based
    assert sum(sum(r) for r in seq2d.A14_ENTRIES) == 150


def test_a14_walks_do_not_count_vertices():
    # A14 is the paper's matrix, not a transfer matrix for V_n: its walk
    # counts first differ from V_(n+2) at width 4, so no count route may use it
    a14 = seq2d.derive_a14()
    walks = [sum(vec_mat_power((1,) * 14, a14, n)) for n in range(4)]
    assert walks == [14, 150, 1538, 15636]
    assert [seq2d.count_2d(n + 2, "b6") for n in range(4)] == [14, 150, 1536, 15594]


def test_count_2d_small_values():
    assert seq2d.count_2d(2, "b6") == 14
    assert seq2d.count_2d(3, "b6") == 150
    assert seq2d.count_2d(4, "b6") == 1536
    assert seq2d.count_2d(5, "b6") == 15594
    # applying the recurrence once past the listed values
    assert seq2d.count_2d(6, "b6") == 13 * 15594 - 31 * 1536 + 20 * 150 - 4 * 14


def test_count_2d_methods_agree():
    for n in (2, 3, 4):
        want = seq2d.count_2d(n, "b6")
        assert seq2d.count_2d(n, "gf") == want
        assert seq2d.count_2d(n, "oracle") == want
    for n in range(2, 21):
        assert seq2d.count_2d(n, "gf") == seq2d.count_2d(n, "b6")


def test_count_methods_add_the_oracle_up_to_n4():
    routes = {n: seq2d.count_methods(n) for n in range(2, 7)}
    everything = ("b6", "gf", "oracle")
    assert routes == {2: everything, 3: everything, 4: everything, 5: ("b6", "gf"), 6: ("b6", "gf")}


def test_oracle_counts_width_6():
    # 158,050 vertices, counted without building their words
    assert oracle.count_vertices(windows_3xn(6)) == seq2d.count_2d(6, "gf")


def test_count_2d_method_restrictions():
    assert seq2d.count_2d(5, "oracle") == 15594
    assert sum(seq2d.class_counts(5)) == 15594
    with pytest.raises(InvalidParamsError):
        seq2d.count_2d(1, "b6")


def test_gf_2d_series():
    assert series_coeffs(seq2d.gf_2d(), 5) == [0, 1, 14, 150, 1536, 15594]
    g = seq2d.gf_2d()
    assert g.den[0] == 1
    assert (g.num, g.den) == ((0, 1, 1, -1), (1, -13, 31, -20, 4))


def test_recurrence_order_four():
    v = {n: seq2d.count_2d(n, "b6") for n in range(2, 21)}
    for n in range(2, 17):
        assert v[n + 4] == 13 * v[n + 3] - 31 * v[n + 2] + 20 * v[n + 1] - 4 * v[n]


def test_count_2xn():
    assert [seq2d.count_2xn(n) for n in (2, 3, 4, 5)] == [4, 14, 48, 164]


def test_count_routes_do_not_recheck_their_identities(monkeypatch):
    # verify's two-dim check proves these identities once, for every n
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    monkeypatch.setattr(polyalg, "det_poly", counted("det_poly", polyalg.det_poly))
    for name in ("series_coeffs", "series_coeff"):
        for module in (polyalg, seq1d, seq2d):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(polyalg, name)))
    seq2d.gf_2d()
    assert seq2d.count_2xn(4000) > 0
    assert calls == []


def test_class_counts_n2():
    assert seq2d.class_counts(2) == (1,) * 14


def test_class_counts_n3_are_row_sums():
    counts = seq2d.class_counts(3)
    assert counts == tuple(sum(row) for row in seq2d.A14_ENTRIES)
    assert sum(counts) == 150


def test_class_counts_read_the_last_column_pair():
    # at n >= 4 the last column pair starts at column n - 2 > 1, so these
    # pin the column offset that n = 2 and n = 3 cannot tell apart
    assert seq2d.class_counts(4) == (
        77, 101, 88, 112, 101, 150, 112, 150, 66, 77, 101, 150, 101, 150,
    )
    assert seq2d.class_counts(5) == (
        772, 1023, 884, 1135, 1023, 1536, 1135, 1536, 660, 772, 1023, 1536, 1023, 1536,
    )


def test_growth_2d():
    g = seq2d.growth_2d()
    assert abs(g - 2.3156) < 1e-3
    assert abs(1 / math.exp(g) - 0.098706) < 1e-4
    assert g > seq1d_growth_4_2()


def seq1d_growth_4_2():
    from poolregions import seq1d

    return seq1d.growth_1d(4, 2)
