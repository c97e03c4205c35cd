"""Facet counts and the minimal inequality description of the 1-D polytopes.

Facets correspond to two-class partitions B -> A of the coordinates; the
supporting inequality of the ray e_B is e_B . x <= #{j : window_j meets B},
evaluated at any vertex that picks inside B wherever its window meets B.
Three families arise: complements of prefix unions of windows, complements
of suffix unions, and single coordinates (x_a >= 0).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParamsError


@dataclass(frozen=True)
class HRow:
    """One linear condition: coeffs . x  (sense)  rhs."""

    coeffs: tuple[int, ...]
    rhs: int
    sense: str  # "<=", ">=", "="
    label: str

    def satisfied_by(self, point) -> bool:
        v = sum(c * x for c, x in zip(self.coeffs, point))
        if self.sense == "<=":
            return v <= self.rhs
        if self.sense == ">=":
            return v >= self.rhs
        return v == self.rhs

    def tight_at(self, point) -> bool:
        return sum(c * x for c, x in zip(self.coeffs, point)) == self.rhs


@dataclass(frozen=True)
class HRep:
    """One affine-span equality plus one inequality per facet."""

    ambient: int
    equalities: tuple[HRow, ...]
    inequalities: tuple[HRow, ...]

    def rows(self) -> tuple[HRow, ...]:
        return self.equalities + self.inequalities


def facet_count_formula(n: int, k: int, s: int) -> int:
    """(s+2)(n-1)+k facets for k > s+1; k*n for 1 < k <= s+1 (k at n = 1)."""
    if k <= 1 or n < 1 or s < 1:
        raise InvalidParamsError("need k >= 2, n >= 1, s >= 1")
    if k > s + 1:
        return (s + 2) * (n - 1) + k
    return k * n


def vertex_points(ambient: int, words) -> list[tuple[int, ...]]:
    """Points of vertex words: coordinate a counts the windows whose letter is a."""
    points = []
    for word in words:
        p = [0] * ambient
        for a in word:
            p[a] += 1
        points.append(tuple(p))
    return points


def _check_params(what, n, k, s):
    if not (k > s >= 1 and n >= 1):
        raise InvalidParamsError(f"{what} needs k > s >= 1, n >= 1")


def _e(indices, K):
    row = [0] * K
    for i in indices:
        row[i] = 1
    return tuple(row)


def h_representation(n: int, k: int, s: int) -> HRep:
    """Minimal description of the n-window polytope for k > s.

    Rows: the affine span sum(x) = n; for each prefix of windows, the
    complement-set inequality; for each suffix likewise; and x_a >= 0 for
    each admissible coordinate.  When k = s+1 the coordinates a = r*s
    (r = 1..n-1), where consecutive windows meet in the single point a, do
    not support facets and are excluded from the x_a >= 0 family.
    """
    _check_params("h-representation", n, k, s)
    K = s * (n - 1) + k
    equalities = (HRow((1,) * K, n, "=", "affine-span"),)

    rows = []
    # complement of windows 0..r covers coordinates above s*r + k - 1; each
    # of the n-1-r later windows meets it
    for r in range(n - 1):
        B = range(s * r + k, K)
        rows.append(HRow(_e(B, K), n - 1 - r, "<=", f"prefix-union {r}"))
    # complement of windows r..n-1 is the first s*r coordinates; exactly the
    # r earlier windows meet it
    for r in range(1, n):
        B = range(0, s * r)
        rows.append(HRow(_e(B, K), r, "<=", f"suffix-union {r}"))
    excluded = {r * s for r in range(1, n)} if k == s + 1 else set()
    for a in range(K):
        if a in excluded:
            continue
        rows.append(HRow(_e([a], K), 0, ">=", f"singleton {a}"))
    return HRep(ambient=K, equalities=equalities, inequalities=tuple(rows))


def printed_rows(n: int, k: int, s: int) -> tuple[HRow, ...]:
    """The uncorrected printed form of the description (senses >=, shifted
    constants, coordinate 0 missing from the singleton family).

    Kept only for the diff report: several of these rows are violated by
    actual vertices.
    """
    _check_params("printed description", n, k, s)
    K = s * (n - 1) + k
    rows = [HRow((1,) * K, n, "=", "affine-span")]
    for r in range(n - 1):
        rows.append(HRow(_e(range(s * r + k, K), K), n - 1 - r, ">=", f"prefix-union {r}"))
    for r in range(1, n):
        rows.append(HRow(_e(range(0, s * r), K), r - 1, ">=", f"suffix-union {r}"))
    excluded = {r * (k - 1) + 1 for r in range(1, n)} if k == s + 1 else set()
    for a in range(1, K):
        if a in excluded:
            continue
        rows.append(HRow(_e([i for i in range(K) if i != a], K), n, ">=", f"singleton {a}"))
    return tuple(rows)


def printed_description_diff(n: int, k: int, s: int, vertices) -> dict:
    """Machine comparison of the printed description against the derived one.

    `vertices` are oracle vertex words; each printed row is checked against
    every vertex point and its violations counted, with an example.
    """
    points = vertex_points(s * (n - 1) + k, vertices)
    derived = h_representation(n, k, s)
    derived_by_label = {row.label: row for row in derived.rows()}

    entries = []
    for row in printed_rows(n, k, s):
        bad = [p for p in points if not row.satisfied_by(p)]
        twin = derived_by_label.get(row.label)
        entries.append(
            {
                "label": row.label,
                "printed": {"coeffs": row.coeffs, "sense": row.sense, "rhs": row.rhs},
                "derived": None
                if twin is None
                else {"coeffs": twin.coeffs, "sense": twin.sense, "rhs": twin.rhs},
                "violations": len(bad),
                "example_violating_vertex": bad[0] if bad else None,
            }
        )
    return {
        "n": n,
        "k": k,
        "s": s,
        "vertex_count": len(points),
        "printed_rows": len(entries),
        "rows_violated": sum(1 for e in entries if e["violations"]),
        "entries": entries,
    }
