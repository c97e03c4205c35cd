"""Brute-force ground truth for vertex/face counts and gradient-region sampling.

Vertices and faces are enumerated as per-window choice lists filtered by the
acyclicity criterion; by uniqueness of the decomposition of a face into
summand faces, each acyclic list is exactly one nonempty face, so tallying
needs no deduplication.

Both walks go depth-first and generate only the valid children of a node,
so they visit exactly the acyclic prefixes: extending a selection only
merges classes and adds edges, which maps a cycle onto a closed walk, so no
extension of a cyclic prefix is acyclic.

The vertex walk needs one reachability sweep per node.  A vertex picks one
coordinate per window, so its graph is the coordinate graph itself, and
choosing a in window w adds the edges a -> w minus {a}.  The prefix graph is
acyclic, so that choice closes a cycle exactly when some b in w already
reaches a.  One sweep from the successors of all of w gives R+(w), the set w
reaches along at least one edge, and the valid choices are w minus R+(w).
`count_vertices` runs the walk of `enumerate_vertices` without building the
words.

The face walk needs one sweep per node too.  Group the coordinates of w by
their class in the acyclic prefix graph, and let R+(w) be the classes
reached from these groups along at least one edge.  Choosing C in w merges
the classes that C meets into one class u and adds edges from u to the
rest of w.  The result is acyclic exactly when C is a union of whole
groups, none of them in R+(w).  A group split by C gives u an edge to
itself.  A chosen class in R+(w) is reached from a class of w that is
either chosen too, so the path closes on u, or holds an unchosen
coordinate, which u now points to.  Conversely, the edges that avoid u are
old, so a new cycle runs through u and contains a path of at least one old
edge from a class of w (a chosen one, or that of an unchosen coordinate)
to a chosen class, which then lies in R+(w).  The first class of w in a
topological order is reached from no class of w, so the number g of free
groups is at least 1, and a node has exactly 2^g - 1 children, none
rejected.  Merging j groups turns c classes into c - j + 1, so it raises
the face dimension d - c, the number of merges made, by j - 1: a node of
dimension dim has its last window add C(g, j) faces of dimension
dim + j - 1 for j = 1..g without visiting its leaves, as `count_vertices`
adds the size of w minus R+(w).
"""

from __future__ import annotations

import random
from collections import namedtuple

from .errors import BudgetExceededError, InvalidParamsError, TieDetectedError
from .faces import is_face, selection_from_word
from .model import WindowFamily

DEFAULT_BUDGET = 10**8
# both walks recurse once per window; this stays well below Python's default
# recursion limit of 1000
MAX_WINDOWS = 500


def check_budget(budget):
    """Reject a work budget below 1 (every budgeted count needs one unit)."""
    if budget < 1:
        raise InvalidParamsError(f"budget must be >= 1, got {budget}")


class FVector(namedtuple("FVector", "counts")):
    """Face counts by dimension: a dict of the nonzero counts, top key `polytope_dim`."""

    __slots__ = ()

    @property
    def polytope_dim(self) -> int:
        return max(self.counts)

    def total(self) -> int:
        return sum(self.counts.values())

    def facet_count(self) -> int:
        return self.counts.get(self.polytope_dim - 1, 0)


def _check_budget(sizes, per_window, budget):
    check_budget(budget)
    if len(sizes) > MAX_WINDOWS:
        raise BudgetExceededError(f"{len(sizes)} windows exceed the walk's bound of {MAX_WINDOWS}")
    total = 1
    for m in sizes:
        total *= per_window(m)
        if total > budget:
            raise BudgetExceededError(
                f"candidate space {total}+ exceeds budget {budget}"
            )


def _vertex_walk(family, budget, words):
    """Walk every acyclic word in lexicographic order; returns their number.

    The words are appended to `words`, unless it is None.  `adj[a]` is the
    out-edge bitmask of coordinate a in the prefix graph.
    """
    windows = [tuple(sorted(w)) for w in family.windows]
    _check_budget(windows, len, budget)
    last = len(windows) - 1
    window_mask = [sum(1 << a for a in w) for w in windows]
    adj: list[int] = [0] * family.ambient_size
    word: list[int] = []
    count = 0

    def walk(level):
        nonlocal count
        w = windows[level]
        wmask = window_mask[level]
        frontier = 0
        for b in w:
            frontier |= adj[b]
        seen = 0
        while frontier:
            low = frontier & -frontier
            seen |= low
            frontier = (frontier ^ low) | (adj[low.bit_length() - 1] & ~seen)
        valid = w if not seen & wmask else [a for a in w if not seen >> a & 1]
        if level == last:
            count += len(valid)
            if words is not None:
                words.extend([(*word, a) for a in valid])
            return
        for a in valid:
            saved = adj[a]
            adj[a] = saved | (wmask ^ (1 << a))
            word.append(a)
            walk(level + 1)
            word.pop()
            adj[a] = saved

    walk(0)
    return count


def enumerate_vertices(family: WindowFamily, budget: int = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
    """All vertices of the family's polytope, as per-window coordinate words.

    Output order is lexicographic over words.  Each word is the acyclic
    singleton selection picking word[i] in window i; the walk makes only
    valid choices (vertex walk, module docstring).
    """
    words: list[tuple[int, ...]] = []
    _vertex_walk(family, budget, words)
    return words


def count_vertices(family: WindowFamily, budget: int = DEFAULT_BUDGET) -> int:
    """Number of vertices: the walk of enumerate_vertices, without building words."""
    return _vertex_walk(family, budget, None)


def enumerate_faces(family: WindowFamily, budget: int = DEFAULT_BUDGET) -> FVector:
    """Tally all nonempty faces by dimension (d - class count, the merges made).

    Depth-first over the windows, making only valid children and tallying
    the last window without visiting it (face walk, module docstring).  A
    node is an acyclic prefix, kept as classes of coordinates: `rep` maps a
    coordinate to its class representative, and `members` and `out` give
    each class's coordinates and edge targets as bitmasks.  `dim` is the
    prefix's merge count, so a coordinate no window uses changes no tally.
    """
    windows = family.windows
    _check_budget(windows, lambda w: (1 << len(w)) - 1, budget)
    d = family.ambient_size
    last = len(windows) - 1
    window_mask = [sum(1 << a for a in w) for w in windows]
    rep = list(range(d))
    members = [1 << a for a in range(d)]
    out = [0] * d
    counts = [0] * (d + 1)

    def relabel(mask, r):
        while mask:
            low = mask & -mask
            rep[low.bit_length() - 1] = r
            mask ^= low

    def walk(level, dim):
        wmask = window_mask[level]
        frontier = 0
        for a in windows[level]:
            frontier |= out[rep[a]]
        reached = 0
        while frontier:
            r = rep[(frontier & -frontier).bit_length() - 1]
            reached |= members[r]
            frontier = (frontier | out[r]) & ~reached
        groups = []
        free = wmask & ~reached
        while free:
            r = rep[(free & -free).bit_length() - 1]
            groups.append(r)
            free &= ~members[r]
        g = len(groups)
        if level == last:
            ways = 1
            for j in range(1, g + 1):
                ways = ways * (g - j + 1) // j
                counts[dim + j - 1] += ways
            return
        for pick in range(1, 1 << g):
            chosen = [r for t, r in enumerate(groups) if pick >> t & 1]
            u = chosen[0]
            saved = members[u], out[u]
            joined, edges = saved
            for r in chosen[1:]:
                joined |= members[r]
                edges |= out[r]
            relabel(joined ^ saved[0], u)
            members[u] = joined
            out[u] = edges | (wmask & ~joined)
            walk(level + 1, dim + len(chosen) - 1)
            members[u], out[u] = saved
            for r in chosen[1:]:
                relabel(members[r], r)

    walk(0, 0)
    return FVector(counts={dim: c for dim, c in enumerate(counts) if c})


# Nothing in the package calls these two.  They keep the names that the
# benchmark's per-layer list (BENCHMARK.json, perfbench/layertrace.py) still
# reads, and go when that list drops them.
def facet_count_oracle(family: WindowFamily, budget: int = DEFAULT_BUDGET) -> int:
    """Number of facets, by the face walk."""
    return enumerate_faces(family, budget).facet_count()


def facet_count_two_classes(family: WindowFamily, budget: int = DEFAULT_BUDGET) -> int:
    """Number of two-class faces (dimension d - 2), by the face walk."""
    return enumerate_faces(family, budget).counts.get(family.ambient_size - 2, 0)


def region_pattern(family: WindowFamily, x) -> tuple[int, ...]:
    """Per-window argmax word of an input point (its gradient pattern).

    Raises TieDetectedError when some window attains its maximum twice.
    """
    if len(x) != family.ambient_size:
        raise InvalidParamsError("input length must equal the ambient size")
    word = []
    for w in family.windows:
        best = max(w, key=x.__getitem__)
        if sum(1 for a in w if x[a] == x[best]) > 1:
            raise TieDetectedError(f"window {sorted(w)} has a tied maximum")
        word.append(best)
    return tuple(word)


def sample_regions(family: WindowFamily, trials: int, seed: int) -> tuple[int, bool]:
    """Sample gradient patterns at uniform random inputs in [0, 1)^d.

    Returns (number of distinct patterns seen, whether every pattern passes
    the face criterion).  Inputs come from a private random.Random(seed), so
    results depend only on (family, trials, seed) and the global random
    state is left alone; a draw with a tied window maximum is redrawn.
    """
    if trials < 1:
        raise InvalidParamsError("trials must be >= 1")
    draw = random.Random(seed).random
    coords = range(family.ambient_size)
    patterns: set[tuple[int, ...]] = set()
    all_faces = True
    for _ in range(trials):
        while True:
            try:
                word = region_pattern(family, [draw() for _ in coords])
                break
            except TieDetectedError:
                pass
        if word not in patterns:
            patterns.add(word)
            if not is_face(selection_from_word(family, word)):
                all_faces = False
    return len(patterns), all_faces
