"""Brute-force ground truth for vertex/face counts and gradient-region sampling.

Vertices and faces are enumerated as per-window choice lists filtered by the
acyclicity criterion; by uniqueness of the decomposition of a face into
summand faces, each acyclic list is exactly one nonempty face, so tallying
needs no deduplication.

The enumeration walks the choice tree depth-first and prunes any prefix whose
class graph is already cyclic: extending a selection only merges classes and
adds edges, which maps an existing cycle onto a closed walk, so every
extension of a cyclic prefix is cyclic.  The pruned walk therefore visits
every acyclic list exactly once while skipping the (vast) cyclic bulk.

The vertex walk needs one reachability sweep per node.  A vertex picks one
coordinate per window, so its graph is the coordinate graph itself, and
choosing a in window w adds the edges a -> w minus {a}.  The prefix graph is
acyclic, so that choice closes a cycle exactly when some b in w already
reaches a.  One sweep from the successors of all of w gives R+(w), the set w
reaches along at least one edge, and the valid choices are w minus R+(w).
`count_vertices` runs the walk of `enumerate_vertices` without building the
words.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .errors import BudgetExceededError, InvalidParamsError, TieDetectedError
from .faces import is_face, selection_from_word
from .model import WindowFamily

DEFAULT_BUDGET = 10**8


class FVector(namedtuple("FVector", "counts polytope_dim")):
    """Face counts by dimension (a dict); `polytope_dim` is the top nonzero dimension."""

    __slots__ = ()

    def total(self) -> int:
        return sum(self.counts.values())

    def facet_count(self) -> int:
        return self.counts.get(self.polytope_dim - 1, 0)


def _check_budget(sizes, per_window, budget):
    if budget < 1:
        raise InvalidParamsError(f"budget must be >= 1, got {budget}")
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
    singleton selection picking word[i] in window i.  Choosing a in window w
    adds the edges a -> w minus {a} to an acyclic prefix graph, so it closes
    a cycle exactly when some b in w already reaches a.  One sweep from the
    successors of all of w gives that reachable set R+(w); the valid choices
    are w minus R+(w), taken in increasing order.
    """
    words: list[tuple[int, ...]] = []
    _vertex_walk(family, budget, words)
    return words


def count_vertices(family: WindowFamily, budget: int = DEFAULT_BUDGET) -> int:
    """Number of vertices: the walk of enumerate_vertices, without building words."""
    return _vertex_walk(family, budget, None)


def enumerate_faces(family: WindowFamily, budget: int = DEFAULT_BUDGET) -> FVector:
    """Tally all nonempty faces by dimension (dimension = d - class count).

    DFS over all per-window nonempty chosen sets, pruning cyclic prefixes;
    each acyclic complete list is one face.

    State per node: a rollback union-find over coordinates, plus one
    out-edge bitmask per class root, kept in coordinate space (targets are
    resolved to their current root only when traversed).  Because every
    prefix on the stack is acyclic, a new cycle after choosing a window can
    only run through the class `u` absorbing that window's chosen set:
    collapsing classes into `u` and adding out-edges at `u` leaves every
    u-avoiding edge of the quotient graph untouched.  So the acyclicity test
    is a single reachability walk from u's successors back to u.
    """
    windows = family.windows
    _check_budget(windows, lambda w: (1 << len(w)) - 1, budget)
    d = family.ambient_size
    n = len(windows)
    counts = [0] * (d + 1)

    # choices per window: (chosen elements, rest bitmask) over all nonempty
    # subsets, in increasing submask order
    choices = []
    for w in map(sorted, windows):
        m = len(w)
        opts = []
        for mask in range(1, 1 << m):
            chosen = tuple(w[t] for t in range(m) if mask >> t & 1)
            restmask = sum(1 << w[t] for t in range(m) if not mask >> t & 1)
            opts.append((chosen, restmask))
        choices.append(opts)

    parent = list(range(d))
    size = [1] * d
    outmask = [0] * d  # per root: coordinate-space bitmask of edge targets
    trail: list[tuple[int, int]] = []  # (absorbed root, prior outmask of survivor)
    classes = [d]  # boxed so walk() can mutate

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    def merge_set(elems):
        marker = len(trail)
        it = iter(elems)
        r0 = find(next(it))
        for b in it:
            rb = find(b)
            if rb != r0:
                if size[rb] > size[r0]:
                    r0, rb = rb, r0
                parent[rb] = r0
                size[r0] += size[rb]
                trail.append((rb, outmask[r0]))
                outmask[r0] |= outmask[rb]
                classes[0] -= 1
        return marker, r0

    def rollback(marker):
        while len(trail) > marker:
            rb, prior = trail.pop()
            r0 = parent[rb]
            parent[rb] = rb
            size[r0] -= size[rb]
            outmask[r0] = prior
            classes[0] += 1

    def cycles_through(u):
        # walk root-space successors starting from u's own out-edges
        ubit = 1 << u
        seen = 0
        coords = outmask[u]
        work = 0  # roots whose out-edges still need expanding
        while True:
            while coords:
                low = coords & -coords
                coords ^= low
                b = low.bit_length() - 1
                r = parent[b]
                if r != b:
                    r = find(r)
                rbit = 1 << r
                if rbit == ubit:
                    return True
                if not seen & rbit:
                    seen |= rbit
                    work |= rbit
            if not work:
                return False
            low = work & -work
            work ^= low
            coords = outmask[low.bit_length() - 1]

    def walk(level):
        if level == n:
            counts[d - classes[0]] += 1
            return
        nxt = level + 1
        for chosen, restmask in choices[level]:
            marker, u = merge_set(chosen)
            saved_out = outmask[u]
            outmask[u] = saved_out | restmask
            if not cycles_through(u):
                walk(nxt)
            outmask[u] = saved_out
            rollback(marker)

    walk(0)
    top = max(dim for dim, c in enumerate(counts) if c)
    return FVector(counts={dim: c for dim, c in enumerate(counts) if c}, polytope_dim=top)


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
