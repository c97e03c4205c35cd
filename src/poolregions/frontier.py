"""Frontier-state DP for f-vectors: the face criterion read window by window.

The faces of a window family's polytope are the per-window choice lists
whose class graph is acyclic (see `faces`).  Instead of listing them one by
one (`oracle.enumerate_faces`), this module tallies them with the
transfer-matrix method (Stanley, EC1 §4.7): it processes the windows one at
a time and keeps, for each partial choice list, only what later windows can
still see of it.

A coordinate is *live* while a later window still uses it.  The state is
the class partition of the live coordinates touched so far, plus the
transitively closed reachability among those classes.  A class whose
coordinates are all retired can gain no edge and join no merge any more, so
it leaves the state; paths through it survive in the closure.  The value of
a state is a polynomial in the number of merges made: a chosen set that
joins j groups lowers the class count by j - 1, so the merges are the face
dimension d - classes, and at the end the coefficient at m merges counts
the faces of dimension m.  Coordinates that no window uses never merge,
so the DP never sees them.  A step makes only the valid children of each
state, by the face-walk lemma stated in the `oracle` module docstring, so
no cycle test runs; the two modules share that lemma but no code.
"""

from __future__ import annotations

from .errors import BudgetExceededError
from .model import WindowFamily
from .oracle import DEFAULT_BUDGET, FVector, check_budget


def _window_order(masks):
    """Greedy processing order and the live coordinates after each step.

    Repeatedly takes the window that leaves the fewest live coordinates.
    Ties go to the window with the most coordinates already touched, then
    the fewest remaining uses of its coordinates, then the lowest index.
    The tally does not depend on the order, but the number of states does:
    the row-first order of `windows_3xn` keeps a whole row live and blows
    up, while this order sweeps 3xn column by column.  Ties by index alone
    would follow the listing order: 4x8 with 2x2 windows passed a million
    states, against 333 for 8x4 and for both with these tie-breaks.
    """
    uses = {}
    for m in masks:
        for b in _bits(m):
            uses[b] = uses.get(b, 0) + 1
    remaining = list(range(len(masks)))
    touched = 0
    order, lives = [], []
    while remaining:
        used = once = 0
        for b, c in uses.items():
            if c:
                used |= b
                if c == 1:
                    once |= b

        def live_after(i):
            return (touched | masks[i]) & used & ~(masks[i] & once)

        def rank(i):
            m = masks[i]
            return live_after(i).bit_count(), -(m & touched).bit_count(), sum(map(uses.get, _bits(m))), i

        best = min(remaining, key=rank)
        lives.append(live_after(best))
        order.append(best)
        remaining.remove(best)
        touched |= masks[best]
        for b in _bits(masks[best]):
            uses[b] -= 1
    return order, lives


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _step(states, wmask, live, width):
    """Extend every state by every valid chosen set of one window.

    A state is a sorted tuple of (class mask, reach mask) pairs over live
    coordinates; the reach mask is the union of the classes the class
    reaches, transitively closed.  The window's groups are the classes it
    hits plus its untouched coordinates as singletons, and R+(w) is the
    union of the hit classes' reach masks.  By the face-walk lemma in the
    `oracle` module docstring, the valid chosen sets are exactly the
    nonempty unions of the groups outside R+(w), so every child made here
    is valid.  The merged class u reaches the chosen classes' reach and
    every unchosen group with its reach; as R+(w) is closed and holds every
    group's reach, that is R+(w) plus the unchosen free groups.  Values
    pack the merge polynomial into one integer, `width` bits per
    coefficient, so joining j groups is a shift by (j - 1) * width.
    """
    out = {}
    for state, value in states.items():
        touched = bound = 0
        for cm, rm in state:
            touched |= cm
            if cm & wmask:
                bound |= rm
        classes = [*state, *((b, 0) for b in _bits(wmask & ~touched))]
        unions = [(0, 0)]
        for cm, _ in classes:
            if cm & wmask and not cm & bound:
                unions += [(u | cm, j + 1) for u, j in unions]
        free = unions[-1][0]
        for merged, j in unions[1:]:
            reach = bound | (free ^ merged)
            new = []
            for cm, rm in ((merged, reach), *(c for c in classes if not c[0] & merged)):
                if rm & merged:
                    rm |= merged | reach
                if cm & live:
                    new.append((cm & live, rm & live))
            key = tuple(sorted(new))
            out[key] = out.get(key, 0) + (value << (j - 1) * width)
    return out


def fvector(family: WindowFamily, budget: int = DEFAULT_BUDGET) -> FVector:
    """Nonempty faces by dimension, by DP over the windows.

    Equals `oracle.enumerate_faces(family)`.  The budget bounds the
    (state, chosen set) pairs the windows offer, 2^|w| - 1 per state: an
    upper bound on the children `_step` makes, since it makes only the valid
    ones.  BudgetExceededError is raised before a window whose step would
    take the running total over it.
    """
    check_budget(budget)
    masks = [sum(1 << a for a in w) for w in family.windows]
    # every coefficient counts partial choice lists, fewer than the product
    # of the (2^|w| - 1) choices, so sum |w| bits hold it without carries
    width = sum(m.bit_count() for m in masks)
    order, lives = _window_order(masks)
    states = {(): 1}
    work = 0
    for i, live in zip(order, lives):
        work += len(states) * ((1 << masks[i].bit_count()) - 1)
        if work > budget:
            raise BudgetExceededError(
                f"frontier DP needs {work}+ (state, chosen set) pairs, over budget {budget}"
            )
        states = _step(states, masks[i], live, width)
    packed = states[()]
    counts = {}
    dim = 0
    while packed:
        c = packed & ((1 << width) - 1)
        if c:
            counts[dim] = c
        packed >>= width
        dim += 1
    return FVector(counts=counts)
