"""Hypothesis strategies and brute-force scans shared by the test modules."""

import itertools

from hypothesis import strategies as st

from poolregions.faces import FaceSelection
from poolregions.model import WindowFamily


@st.composite
def families(draw, max_d=7, max_windows=4):
    """Families of 1..max_windows windows on d <= max_d coordinates, gaps allowed."""
    d = draw(st.integers(1, max_d))
    window = st.frozensets(st.integers(0, d - 1), min_size=1, max_size=d)
    return WindowFamily(d, tuple(draw(st.lists(window, min_size=1, max_size=max_windows))))


def all_selections(family):
    """Every choice list of the family: one nonempty subset per window, faces or not."""
    pools = []
    for w in family.windows:
        elems = sorted(w)
        pools.append(
            [frozenset(c) for r in range(1, len(elems) + 1) for c in itertools.combinations(elems, r)]
        )
    for combo in itertools.product(*pools):
        yield FaceSelection(family, combo)
