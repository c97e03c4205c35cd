"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from poolregions.model import WindowFamily


@st.composite
def families(draw, max_d=7, max_windows=4):
    """Families of 1..max_windows windows on d <= max_d coordinates, gaps allowed."""
    d = draw(st.integers(1, max_d))
    window = st.frozensets(st.integers(0, d - 1), min_size=1, max_size=d)
    return WindowFamily(d, tuple(draw(st.lists(window, min_size=1, max_size=max_windows))))
