import ast
import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from poolregions import frontier, oracle, seq2d
from poolregions.errors import BudgetExceededError, InvalidParamsError, TieDetectedError
from poolregions.faces import build_selection_graph, is_face, selection_from_word
from poolregions.model import WindowFamily, windows_1d, windows_3xn
from strategies import all_selections, families


def reference_fvector(family):
    """Slow route: scan every choice list and classify with the graph builder."""
    counts = {}
    for sel in all_selections(family):
        g = build_selection_graph(sel)
        if g.acyclic:
            dim = family.ambient_size - len(g.classes)
            counts[dim] = counts.get(dim, 0) + 1
    return counts


def reference_vertices(family):
    words = []
    for word in itertools.product(*[sorted(w) for w in family.windows]):
        if is_face(selection_from_word(family, word)):
            words.append(word)
    return words


SMALL_FAMILIES = [
    windows_1d(1, 3, 1),
    windows_1d(2, 3, 1),
    windows_1d(3, 3, 1),
    windows_1d(2, 4, 2),
    windows_1d(3, 2, 1),
    windows_1d(2, 2, 2),
    windows_1d(2, 2, 3),  # gap coordinate
    windows_1d(2, 5, 3),
    windows_3xn(2),
    WindowFamily(5, (frozenset({0, 1, 2}), frozenset({2, 3}), frozenset({3, 4, 0}))),
]


@pytest.mark.parametrize("family", SMALL_FAMILIES, ids=range(len(SMALL_FAMILIES)))
def test_enumerate_faces_matches_reference(family):
    reference = reference_fvector(family)
    assert oracle.enumerate_faces(family).counts == reference
    # the walk and the DP rest on the same lemma; the reference scan on none
    assert frontier.fvector(family).counts == reference


@pytest.mark.parametrize("family", SMALL_FAMILIES, ids=range(len(SMALL_FAMILIES)))
def test_enumerate_vertices_matches_reference(family):
    assert oracle.enumerate_vertices(family) == reference_vertices(family)


@pytest.mark.parametrize("family", SMALL_FAMILIES, ids=range(len(SMALL_FAMILIES)))
def test_count_vertices_matches_reference(family):
    assert oracle.count_vertices(family) == len(reference_vertices(family))


@st.composite
def families_with_merged_last_window(draw):
    # the last window holds an earlier window whole, so a choice of two or
    # more of that window's coordinates puts them in one group of the last
    family = draw(families(8, 4))
    earlier = draw(st.sampled_from(family.windows))
    extra = draw(st.frozensets(st.integers(0, family.ambient_size - 1)))
    return WindowFamily(family.ambient_size, family.windows + (earlier | extra,))


@settings(max_examples=60, deadline=None)
@given(families())
@example(WindowFamily(5, (frozenset({0, 1, 2}), frozenset({2, 3}), frozenset({3, 4, 0}))))
def test_vertex_walk_matches_reference_on_random_families(family):
    want = reference_vertices(family)
    assert oracle.enumerate_vertices(family) == want
    assert oracle.count_vertices(family) == len(want)


# count_vertices's split walk, forced on for any family and machine: every
# walk splits, over three workers, so two children are forked
SPLIT_FAMILY = windows_1d(6, 3, 1)
OS_WRITE = os.write


@pytest.fixture
def split(monkeypatch):
    monkeypatch.setattr(oracle, "_SPLIT_PRODUCT", 1)
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 3)
    yield
    with pytest.raises(ChildProcessError):  # no child is left behind
        os.waitpid(-1, os.WNOHANG)


def walks_in_this_process(monkeypatch):
    """The shares walked in this process; a child's walks land in its own copy."""
    walked = []
    share_count = oracle._share_count
    monkeypatch.setattr(oracle, "_share_count",
                        lambda family, share: walked.append(share) or share_count(family, share))
    return walked


@pytest.mark.filterwarnings("error::DeprecationWarning")
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(families(7, 6))
@example(SPLIT_FAMILY)
def test_split_count_matches_the_walk_on_random_families(split, family):
    assert oracle.count_vertices(family) == len(oracle.enumerate_vertices(family))


@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_split_children_walk_their_shares(split, monkeypatch):
    walked = walks_in_this_process(monkeypatch)
    assert oracle.count_vertices(SPLIT_FAMILY) == len(oracle.enumerate_vertices(SPLIT_FAMILY))
    # depth 3 is the first with 4 * 3 prefixes: 16 of them, six in share 0
    assert [len(share) for share in walked] == [6]


def failing_write(fd, data):
    raise OSError("write failed")


def short_write(fd, data):
    return OS_WRITE(fd, data[:-1])


@pytest.mark.filterwarnings("error::DeprecationWarning")
@pytest.mark.parametrize("write", [failing_write, short_write])
def test_split_walks_a_share_itself_when_its_child_fails(split, monkeypatch, write):
    walked = walks_in_this_process(monkeypatch)
    monkeypatch.setattr(os, "write", write)
    assert oracle.count_vertices(SPLIT_FAMILY) == len(oracle.enumerate_vertices(SPLIT_FAMILY))
    assert sorted(map(len, walked)) == [5, 5, 6]


@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_split_walks_a_share_itself_when_its_fork_fails(split, monkeypatch):
    walked = walks_in_this_process(monkeypatch)
    forks = []

    def failing_fork():
        forks.append(1)
        raise OSError("fork failed")

    monkeypatch.setattr(os, "fork", failing_fork)
    assert oracle.count_vertices(SPLIT_FAMILY) == len(oracle.enumerate_vertices(SPLIT_FAMILY))
    assert (len(forks), sorted(map(len, walked))) == (2, [5, 5, 6])


@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_interrupted_split_kills_its_children(split, monkeypatch):
    parent = os.getpid()

    def share_count(family, share):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        return 0

    monkeypatch.setattr(oracle, "_share_count", share_count)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        oracle.count_vertices(SPLIT_FAMILY)
    assert time.monotonic() - started < 30


@pytest.mark.parametrize("case", ["one CPU", "no fork", "below the split product", "a second thread"])
def test_split_stays_serial(split, monkeypatch, case):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    if case == "one CPU":
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 1)
    elif case == "no fork":
        monkeypatch.delattr(os, "fork")
    elif case == "below the split product":
        monkeypatch.setattr(oracle, "_SPLIT_PRODUCT", 3**6 + 1)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if case == "a second thread":
        thread.start()
    try:
        assert oracle.count_vertices(SPLIT_FAMILY) == len(oracle.enumerate_vertices(SPLIT_FAMILY))
    finally:
        stop.set()
        if thread.ident is not None:
            thread.join(timeout=10)
            assert not thread.is_alive()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_cli_oracle_vertex_count_is_the_same_on_one_cpu():
    # 3^12 = 531,441 candidates: split unless the process may use one CPU only.
    # "start" waits in the stdout buffer while the children run; a child
    # that flushed it on leaving would print it twice
    argv = ["vertices", "--k", "3", "--s", "1", "--n", "12", "--method", "oracle"]
    one_cpu = {min(os.sched_getaffinity(0))}
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oracle.__file__)))
    outputs = []
    for pin in ("", f"os.sched_setaffinity(0, {one_cpu})\n"):
        script = (f"import os, sys\n{pin}from poolregions import cli\nprint('start')\n"
                  f"sys.exit(cli.main({argv!r}))")
        proc = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-c", script],
                              env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    start, line = outputs[0].splitlines()
    assert (start, json.loads(line)["result"]) == ("start", "23427")


@settings(max_examples=100, deadline=None)
@given(st.one_of(families(8, 5), families_with_merged_last_window()))
@example(WindowFamily(4, (frozenset({0, 1}), frozenset({0, 1, 2, 3}))))
@example(WindowFamily(4, (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 1, 2, 3}))))
def test_face_walk_matches_frontier_dp_on_random_families(family):
    # 255^5 candidate choice lists at most, far more than the walk visits
    assert oracle.enumerate_faces(family, budget=10**13) == frontier.fvector(family)


def test_face_walk_3x4():
    fv = oracle.enumerate_faces(windows_3xn(4))
    assert fv.total() == 258529
    assert fv.counts[0] == 1536
    assert (fv.polytope_dim, fv.facet_count()) == (11, 40)


def test_walks_stop_at_their_window_bound():
    # both walks recurse once per window; one window of one coordinate each
    # makes a single vertex, the polytope's only face
    at_bound = windows_1d(oracle.MAX_WINDOWS, 1, 1)
    assert oracle.count_vertices(at_bound) == 1
    assert oracle.enumerate_faces(at_bound).total() == 1
    for n in (oracle.MAX_WINDOWS + 1, 2000):
        for walk in (oracle.count_vertices, oracle.enumerate_vertices, oracle.enumerate_faces):
            with pytest.raises(BudgetExceededError, match="windows exceed"):
                walk(windows_1d(n, 1, 1))


@pytest.mark.parametrize("family", SMALL_FAMILIES, ids=range(len(SMALL_FAMILIES)))
def test_dimension_zero_count_equals_vertex_count(family):
    fv = oracle.enumerate_faces(family)
    assert fv.counts[0] == len(oracle.enumerate_vertices(family))


def test_vertices_golden_counts():
    assert len(oracle.enumerate_vertices(windows_1d(1, 3, 1))) == 3
    assert len(oracle.enumerate_vertices(windows_1d(2, 3, 1))) == 7
    assert len(oracle.enumerate_vertices(windows_3xn(2))) == 14


def test_vertices_lexicographic_order():
    words = oracle.enumerate_vertices(windows_1d(3, 3, 1))
    assert words == sorted(words)
    assert len(words) == 16


def test_fvector_golden():
    fv = oracle.enumerate_faces(windows_1d(2, 3, 1))
    assert fv.counts == {0: 7, 1: 11, 2: 6, 3: 1}
    assert fv.polytope_dim == 3
    triangle = oracle.enumerate_faces(windows_1d(1, 3, 1))
    assert triangle.counts == {0: 3, 1: 3, 2: 1}
    fv3 = oracle.enumerate_faces(windows_1d(3, 3, 1))
    assert fv3.counts[0] == 16 and fv3.counts[1] == 34


def test_total_face_count_golden():
    # faces including the empty one
    assert oracle.enumerate_faces(windows_1d(1, 3, 1)).total() + 1 == 8
    assert oracle.enumerate_faces(windows_1d(2, 3, 1)).total() + 1 == 26
    assert oracle.enumerate_faces(windows_1d(2, 4, 1)).total() + 1 == 58


def test_facet_count_golden():
    assert oracle.enumerate_faces(windows_1d(2, 3, 1)).facet_count() == 6
    assert oracle.enumerate_faces(windows_3xn(2)).facet_count() == 8
    assert oracle.enumerate_faces(windows_3xn(3)).facet_count() == 21


def test_benchmark_named_facet_counts():
    # the two counts agree exactly when the polytope has dimension d - 1
    assert oracle.facet_count_oracle(windows_3xn(3)) == 21
    assert oracle.facet_count_two_classes(windows_3xn(3)) == 21
    # a square in R^4: four edges, and the square itself is the one two-class face
    assert oracle.facet_count_oracle(windows_1d(2, 2, 2)) == 4
    assert oracle.facet_count_two_classes(windows_1d(2, 2, 2)) == 1


def test_product_family_top_dimension():
    # disjoint windows: polytope is a product, top dimension drops
    fam = windows_1d(2, 2, 2)
    fv = oracle.enumerate_faces(fam)
    assert fv.polytope_dim == 2
    assert fv.counts[2] == 1


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        oracle.enumerate_vertices(windows_1d(20, 6, 1), budget=10**6)
    with pytest.raises(BudgetExceededError):
        oracle.count_vertices(windows_1d(20, 6, 1), budget=10**6)
    with pytest.raises(BudgetExceededError):
        oracle.enumerate_faces(windows_3xn(5))  # 15^8 over the default budget


@pytest.mark.parametrize("count", [
    lambda b: oracle.enumerate_vertices(windows_1d(2, 3, 1), b),
    lambda b: oracle.count_vertices(windows_1d(2, 3, 1), b),
    lambda b: oracle.enumerate_faces(windows_1d(2, 3, 1), b),
    lambda b: seq2d.class_counts(2, b),
])
def test_budgeted_counts_reject_a_budget_below_one(count):
    with pytest.raises(InvalidParamsError, match=r"^budget must be >= 1, got 0$"):
        count(0)


def test_budget_precondition_has_one_home():
    src = os.path.dirname(oracle.__file__)
    homes = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as f:
            tree = ast.parse(f.read())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(c, ast.Constant) and "budget must be >= 1" in str(c.value)
                for c in ast.walk(fn)
            ):
                homes.append(f"{name[:-3]}.{fn.name}")
    assert homes == ["oracle.check_budget"]


def test_region_pattern():
    fam = windows_1d(2, 3, 1)
    assert oracle.region_pattern(fam, (5, 1, 2, 0)) == (0, 2)
    with pytest.raises(TieDetectedError):
        oracle.region_pattern(fam, (1, 1, 0, 0))


def test_region_pattern_decreasing_input():
    fam = windows_3xn(2)
    x = [1.0 - 0.1 * i for i in range(6)]
    word = oracle.region_pattern(fam, x)
    assert word == (0, 2)
    assert is_face(selection_from_word(fam, word))


def test_region_patterns_are_faces():
    fam = windows_1d(3, 3, 1)
    distinct, all_faces = oracle.sample_regions(fam, 3000, seed=5)
    assert all_faces
    assert distinct <= len(oracle.enumerate_vertices(fam))


def test_sample_regions_converges_1d():
    distinct, all_faces = oracle.sample_regions(windows_1d(2, 3, 1), 20000, seed=0)
    assert (distinct, all_faces) == (7, True)
    distinct, _ = oracle.sample_regions(windows_1d(1, 2, 1), 1000, seed=1)
    assert distinct == 2


def test_sample_regions_redraws_ties(monkeypatch):
    # every other draw is declared tied; each trial must redraw once and the
    # sample must still reach every region
    calls = []
    real = oracle.region_pattern

    def tie_every_other_draw(family, x):
        calls.append(len(x))
        if len(calls) % 2:
            raise TieDetectedError("forced redraw")
        return real(family, x)

    monkeypatch.setattr(oracle, "region_pattern", tie_every_other_draw)
    assert oracle.sample_regions(windows_3xn(2), 3000, 1) == (14, True)
    assert calls == [6] * 6000


def test_sample_regions_ignores_global_random_state():
    fam = windows_1d(3, 3, 1)
    results = []
    for global_seed in (0, 1):
        random.seed(global_seed)
        before = random.getstate()
        results.append(oracle.sample_regions(fam, 200, seed=3))
        assert random.getstate() == before
    assert results[0] == results[1]


def test_sample_regions_deterministic():
    a = oracle.sample_regions(windows_1d(3, 3, 1), 500, seed=123)
    b = oracle.sample_regions(windows_1d(3, 3, 1), 500, seed=123)
    assert a == b


def test_vertex_count_never_exceeded_by_sampling():
    for fam in (windows_1d(2, 3, 1), windows_1d(2, 4, 2), windows_3xn(2)):
        n_vertices = len(oracle.enumerate_vertices(fam))
        distinct, _ = oracle.sample_regions(fam, 2000, seed=9)
        assert distinct <= n_vertices


def test_face_walk_order_independent():
    # the window order must never change the tallies
    fam = windows_3xn(3)

    def tally(order):
        permuted = WindowFamily(fam.ambient_size, tuple(fam.windows[i] for i in order))
        return oracle.enumerate_faces(permuted)

    base = tally([0, 1, 2, 3])
    assert base == tally([3, 2, 1, 0])
    assert base == tally([0, 2, 1, 3])


def test_fvector_top_entry():
    # whenever windows chain-overlap the polytope has full dimension d-1
    for n, k, s in [(2, 3, 1), (3, 4, 2), (2, 2, 1), (4, 3, 2)]:
        fam = windows_1d(n, k, s)
        fv = oracle.enumerate_faces(fam)
        assert fv.polytope_dim == fam.ambient_size - 1
        assert fv.counts[fv.polytope_dim] == 1
