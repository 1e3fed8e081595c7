import itertools
import random
import shutil
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_b_orderings, connected_graphs

from bwexact.assignments import (
    SegmentAssignment,
    consistency_witness,
    edge_filter,
    enumerate_assignments,
)
from bwexact import search
from bwexact.geometry import color_order
from bwexact.graph import Graph, generate, ordering_bandwidth, spanning_tree
from bwexact.search import (
    C_KERNEL_MAX_N,
    NO,
    UNKNOWN,
    YES,
    SearchState,
    SearchStats,
    WitnessError,
    decode_state,
    dfs_decide,
    encode_state,
    extend,
    extend_candidates,
    per_run_state_ceiling,
)


def p2_assignment():
    g = Graph(2, [(0, 1)])
    tree = spanning_tree(g, 0)
    phi = SegmentAssignment((0, -1), 1, tree)
    return g, phi


class TestExtendCandidates:
    def test_p2_empty_state(self):
        g, phi = p2_assignment()
        s = SearchState.empty(2)
        assert extend_candidates(s, phi, g, 0) == [0, 1]

    def test_defined_neighbor_too_far(self):
        # A neighbor pinned two base segments back excludes the vertex.
        g = generate("path", 3)
        tree = spanning_tree(g, 0)
        phi = SegmentAssignment((0, 1, 0), 1, tree)
        s = extend(SearchState.empty(3), 0, 0)
        assert 1 not in extend_candidates(s, phi, g, 2)

    def test_undefined_neighbor_segment_start(self):
        # Condition on undefined neighbors: their segment must start at
        # or before the base segment being filled.
        g = Graph(2, [(0, 1)])
        tree = spanning_tree(g, 0)
        phi = SegmentAssignment((1, 0), 2, tree)
        s = SearchState.empty(2)
        # Vertex 1 covers base segment 0, but its undefined neighbor's
        # segment starts at 1 > 0, so it is excluded too.
        assert phi.lo[1] <= 0 < phi.hi(1)
        assert extend_candidates(s, phi, g, 0) == []

    def test_segment_membership_required(self):
        g, phi = p2_assignment()
        s = SearchState.empty(2)
        # Base segment 2 lies outside the root's segment (0, 2).
        assert 0 not in extend_candidates(s, phi, g, 2)


class TestExtend:
    def test_basic(self):
        s = extend(SearchState.empty(3), 0, 0)
        assert s.count == 1 and s.assigned[0] == 0

    def test_preserves_existing(self):
        s = extend(extend(SearchState.empty(3), 0, 0), 2, 1)
        assert s.assigned == (0, None, 1)

    def test_reextend_rejected(self):
        s = extend(SearchState.empty(2), 0, 0)
        with pytest.raises(AssertionError):
            extend(s, 0, 1)


class TestEncode:
    def test_empty_is_zero(self):
        g, phi = p2_assignment()
        assert encode_state(SearchState.empty(2), phi) == 0

    def test_roundtrip_random_candidates(self):
        rng = random.Random(0)
        g = generate("random_tree", 8, seed=1)
        tree = spanning_tree(g, 0)
        phi = next(enumerate_assignments(tree, 8, 2))
        for _ in range(200):
            assigned = tuple(
                rng.choice([None] + list(range(phi.lo[v], phi.hi(v))))
                for v in range(8)
            )
            s = SearchState(assigned)
            assert decode_state(encode_state(s, phi), phi) == s

    def test_injective_on_single_difference(self):
        g, phi = p2_assignment()
        a = extend(SearchState.empty(2), 0, 0)
        b = extend(SearchState.empty(2), 0, 1)
        assert encode_state(a, phi) != encode_state(b, phi)


class TestDfsDecide:
    def test_p2_finds_ordering(self):
        g = Graph(2, [(0, 1)])
        tree = spanning_tree(g, 0)
        for phi in enumerate_assignments(tree, 2, 1):
            status, pos, stats = dfs_decide(phi, g, 1)
            assert status == YES
            assert ordering_bandwidth(g, pos) == 1

    def test_k3_b1_always_no(self):
        g = generate("complete", 3)
        tree = spanning_tree(g, 0)
        for phi in enumerate_assignments(tree, 3, 1):
            if not edge_filter(phi, g):
                continue
            status, pos, _ = dfs_decide(phi, g, 1)
            assert status == NO and pos is None

    def test_budget_exhaustion_is_unknown(self):
        g = generate("complete", 5)
        tree = spanning_tree(g, 0)
        phi = next(enumerate_assignments(tree, 5, 3))
        status, pos, stats = dfs_decide(phi, g, 3, max_states=2)
        assert status == UNKNOWN and pos is None
        assert stats.result == UNKNOWN

    @pytest.mark.parametrize("seed", range(6))
    def test_per_run_state_bound(self, seed):
        g = generate("random_gnp", 8, 0.35, seed=seed)
        tree = spanning_tree(g, 0)
        ceiling = per_run_state_ceiling(8, tree.leaf_count)
        for b in (1, 2, 3):
            for phi in enumerate_assignments(tree, 8, b, graph=g):
                _, _, stats = dfs_decide(phi, g, b)
                assert stats.states_visited <= ceiling

    @pytest.mark.parametrize("seed", range(10))
    def test_completeness_per_assignment(self, seed):
        # For each accepted assignment, the search succeeds exactly when
        # some b-ordering consistent with it exists (checked against the
        # exhaustive ordering enumeration).
        n = 5
        g = generate("random_gnp", n, 0.5, seed=seed)
        tree = spanning_tree(g, 0)
        for b in (1, 2, 3):
            orderings = all_b_orderings(g, b)
            for phi in enumerate_assignments(tree, n, b, graph=g):
                status, pos, _ = dfs_decide(phi, g, b)
                expected = any(consistency_witness(phi, o) for o in orderings)
                assert status == (YES if expected else NO)
                if status == YES:
                    assert ordering_bandwidth(g, pos) <= b
                    assert consistency_witness(phi, pos)

    def test_depth_equals_n_on_success(self):
        g = generate("cycle", 6)
        tree = spanning_tree(g, 0)
        for phi in enumerate_assignments(tree, 6, 2, graph=g):
            status, _, stats = dfs_decide(phi, g, 2)
            if status == YES:
                assert stats.depth_max == 6
                return
        pytest.fail("no accepted assignment succeeded on C6 at b=2")


def outcome(out):
    status, pos, stats = out
    return status, pos, stats.states_visited, stats.depth_max


def python_kernel(phi, g, b, **kw):
    """dfs_decide with the compiled kernel unavailable."""
    with mock.patch.object(search, "_c_kernel", lambda: None):
        out = dfs_decide(phi, g, b, **kw)
    assert out[2].kernel == "python"
    return out


def c_kernel(phi, g, b, **kw):
    out = dfs_decide(phi, g, b, **kw)
    assert out[2].kernel == "c"
    return out


def assert_kernels_agree(g, b, limit=None, **kw):
    """Both kernels give the same outcome on every accepted assignment
    (the first `limit` ones if given); returns how many were compared."""
    tree = spanning_tree(g, 0)
    corder = color_order(g.n, b)
    stream = enumerate_assignments(tree, g.n, b, graph=g)
    compared = 0
    for phi in itertools.islice(stream, limit):
        c = outcome(c_kernel(phi, g, b, corder=corder, **kw))
        p = outcome(python_kernel(phi, g, b, corder=corder, **kw))
        assert c == p, (g, b, phi.lo)
        compared += 1
    return compared


@pytest.fixture(scope="module")
def compiled_kernel():
    """The kernel tests below need the compiled kernel; it must build
    wherever a C compiler exists."""
    if shutil.which("cc") is None and shutil.which("gcc") is None:
        pytest.skip("no C compiler")
    assert search._c_kernel() is not None, "compiled kernel failed to build or load"


@pytest.fixture
def fresh_loader():
    """Forget the loaded kernel before and after the test."""
    search._c_kernel.cache_clear()
    yield
    search._c_kernel.cache_clear()


@pytest.mark.usefixtures("compiled_kernel")
class TestKernelEquivalence:
    def test_acceptance_corpus(self):
        # The graphs of acceptance criterion 1: all connected graphs with
        # n <= 5 and 200 seeded G(n, 0.4), n in 6..8; every b, every
        # accepted assignment.
        graphs = [g for n in range(2, 6) for g in connected_graphs(n)]
        graphs += [generate("random_gnp", 6 + i % 3, 0.4, seed=10_000 + i) for i in range(200)]
        compared = sum(assert_kernels_agree(g, b) for g in graphs for b in range(1, g.n))
        assert compared > 10_000

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(2, 12),
        p=st.floats(0.3, 0.9),
        seed=st.integers(0, 10_000),
        data=st.data(),
    )
    def test_random_gnp(self, n, p, seed, data):
        g = generate("random_gnp", n, p, seed=seed)
        b = data.draw(st.integers(1, n - 1))
        assert_kernels_agree(g, b, limit=40)

    @pytest.mark.parametrize("max_states", [0, 1, 2, 7, 100, 1000])
    def test_state_cap(self, max_states):
        g = generate("random_gnp", 10, 0.35, seed=3)
        tree = spanning_tree(g, 0)
        for b in (2, 3):
            phi = next(enumerate_assignments(tree, g.n, b, graph=g))
            c = outcome(c_kernel(phi, g, b, max_states=max_states))
            assert c == outcome(python_kernel(phi, g, b, max_states=max_states))
            full = c_kernel(phi, g, b)[2].states_visited
            if full > max_states:
                assert c[0] == UNKNOWN and c[2] == max(max_states, 1)

    def test_state_cap_over_corpus(self):
        for seed in range(4):
            g = generate("random_gnp", 9, 0.4, seed=seed)
            for b in (2, 3, 4):
                assert_kernels_agree(g, b, limit=30, max_states=50)

    def test_past_deadline_is_unknown(self):
        g = generate("cycle", 8)
        tree = spanning_tree(g, 0)
        phi = next(enumerate_assignments(tree, 8, 2, graph=g))
        past = time.monotonic() - 1.0
        c = outcome(c_kernel(phi, g, 2, deadline=past))
        assert c == (UNKNOWN, None, 1, 0)
        assert c == outcome(python_kernel(phi, g, 2, deadline=past))

    def test_future_deadline_changes_nothing(self):
        g = generate("random_gnp", 9, 0.4, seed=1)
        assert_kernels_agree(g, 3, limit=30, deadline=time.monotonic() + 600)


class TestKernelFallback:
    def test_above_max_n_runs_python(self):
        n = C_KERNEL_MAX_N + 1
        g = generate("path", n)
        tree = spanning_tree(g, 0)
        phi = next(enumerate_assignments(tree, n, 1, graph=g))
        status, pos, stats = dfs_decide(phi, g, 1)
        assert stats.kernel == "python"
        assert status in (YES, NO)
        if status == YES:
            assert ordering_bandwidth(g, pos) <= 1

    @pytest.mark.usefixtures("compiled_kernel")
    def test_build_failure_gives_same_results(self, tmp_path, monkeypatch, fresh_loader):
        g = generate("random_gnp", 8, 0.4, seed=5)
        tree = spanning_tree(g, 0)
        phis = list(enumerate_assignments(tree, 8, 3, graph=g))
        want = [outcome(c_kernel(phi, g, 3)) for phi in phis]
        source = tmp_path / "_kernel.c"
        shutil.copy(search._KERNEL_SOURCE, source)
        monkeypatch.setattr(search, "_KERNEL_SOURCE", str(source))
        monkeypatch.setattr(search, "_compile_kernel", lambda src, lib: False)
        search._c_kernel.cache_clear()
        assert search._c_kernel() is None
        got = [dfs_decide(phi, g, 3) for phi in phis]
        assert all(out[2].kernel == "python" for out in got)
        assert [outcome(out) for out in got] == want

    def test_broken_source_falls_back(self, tmp_path, monkeypatch, fresh_loader):
        source = tmp_path / "_kernel.c"
        source.write_text("this is not C\n")
        monkeypatch.setattr(search, "_KERNEL_SOURCE", str(source))
        assert search._c_kernel() is None
        left = list((tmp_path / "__pycache__").iterdir())
        assert left == [], "a failed build must leave no file behind"

    @pytest.mark.usefixtures("compiled_kernel")
    def test_cached_library_is_not_rebuilt(self, tmp_path, monkeypatch, fresh_loader):
        source = tmp_path / "_kernel.c"
        shutil.copy(search._KERNEL_SOURCE, source)
        monkeypatch.setattr(search, "_KERNEL_SOURCE", str(source))
        assert search._c_kernel() is not None
        (lib,) = (tmp_path / "__pycache__").iterdir()
        assert lib.name.startswith("_kernel-") and lib.suffix == ".so"
        search._c_kernel.cache_clear()

        def no_build(src, out):
            raise AssertionError("cached library rebuilt")

        monkeypatch.setattr(search, "_compile_kernel", no_build)
        assert search._c_kernel() is not None


@pytest.mark.usefixtures("compiled_kernel")
class TestWitnessCheck:
    @pytest.mark.parametrize("kernel", ["_dfs_c", "_dfs_python"])
    def test_bad_witness_raises(self, kernel, monkeypatch):
        # In color order for n=4, b=1 this path puts vertices 0 and 1 at
        # positions 1 and 3, two apart on an edge.
        g = generate("path", 4)
        tree = spanning_tree(g, 0)
        phi = next(enumerate_assignments(tree, 4, 1, graph=g))
        monkeypatch.setattr(search, kernel, lambda *a: (YES, [0, 1, 2, 3], SearchStats()))
        if kernel == "_dfs_python":
            monkeypatch.setattr(search, "_c_kernel", lambda: None)
        with pytest.raises(WitnessError):
            dfs_decide(phi, g, 1)
