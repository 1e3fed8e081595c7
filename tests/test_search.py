import itertools
import random
import re
import shutil
import subprocess
import time
import types
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_search
from conftest import all_b_orderings, connected_graphs
from reference_search import (
    SearchState,
    bw_dfs,
    compiled_dfs,
    consistency_witness,
    decode_state,
    edge_filter,
    encode_state,
    extend,
    extend_candidates,
    hi,
    unpruned_dfs,
)

from bwexact.assignments import enumerate_assignments
from bwexact.geometry import num_base_segments
from bwexact import search, solve
from bwexact.graph import Graph, generate, ordering_bandwidth, spanning_tree
from bwexact.solve import Budget, decide, minimize_bandwidth
from bwexact.search import (
    C_KERNEL_MAX_N,
    DEFAULT_MAX_STATES,
    NO,
    UNKNOWN,
    YES,
    SearchStats,
    WitnessError,
    dfs_decide,
    per_run_state_ceiling,
)


def p2_assignment():
    g = Graph(2, [(0, 1)])
    tree = spanning_tree(g, 0)
    return g, tree, (0, -1)


class TestExtendCandidates:
    def test_p2_empty_state(self):
        g, tree, lo = p2_assignment()
        s = SearchState.empty(2)
        assert extend_candidates(s, lo, tree, g, 0) == [0, 1]

    def test_defined_neighbor_too_far(self):
        # A neighbor pinned two base segments back excludes the vertex.
        g = generate("path", 3)
        tree = spanning_tree(g, 0)
        lo = (0, 1, 0)
        s = extend(SearchState.empty(3), 0, 0)
        assert 1 not in extend_candidates(s, lo, tree, g, 2)

    def test_undefined_neighbor_segment_start(self):
        # Condition on undefined neighbors: their segment must start at
        # or before the base segment being filled.
        g = Graph(2, [(0, 1)])
        tree = spanning_tree(g, 0)
        lo = (1, 0)
        s = SearchState.empty(2)
        # Vertex 1 covers base segment 0, but its undefined neighbor's
        # segment starts at 1 > 0, so it is excluded too.
        assert lo[1] <= 0 < hi(lo, tree, 1)
        assert extend_candidates(s, lo, tree, g, 0) == []

    def test_segment_membership_required(self):
        g, tree, lo = p2_assignment()
        s = SearchState.empty(2)
        # Base segment 2 lies outside the root's segment (0, 2).
        assert 0 not in extend_candidates(s, lo, tree, g, 2)


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
        g, tree, lo = p2_assignment()
        assert encode_state(SearchState.empty(2), lo) == 0

    def test_roundtrip_random_candidates(self):
        rng = random.Random(0)
        g = generate("random_tree", 8, seed=1)
        tree = spanning_tree(g, 0)
        lo = next(enumerate_assignments(Graph(8, []), tree, 2))
        for _ in range(200):
            assigned = tuple(
                rng.choice([None] + list(range(lo[v], hi(lo, tree, v))))
                for v in range(8)
            )
            s = SearchState(assigned)
            assert decode_state(encode_state(s, lo), lo) == s

    def test_injective_on_single_difference(self):
        g, tree, lo = p2_assignment()
        a = extend(SearchState.empty(2), 0, 0)
        b = extend(SearchState.empty(2), 0, 1)
        assert encode_state(a, lo) != encode_state(b, lo)


class TestDfsDecide:
    def test_p2_finds_ordering(self):
        g = Graph(2, [(0, 1)])
        tree = spanning_tree(g, 0)
        for lo in enumerate_assignments(Graph(2, []), tree, 1):
            status, pos, stats = dfs_decide(g, 1, tree, lo)
            assert status == YES
            assert ordering_bandwidth(g, pos) == 1

    def test_k3_b1_always_no(self):
        g = generate("complete", 3)
        tree = spanning_tree(g, 0)
        for lo in enumerate_assignments(Graph(3, []), tree, 1):
            if not edge_filter(lo, tree, g):
                continue
            status, pos, _ = dfs_decide(g, 1, tree, lo)
            assert status == NO and pos is None

    def test_budget_exhaustion_is_unknown(self):
        # The star K(1,7) has bandwidth 4; proving "no" at b=3 for its
        # first assignment takes hundreds of states.
        g = generate("star", 7)
        tree = spanning_tree(g, 0)
        lo = next(enumerate_assignments(g, tree, 3))
        assert dfs_decide(g, 3, tree, lo)[2].states_visited > 2
        status, pos, stats = dfs_decide(g, 3, tree, lo, max_states=2)
        assert status == UNKNOWN and pos is None
        assert stats.result == UNKNOWN

    @pytest.mark.parametrize("seed", range(6))
    def test_per_run_state_bound(self, seed):
        g = generate("random_gnp", 8, 0.35, seed=seed)
        tree = spanning_tree(g, 0)
        ceiling = per_run_state_ceiling(8, tree.leaf_count)
        for b in (1, 2, 3):
            for lo in enumerate_assignments(g, tree, b):
                _, _, stats = dfs_decide(g, b, tree, lo)
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
            for lo in enumerate_assignments(g, tree, b):
                status, pos, _ = dfs_decide(g, b, tree, lo)
                expected = any(consistency_witness(lo, tree, b, o) for o in orderings)
                assert status == (YES if expected else NO)
                if status == YES:
                    assert ordering_bandwidth(g, pos) <= b
                    assert consistency_witness(lo, tree, b, pos)

    def test_one_plan_per_decide(self, monkeypatch):
        # Plans serve the loop over enumerate_assignments, which a serial
        # decide takes when the compiled walk is not there.
        monkeypatch.setattr(solve, "c_decide", lambda *args, **kwargs: None)
        built = []

        class CountingPlan(search.SearchPlan):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(search, "SearchPlan", CountingPlan)
        res = decide(generate("random_gnp", 10, 0.4, seed=2), 3)
        assert res.stats.runs > 1
        assert len(built) == 1

    def test_interleaved_trees_get_their_own_plan(self):
        # Runs over two spanning trees of one graph, in mixed order: each
        # must search its own tree's segments.
        g = generate("random_gnp", 8, 0.4, seed=4)
        runs = [
            (tree, lo)
            for tree in (spanning_tree(g, 0), spanning_tree(g, 5))
            for lo in itertools.islice(enumerate_assignments(g, tree, 3), 20)
        ]
        random.Random(0).shuffle(runs)
        for tree, lo in runs:
            found, want_pos, _ = unpruned_dfs(g, 3, tree, lo)
            status, pos, _ = dfs_decide(g, 3, tree, lo)
            assert (status, pos) == (YES if found else NO, want_pos), lo

    def test_depth_equals_n_on_success(self):
        g = generate("cycle", 6)
        tree = spanning_tree(g, 0)
        for lo in enumerate_assignments(g, tree, 2):
            status, _, stats = dfs_decide(g, 2, tree, lo)
            if status == YES:
                assert stats.depth_max == 6
                return
        pytest.fail("no accepted assignment succeeded on C6 at b=2")


def outcome(out):
    status, pos, stats = out
    return status, pos, stats.states_visited, stats.depth_max


def python_kernel(g, b, tree, lo, **kw):
    """One run of the Python loop."""
    return dfs_decide(g, b, tree, lo, **kw)


def c_kernel(g, b, tree, lo, **kw):
    """One run of the compiled kernel's bw_dfs."""
    return compiled_dfs(g, b, tree, lo, **kw)


def assert_kernels_agree(g, b, limit=None, **kw):
    """Both kernels give the same outcome on every accepted assignment
    (the first `limit` ones if given); returns how many were compared."""
    tree = spanning_tree(g, 0)
    stream = enumerate_assignments(g, tree, b)
    compared = 0
    for lo in itertools.islice(stream, limit):
        c = outcome(c_kernel(g, b, tree, lo, **kw))
        p = outcome(python_kernel(g, b, tree, lo, **kw))
        assert c == p, (g, b, lo)
        compared += 1
    return compared


def assert_matches_reference(g, b, limit=None):
    """Both kernels give the unpruned reference's status and witness on
    every accepted assignment (the first `limit` ones if given), in no
    more states; returns how many were compared."""
    tree = spanning_tree(g, 0)
    stream = enumerate_assignments(g, tree, b)
    compared = 0
    for lo in itertools.islice(stream, limit):
        found, want_pos, want_states = unpruned_dfs(g, b, tree, lo)
        for kernel in (c_kernel, python_kernel):
            status, pos, stats = kernel(g, b, tree, lo)
            assert (status, pos) == (YES if found else NO, want_pos), (g, b, lo)
            assert stats.states_visited <= want_states, (g, b, lo)
        compared += 1
    return compared


def acceptance_corpus():
    """The graphs of acceptance criterion 1: all connected graphs with
    n <= 5 and 200 seeded G(n, 0.4), n in 6..8."""
    graphs = [g for n in range(2, 6) for g in connected_graphs(n)]
    return graphs + [generate("random_gnp", 6 + i % 3, 0.4, seed=10_000 + i) for i in range(200)]


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
        # Every b, every accepted assignment.
        graphs = acceptance_corpus()
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
            lo = next(enumerate_assignments(g, tree, b))
            c = outcome(c_kernel(g, b, tree, lo, max_states=max_states))
            assert c == outcome(python_kernel(g, b, tree, lo, max_states=max_states))
            full = c_kernel(g, b, tree, lo)[2].states_visited
            # The root is always counted, so a cap of 0 acts as 1.
            if full > max(max_states, 1):
                assert c[0] == UNKNOWN and c[2] == max(max_states, 1)

    def test_state_cap_over_corpus(self):
        for seed in range(4):
            g = generate("random_gnp", 9, 0.4, seed=seed)
            for b in (2, 3, 4):
                assert_kernels_agree(g, b, limit=30, max_states=50)

    def test_past_deadline_is_unknown(self):
        g = generate("cycle", 8)
        tree = spanning_tree(g, 0)
        lo = next(enumerate_assignments(g, tree, 2))
        past = time.monotonic() - 1.0
        c = outcome(c_kernel(g, 2, tree, lo, deadline=past))
        assert c == (UNKNOWN, None, 1, 0)
        assert c == outcome(python_kernel(g, 2, tree, lo, deadline=past))

    def test_future_deadline_changes_nothing(self):
        g = generate("random_gnp", 9, 0.4, seed=1)
        assert_kernels_agree(g, 3, limit=30, deadline=time.monotonic() + 600)


def loop_decide(g, b, budget=None):
    """decide without the compiled walk: the loop over
    enumerate_assignments, each run on the compiled kernel."""
    with mock.patch.object(solve, "c_decide", lambda *args, **kwargs: None), \
            mock.patch.object(solve, "dfs_decide", compiled_dfs):
        return decide(g, b, budget)


def assert_walk_matches_loop(g, b, budget=None):
    """The compiled walk gives the loop's answer, witness and counters;
    returns its result."""
    assert search.c_decide(g, b, spanning_tree(g, 0), max_states=1) is not None
    walk, loop = decide(g, b, budget), loop_decide(g, b, budget)
    assert (walk.status, walk.ordering) == (loop.status, loop.ordering), (g, b)
    assert walk.stats.to_dict() == loop.stats.to_dict(), (g, b)
    return walk


@pytest.mark.usefixtures("compiled_kernel")
class TestCompiledWalk:
    def test_acceptance_corpus(self):
        statuses = {assert_walk_matches_loop(g, b).status for g in acceptance_corpus() for b in range(1, g.n)}
        assert statuses == {YES, NO}

    @pytest.mark.parametrize("g, b, budget, status, runs", [
        (generate("path", 16), 1, None, YES, 1_684),
        (generate("cycle", 17), 1, None, NO, 73_664),
        (generate("random_tree", 20), 2, None, NO, 28_280),
        (generate("random_gnp", 18, 0.2), 3, Budget(max_states=5), UNKNOWN, 1_584),
    ], ids=["path16", "cycle17", "random_tree20", "gnp18-capped"])
    def test_long_streams(self, g, b, budget, status, runs):
        res = assert_walk_matches_loop(g, b, budget)
        assert (res.status, res.stats.runs, res.stats.kernel) == (status, runs, "c")

    def test_root_parts_match_python_loop(self):
        # Each part of the stream, lo[root] = c, on its own: the compiled
        # walk equals the Python loop over the same part, and the parts
        # folded in order equal the walk over the whole stream.
        parts = 0
        for g in acceptance_corpus():
            tree = spanning_tree(g, 0)
            for b in range(1, g.n):
                roots = range(-1, num_base_segments(g.n, b))
                compiled = [search.c_decide(g, b, tree, roots=range(c, c + 1)) for c in roots]
                with mock.patch.object(solve, "c_decide", lambda *args, **kwargs: None):
                    loop = [solve.walk(g, b, tree, range(c, c + 1), DEFAULT_MAX_STATES, None) for c in roots]
                assert compiled == loop, (g, b)
                assert solve._combine(compiled, None) == search.c_decide(g, b, tree), (g, b)
                parts += len(roots)
        assert parts == 12_925

    @pytest.mark.parametrize("b", [-1, 0, 5])
    def test_rejects_b_outside_1_to_n(self, b):
        # The walk divides by b + 1 and steps positions by it.
        g = generate("path", 5)
        with pytest.raises(ValueError):
            search.c_decide(g, b, spanning_tree(g, 0))


@pytest.mark.usefixtures("compiled_kernel")
class TestUnprunedReference:
    """The feasibility prune drops only states with no completion, so
    answers and witnesses are those of the search without it."""

    def test_acceptance_corpus(self):
        graphs = acceptance_corpus()
        compared = sum(assert_matches_reference(g, b) for g in graphs for b in range(1, g.n))
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
        assert_matches_reference(g, b, limit=40)


class TestHallWindows:
    def test_window_of_three_segments(self):
        # Four unassigned vertices, each with A(w) = {0, 1, 2}, and one
        # step left in each segment: no vertex is held to one segment or
        # to two adjacent ones, but the window [0, 2] has 3 steps for 4.
        ok = [0b1111] * 3
        assert search._hall_child(ok, 0b1111, 0, 0, [1, 1, 1, 0]) is None
        assert search._hall_child(ok, 0b0111, 0, 0, [1, 1, 1, 0]) == ok

    def test_empty_admissible_set(self):
        # Vertex 1 may only take segment 1, which has no step left.
        assert search._hall_child([0b01, 0b10], 0b11, 0, 0, [2, 0, 0]) is None

    def test_caterpillar_states(self):
        # Single-segment and adjacent-pair counts alone leave 337,363 states.
        res = minimize_bandwidth(generate("caterpillar", 12, 8, seed=0))
        assert res.bandwidth == 3
        assert res.stats["states_total"] <= 1_000


class TestKernelSource:
    def test_compiles_without_warnings(self, tmp_path):
        cc = shutil.which("cc") or shutil.which("gcc")
        if cc is None:
            pytest.skip("no C compiler")
        lib = tmp_path / "_kernel.so"
        flags = ["-O2", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC"]
        proc = subprocess.run(
            [cc, *flags, "-o", str(lib), search._KERNEL_SOURCE],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert lib.exists()

    @pytest.mark.usefixtures("compiled_kernel")
    @pytest.mark.parametrize("name", ["bw_decide", "bw_dfs"])
    def test_argtypes_match_source(self, name):
        # ctypes passes whatever it is told: with too few or too many
        # argument types, the C function reads garbage silently.
        with open(search._KERNEL_SOURCE, encoding="utf-8") as fh:
            (params,) = re.findall(rf"^int {name}\(([^)]*)\)", fh.read(), re.M)
        fn = search._c_kernel().bw_decide if name == "bw_decide" else bw_dfs()
        assert len(fn.argtypes) == len(params.split(","))

    def test_maxn_matches_python_gate(self):
        # The kernel's per-vertex arrays hold MAXN entries, and Python
        # sends it graphs with up to C_KERNEL_MAX_N vertices.
        with open(search._KERNEL_SOURCE, encoding="utf-8") as fh:
            (maxn,) = re.findall(r"^#define MAXN (\d+)$", fh.read(), re.M)
        assert int(maxn) == C_KERNEL_MAX_N


class TestKernelFallback:
    def test_above_max_n_runs_python(self):
        n = C_KERNEL_MAX_N + 1
        g = generate("path", n)
        tree = spanning_tree(g, 0)
        lo = next(enumerate_assignments(g, tree, 1))
        status, pos, stats = dfs_decide(g, 1, tree, lo)
        assert search.c_decide(g, 1, tree) is None
        assert status in (YES, NO)
        if status == YES:
            assert ordering_bandwidth(g, pos) <= 1

    @pytest.mark.usefixtures("compiled_kernel")
    def test_build_failure_gives_same_results(self, tmp_path, monkeypatch, fresh_loader):
        g = generate("random_gnp", 8, 0.4, seed=5)
        tree = spanning_tree(g, 0)
        stream = list(enumerate_assignments(g, tree, 3))
        want = [outcome(c_kernel(g, 3, tree, lo)) for lo in stream]
        want_decide = decide(g, 3)
        source = tmp_path / "_kernel.c"
        shutil.copy(search._KERNEL_SOURCE, source)
        monkeypatch.setattr(search, "_KERNEL_SOURCE", str(source))
        monkeypatch.setattr(search, "_compile_kernel", lambda src, lib: False)
        search._c_kernel.cache_clear()
        assert search._c_kernel() is None
        assert search.c_decide(g, 3, tree) is None
        assert [outcome(python_kernel(g, 3, tree, lo)) for lo in stream] == want
        got = decide(g, 3)
        assert (got.stats.kernel, want_decide.stats.kernel) == ("python", "c")
        assert (got.status, got.ordering) == (want_decide.status, want_decide.ordering)
        assert {**got.stats.to_dict(), "kernel": "c"} == want_decide.stats.to_dict()

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
        lo = next(enumerate_assignments(g, tree, 1))
        module, run = (reference_search, compiled_dfs) if kernel == "_dfs_c" else (search, dfs_decide)
        monkeypatch.setattr(module, kernel, lambda *a: (YES, [0, 1, 2, 3], SearchStats()))
        with pytest.raises(WitnessError):
            run(g, 1, tree, lo)

    def test_bad_witness_from_compiled_walk_raises(self, monkeypatch):
        # The walk says yes with vertices 0 and 1 of the path two apart.
        def bad_decide(n, b, adj, order, parent, root_lo, root_hi, max_states, deadline, pos, out):
            pos[:] = [1, 3, 2, 4]
            out[0] = 1
            return 1

        monkeypatch.setattr(search, "_c_kernel", lambda: types.SimpleNamespace(bw_decide=bad_decide))
        with pytest.raises(WitnessError):
            decide(generate("path", 4), 1)
