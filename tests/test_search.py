import ctypes
import hashlib
import itertools
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
import types
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_search
from conftest import all_b_orderings, connected_graphs, per_run_state_ceiling
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
    twin_masks,
    unpruned_dfs,
)
from test_solver import oracle_corpus

from bwexact.assignments import enumerate_assignments, root_choices
from bwexact import search, solve
from bwexact.graph import Graph, generate, ordering_bandwidth, spanning_tree
from bwexact.solve import Budget, decide, minimize_bandwidth
from bwexact.search import (
    DEFAULT_MAX_STATES,
    NO,
    UNKNOWN,
    YES,
    SearchPlan,
    SearchStats,
    WitnessError,
    dfs_decide,
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(search.__file__)))
TESTS = os.path.dirname(os.path.abspath(__file__))
UBSAN = ["-fsanitize=undefined,bounds", "-fno-sanitize-recover=all"]


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
            status, pos, stats = dfs_decide(SearchPlan(g, 1, tree), lo)
            assert status == YES
            assert ordering_bandwidth(g, pos) == 1

    def test_k3_b1_always_no(self):
        g = generate("complete", 3)
        tree = spanning_tree(g, 0)
        for lo in enumerate_assignments(Graph(3, []), tree, 1):
            if not edge_filter(lo, tree, g):
                continue
            status, pos, _ = dfs_decide(SearchPlan(g, 1, tree), lo)
            assert status == NO and pos is None

    def test_budget_exhaustion_is_unknown(self):
        # The star K(1,7) has bandwidth 4; proving "no" at b=3 for its
        # first assignment takes hundreds of states.
        g = generate("star", 7)
        tree = spanning_tree(g, 0)
        lo = next(enumerate_assignments(g, tree, 3))
        assert dfs_decide(SearchPlan(g, 3, tree), lo)[2].states_visited > 2
        status, pos, _ = dfs_decide(SearchPlan(g, 3, tree), lo, max_states=2)
        assert status == UNKNOWN and pos is None

    def test_deep_graph_does_not_recurse(self):
        # The star K(1,1500) is deeper than Python's default recursion
        # limit; the Python kernel is one loop, so the run ends in a yes.
        g = generate("star", 1500)
        tree = spanning_tree(g, 0)
        lo = next(enumerate_assignments(g, tree, 750))
        status, pos, _ = dfs_decide(SearchPlan(g, 750, tree), lo)
        assert status == YES
        assert ordering_bandwidth(g, pos) <= 750
        assert consistency_witness(lo, tree, 750, pos)

    @pytest.mark.parametrize("seed", range(6))
    def test_per_run_state_bound(self, seed):
        g = generate("random_gnp", 8, 0.35, seed=seed)
        tree = spanning_tree(g, 0)
        ceiling = per_run_state_ceiling(8, len(tree.leaves))
        for b in (1, 2, 3):
            for lo in enumerate_assignments(g, tree, b):
                _, _, stats = dfs_decide(SearchPlan(g, b, tree), lo)
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
                status, pos, _ = dfs_decide(SearchPlan(g, b, tree), lo)
                expected = any(consistency_witness(lo, tree, b, o) for o in orderings)
                assert status == (YES if expected else NO)
                if status == YES:
                    assert ordering_bandwidth(g, pos) <= b
                    assert consistency_witness(lo, tree, b, pos)

    def test_one_plan_per_decide(self, monkeypatch):
        # Plans serve the loop over enumerate_assignments, which walk
        # takes when c_kernel_for gives no compiled kernel.
        monkeypatch.setattr(solve, "c_kernel_for", lambda n: None)
        built = []

        class CountingPlan(search.SearchPlan):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(solve, "SearchPlan", CountingPlan)
        res = decide(generate("random_gnp", 10, 0.4, seed=2), 3)
        assert (res.stats.kernel, len(built)) == ("python", 1)
        assert res.stats.runs > 1

    def test_interleaved_trees_get_their_own_plan(self):
        # Runs over two spanning trees of one graph, in mixed order, each
        # with its tree's plan: a plan carries nothing from run to run,
        # and its count of steps left is the same after its runs.
        g = generate("random_gnp", 8, 0.4, seed=4)
        plans = [SearchPlan(g, 3, spanning_tree(g, 0)), SearchPlan(g, 3, spanning_tree(g, 5))]
        before = [plan.left[:] for plan in plans]
        runs = [(plan, lo) for plan in plans for lo in itertools.islice(enumerate_assignments(g, plan.tree, 3), 20)]
        random.Random(0).shuffle(runs)
        for plan, lo in runs:
            found, want_pos, _ = unpruned_dfs(g, 3, plan.tree, lo)
            status, pos, _ = dfs_decide(plan, lo)
            assert (status, pos) == (YES if found else NO, want_pos), lo
        assert [plan.left for plan in plans] == before

    def test_plan_is_linear_in_n(self):
        # One count per base segment, not one row per depth: the plan for
        # 10,000 vertices at b = 4 took 160 MiB as a depth-by-segment table.
        g = generate("caterpillar", 5000, 5000)
        tree = spanning_tree(g, 0)
        tracemalloc.start()
        try:
            SearchPlan(g, 4, tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_plan_twins_match_pair_scan(self):
        # The plan groups each parent's leaves by neighbourhood; bw_decide
        # and the reference scan every pair. The acceptance corpus holds
        # twins that are adjacent (K4's leaves) and ones that are not.
        kinds = set()
        for g in acceptance_corpus() + twin_corpus():
            tree = spanning_tree(g, 0)
            twin = SearchPlan(g, 1, tree).twin
            assert twin == [m.bit_length() - 1 for m in twin_masks(g, tree)], sorted(g.edges)
            kinds |= {v in g.adj[u] for v, u in enumerate(twin) if u >= 0}
        assert kinds == {True, False}

    @pytest.mark.parametrize("k", [2000, 5000])
    def test_large_run_honours_deadline(self, k):
        # caterpillar(k, k) has 2k vertices, so the Python loop runs it.
        # Its first run's Hall tests drop every root candidate; read only
        # after a new state, the clock let that run go on for 1-9 s.
        g = generate("caterpillar", k, k)
        start = time.monotonic()
        res = decide(g, 4, Budget(max_seconds=0.3))
        assert res.status == UNKNOWN
        assert time.monotonic() - start < 0.8

    def test_frontier_decide_on_python_loop(self):
        # n = 22 is past the compiled kernel's MAXN, so the Python loop
        # proves this "no" at the graph's lower bound, unpatched, over the
        # root prefix (74 runs and 25,036 states over the whole stream).
        g = generate("random_gnp", 22, 0.2, seed=2)
        assert solve.lower_bound(g) == 6
        res = decide(g, 6)
        stats = res.stats
        assert (res.status, stats.runs, stats.states_total, stats.states_max_run, stats.kernel) == \
            (NO, 49, 20_787, 4_962, "python")


def outcome(out):
    status, pos, stats = out
    return status, pos, stats.states_visited


def python_kernel(g, b, tree, lo, **kw):
    """One run of the Python loop."""
    return dfs_decide(SearchPlan(g, b, tree), lo, **kw)


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


def twin_corpus():
    """Seeded random trees and caterpillars whose spanning tree holds a
    twin pair, so that the twin rule fires: the first two seeds with one
    for each n of 6..10 in both families, and the first for random trees
    with n = 11 and 12. The unpruned reference takes 0.6-3.6 s on each
    graph with n >= 11, so there are no more of them."""
    picks = ([("random_tree", (n,), 2) for n in range(6, 11)]
             + [("caterpillar", (n // 3, n - n // 3), 2) for n in range(6, 11)]
             + [("random_tree", (11,), 1), ("random_tree", (12,), 1)])
    graphs = []
    for family, params, count in picks:
        seeded = (generate(family, *params, seed=seed) for seed in range(100))
        found = list(itertools.islice((g for g in seeded if any(twin_masks(g, spanning_tree(g, 0)))), count))
        assert len(found) == count, (family, params)
        graphs += found
    return graphs


def corpus_answers():
    """c_decide's record, as a dict, for every graph of the acceptance
    corpus and every b: status, ordering and counters."""
    return [search.c_decide(g, b, spanning_tree(g, 0), root_choices(g.n, b)).to_dict()
            for g in acceptance_corpus() for b in range(1, g.n)]


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

    def test_twin_corpus(self, monkeypatch):
        # Both kernels apply the twin rule, so every run's counters agree;
        # with the twin masks zeroed, bw_dfs searches without the rule and
        # visits more states over the corpus.
        graphs = twin_corpus()
        compared = sum(assert_kernels_agree(g, b) for g in graphs for b in range(1, g.n))
        assert compared > 2_000

        def c_states():
            return sum(c_kernel(g, b, tree, lo)[2].states_visited
                       for g in graphs for tree in [spanning_tree(g, 0)]
                       for b in range(1, g.n) for lo in enumerate_assignments(g, tree, b))

        with_rule = c_states()
        monkeypatch.setattr(reference_search, "twin_masks", lambda g, tree: [0] * g.n)
        assert with_rule < c_states()

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
        assert c == (UNKNOWN, None, 1)
        assert c == outcome(python_kernel(g, 2, tree, lo, deadline=past))

    def test_stop_flag_is_unknown(self):
        # A set stop flag ends the run where the clock would, before the root.
        g = generate("cycle", 8)
        tree = spanning_tree(g, 0)
        lo = next(enumerate_assignments(g, tree, 2))
        out = reference_search._dfs_c(g, 2, tree, lo, DEFAULT_MAX_STATES, math.inf, ctypes.c_int(1))
        assert outcome(out) == (UNKNOWN, None, 1)
        out = reference_search._dfs_c(g, 2, tree, lo, DEFAULT_MAX_STATES, math.inf, ctypes.c_int(0))
        assert outcome(out) == outcome(c_kernel(g, 2, tree, lo))

    def test_future_deadline_changes_nothing(self):
        g = generate("random_gnp", 9, 0.4, seed=1)
        assert_kernels_agree(g, 3, limit=30, deadline=time.monotonic() + 600)


def loop_decide(g, b, budget=None, deadline=None):
    """decide without the compiled walk: the Python loop over
    enumerate_assignments, each run on the compiled kernel's bw_dfs."""
    def compiled_plan_dfs(plan, lo, **kw):
        return compiled_dfs(plan.g, plan.b, plan.tree, lo, **kw)

    with mock.patch.object(solve, "c_kernel_for", lambda n: None), \
            mock.patch.object(solve, "dfs_decide", compiled_plan_dfs):
        return decide(g, b, budget, deadline=deadline)


def assert_walk_matches_loop(g, b, budget=None, deadline=None):
    """The compiled walk gives the loop's answer, witness and counters,
    each decide naming the walk it took; returns its result."""
    assert search.c_kernel_for(g.n) is not None
    walk, loop = decide(g, b, budget, deadline=deadline), loop_decide(g, b, budget, deadline)
    assert (walk.status, walk.ordering) == (loop.status, loop.ordering), (g, b)
    kernels = ("c", "python") if walk.stats.runs else (None, None)
    assert (walk.stats.kernel, loop.stats.kernel) == kernels, (g, b)
    assert {**walk.stats.to_dict(), "kernel": None} == {**loop.stats.to_dict(), "kernel": None}, (g, b)
    return walk


@pytest.mark.usefixtures("compiled_kernel")
class TestCompiledWalk:
    def test_acceptance_corpus(self):
        statuses = {assert_walk_matches_loop(g, b).status for g in acceptance_corpus() for b in range(1, g.n)}
        assert statuses == {YES, NO}

    @pytest.mark.parametrize("g, b, budget, status, runs", [
        (generate("path", 16), 1, None, YES, 1_684),
        # The two "no"s walk the root prefix: 73,664 and 28,280 runs over
        # the whole stream.
        (generate("cycle", 17), 1, None, NO, 48_333),
        (generate("random_tree", 20), 2, None, NO, 19_240),
        # The 15th run reaches the cap and ends the decide on both walks.
        (generate("random_gnp", 18, 0.2), 3, Budget(max_states=5), UNKNOWN, 15),
    ], ids=["path16", "cycle17", "random_tree20", "gnp18-capped"])
    def test_long_streams(self, g, b, budget, status, runs):
        res = assert_walk_matches_loop(g, b, budget)
        assert (res.status, res.stats.runs, res.stats.kernel) == (status, runs, "c")

    def test_past_deadline_matches_loop(self):
        # A decide that starts past its deadline makes no run on either walk.
        g = generate("random_gnp", 14, 0.3, seed=1)
        res = assert_walk_matches_loop(g, 4, deadline=time.monotonic() - 1)
        assert (res.status, res.stats.runs, res.stats.states_total, res.stats.kernel) == (UNKNOWN, 0, 0, None)

    def test_stop_flag_ends_walk(self):
        # Unstopped, this walk is a "no" after 28,280 runs; with the flag
        # set, its first run stops at the root and so does the walk.
        g = generate("random_tree", 20)
        tree, roots = spanning_tree(g, 0), root_choices(g.n, 2)
        res = search.c_decide(g, 2, tree, roots, stop=ctypes.c_int(0))
        assert (res.status, res.ordering, res.stats.runs) == (NO, None, 28_280)
        res = search.c_decide(g, 2, tree, roots, stop=ctypes.c_int(1))
        assert (res.status, res.ordering) == (UNKNOWN, None)
        assert res.stats.runs <= 1 and res.stats.states_total <= 1

    def test_root_parts_match_python_loop(self):
        # Each part of the stream, lo[root] = c, on its own: the compiled
        # walk equals the Python loop over the same part, kernel names
        # aside, and the parts folded in order equal the walk over the
        # whole stream.
        def kernel_aside(res):
            return res.status, res.ordering, {**res.stats.to_dict(), "kernel": None}

        parts = 0
        for g in acceptance_corpus():
            tree = spanning_tree(g, 0)
            for b in range(1, g.n):
                roots = root_choices(g.n, b)
                compiled = [search.c_decide(g, b, tree, range(c, c + 1)) for c in roots]
                with mock.patch.object(solve, "c_kernel_for", lambda n: None):
                    loop = [solve.walk(g, b, tree, range(c, c + 1), DEFAULT_MAX_STATES, math.inf) for c in roots]
                assert len(compiled) == len(loop)
                for part, looped in zip(compiled, loop):
                    assert kernel_aside(part) == kernel_aside(looped), (g, b)
                    kernels = ("c", "python") if part.stats.runs else (None, None)
                    assert (part.stats.kernel, looped.stats.kernel) == kernels, (g, b)
                assert solve._combine(compiled) == search.c_decide(g, b, tree, roots), (g, b)
                parts += len(roots)
        assert parts == 12_925

    def test_root_prefix_matches_whole_stream(self):
        # decide walks only root_prefix(n, b). With no cap, the walk over
        # it gives the whole stream's answer and witness at every b, and
        # it is decide's record.
        shorter, statuses = 0, set()
        for g in itertools.chain(acceptance_corpus(), oracle_corpus()):
            tree = spanning_tree(g, 0)
            for b in range(1, g.n):
                prefix, whole = solve.root_prefix(g.n, b), root_choices(g.n, b)
                assert prefix.start == whole.start and prefix.stop <= whole.stop
                part = solve.walk(g, b, tree, prefix, DEFAULT_MAX_STATES, math.inf)
                full = solve.walk(g, b, tree, whole, DEFAULT_MAX_STATES, math.inf)
                assert (part.status, part.ordering) == (full.status, full.ordering), (sorted(g.edges), b)
                assert decide(g, b) == part
                shorter += part.stats.runs < full.stats.runs
                statuses.add(part.status)
        assert statuses == {YES, NO}
        assert shorter > 1_000

    @pytest.mark.parametrize("b", [-1, 0, 5])
    def test_rejects_b_outside_1_to_n(self, b):
        # The walk divides by b + 1 and steps positions by it.
        g = generate("path", 5)
        with pytest.raises(ValueError):
            search.c_decide(g, b, spanning_tree(g, 0), range(-1, 1))


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

    def test_twin_corpus(self):
        # Trees and caterpillars with twin leaves, the rule's home ground.
        graphs = twin_corpus()
        assert sum(assert_matches_reference(g, b) for g in graphs for b in range(1, g.n)) > 2_000


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

    def test_windows_are_all_of_halls_condition(self):
        # Inputs built as the kernels build them: each vertex's mask bits
        # form an interval of base segments, and some segments have no
        # step left. The child is dropped exactly when no matching places
        # each unassigned vertex at its own step left, at a segment whose
        # child mask holds it; kept, it gets the parent's masks with the
        # unassigned neighbours cleared outside t - 1 and t.
        rng = random.Random(0)
        kept = 0
        for _ in range(2000):
            nseg, n = rng.randint(1, 6), rng.randint(1, 7)
            ok = [0] * nseg
            for w in range(n):
                first = rng.randrange(nseg)
                for s in range(first, rng.randint(first, nseg)):
                    ok[s] |= 1 << w
            unplaced, nbrs, t = rng.getrandbits(n), rng.getrandbits(n), rng.randrange(nseg)
            left = [rng.choice((0, 0, 1, 1, 2)) for _ in range(nseg)]
            want = [m if s in (t - 1, t) else m & ~(nbrs & unplaced) for s, m in enumerate(ok)]
            got = search._hall_child(ok, unplaced, nbrs, t, left)
            assert got == (want if has_matching(want, unplaced, left) else None), (ok, unplaced, nbrs, t, left)
            kept += got is not None
        assert 500 < kept < 1500  # both answers come up often


def has_matching(masks, unplaced, left):
    """Whether each vertex of `unplaced` can take its own one of the
    left[s] steps at some segment s with the vertex in masks[s], by
    trying every choice."""
    todo = [w for w in range(unplaced.bit_length()) if unplaced >> w & 1]
    free = list(left)

    def place(k):
        if k == len(todo):
            return True
        for s, m in enumerate(masks):
            if free[s] and m >> todo[k] & 1:
                free[s] -= 1
                if place(k + 1):
                    return True
                free[s] += 1
        return False

    return place(0)


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

    def test_out_slots_fit_buffer(self):
        # c_decide sizes bw_decide's out buffer by search._OUT_LEN, and
        # ctypes does not check the C side: a slot written past it
        # corrupts memory silently.
        with open(search._KERNEL_SOURCE, encoding="utf-8") as fh:
            (body,) = re.findall(r"^int bw_decide\(.*?^}", fh.read(), re.M | re.S)
        slots = {int(k) for k in re.findall(r"\bout\[(\d+)\]", body)}
        assert slots == set(range(search._OUT_LEN))

    @pytest.mark.usefixtures("compiled_kernel")
    def test_maxn_matches_python_gate(self):
        # The kernel's per-vertex arrays hold MAXN entries, and Python
        # sends it graphs with up to bw_maxn vertices.
        assert search._c_kernel().maxn == source_maxn()
        assert search.c_kernel_for(source_maxn()) is not None
        assert search.c_kernel_for(source_maxn() + 1) is None

    @pytest.mark.usefixtures("compiled_kernel")
    def test_sanitized_build_gives_same_answers(self, tmp_path):
        # The kernel built with UBSan, through the package's own loader: a
        # `cc` first on PATH adds the flags, and a copy of the source keeps
        # the library out of the package's __pycache__. Undefined behaviour
        # aborts the subprocess, which fails this test alone.
        cc = shutil.which("cc") or shutil.which("gcc")
        probe = subprocess.run([cc, *UBSAN, "-shared", "-fPIC", "-o", str(tmp_path / "probe.so"), search._KERNEL_SOURCE],
                               capture_output=True, timeout=120)
        if probe.returncode != 0:
            pytest.skip("the C compiler cannot build with UBSan")
        (tmp_path / "bin").mkdir()
        (tmp_path / "src").mkdir()
        wrapper = tmp_path / "bin" / "cc"
        wrapper.write_text(f'#!/bin/sh\nexec "{cc}" {" ".join(UBSAN)} "$@"\n')
        wrapper.chmod(0o755)
        source = tmp_path / "src" / "_kernel.c"
        shutil.copy(search._KERNEL_SOURCE, source)
        script = ("import json, sys\nfrom bwexact import search\nsearch._KERNEL_SOURCE = sys.argv[1]\n"
                  "import test_search\nprint(json.dumps(test_search.corpus_answers()))\n")
        env = {**os.environ, "PATH": os.pathsep.join([str(tmp_path / "bin"), os.environ.get("PATH", "")]),
               "PYTHONPATH": os.pathsep.join([SRC, TESTS])}
        proc = subprocess.run([sys.executable, "-c", script, str(source)],
                              capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr[-2000:]
        (lib,) = (tmp_path / "src" / "__pycache__").iterdir()
        assert b"__ubsan_handle" in lib.read_bytes()
        assert json.loads(proc.stdout) == corpus_answers()


def source_maxn():
    """MAXN as _kernel.c defines it."""
    with open(search._KERNEL_SOURCE, encoding="utf-8") as fh:
        (maxn,) = re.findall(r"^#define MAXN (\d+)$", fh.read(), re.M)
    return int(maxn)


class TestKernelFallback:
    def test_above_max_n_runs_python(self):
        # The compiled call refuses n above MAXN, which its arrays cannot
        # hold; the Python loop takes it.
        n = source_maxn() + 1
        g = generate("path", n)
        tree = spanning_tree(g, 0)
        lo = next(enumerate_assignments(g, tree, 1))
        status, pos, stats = dfs_decide(SearchPlan(g, 1, tree), lo)
        with pytest.raises(ValueError):
            search.c_decide(g, 1, tree, root_choices(n, 1))
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
        with pytest.raises(ValueError):
            search.c_decide(g, 3, tree, root_choices(g.n, 3))
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
    def test_new_build_deletes_stale_builds(self, tmp_path, monkeypatch, fresh_loader):
        # A build for another source version, planted beside a copy of the
        # source, is never loaded again, so the new build deletes it; a
        # file that is not a kernel build stays.
        source = tmp_path / "_kernel.c"
        shutil.copy(search._KERNEL_SOURCE, source)
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "_kernel-0123456789abcdef.so").write_bytes(b"an old build")
        (cache / "graph.cpython-311.pyc").write_bytes(b"not a kernel")
        monkeypatch.setattr(search, "_KERNEL_SOURCE", str(source))
        assert search._c_kernel() is not None
        digest = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
        assert sorted(p.name for p in cache.iterdir()) == [f"_kernel-{digest}.so", "graph.cpython-311.pyc"]


@pytest.mark.usefixtures("compiled_kernel")
class TestWitnessCheck:
    @pytest.mark.parametrize("kernel", ["_dfs_c", "dfs_decide"])
    def test_bad_witness_raises(self, kernel, monkeypatch):
        # In color order for n=4, b=1 the path [0, 1, 2, 3] puts vertices
        # 0 and 1 at positions 1 and 3, two apart on an edge.
        g = generate("path", 4)
        tree = spanning_tree(g, 0)
        lo = next(enumerate_assignments(g, tree, 1))
        if kernel == "_dfs_c":
            monkeypatch.setattr(reference_search, "_dfs_c", lambda *a: (YES, [0, 1, 2, 3], SearchStats()))
            with pytest.raises(WitnessError):
                compiled_dfs(g, 1, tree, lo)
        else:
            # The loop reads the edges off the plan and checks the
            # ordering on g: with the plan's edges gone, it finds that path.
            plan = SearchPlan(g, 1, tree)
            plan.adj = [0] * g.n
            with pytest.raises(WitnessError):
                dfs_decide(plan, lo)

    def test_bad_witness_from_compiled_walk_raises(self, monkeypatch):
        # The walk says yes with vertices 0 and 1 of the path two apart.
        def bad_decide(n, b, adj, order, parent, root_lo, root_hi, max_states, deadline, stop, pos, out):
            pos[:] = [1, 3, 2, 4]
            out[0] = 1
            return 1

        monkeypatch.setattr(search, "_c_kernel", lambda: types.SimpleNamespace(bw_decide=bad_decide, maxn=source_maxn()))
        with pytest.raises(WitnessError):
            decide(generate("path", 4), 1)
