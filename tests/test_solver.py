import json
import math
import os
import random
import signal
import subprocess
import sys
import textwrap
import time
from types import SimpleNamespace

import pytest

from conftest import brute_bandwidth, connected_graphs
from reference_search import edge_filter

import bwexact
from bwexact import search, solve
from bwexact.graph import Graph, GraphError, connected_components, generate, ordering_bandwidth, spanning_tree
from bwexact.search import WitnessError, enumerate_assignments
from bwexact.solve import (
    Budget,
    DecideResult,
    DecideStats,
    NO,
    OPTIMAL,
    UNKNOWN,
    YES,
    bounds,
    decide,
    lower_bound,
    minimize_bandwidth,
    oracle_bandwidth,
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bwexact.__file__)))
POOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "pools")


def run_isolated(code: str, timeout: float) -> str:
    """Run `code` in a fresh interpreter in its own session and return
    its stdout. Past `timeout` seconds the whole session is killed and
    the test fails: a hang must fail, not stall the suite."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(code)], env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"no answer within {timeout} s")
    assert proc.returncode == 0, err
    return out


class TestDecide:
    def test_c4_b2_yes(self):
        res = decide(generate("cycle", 4), 2)
        assert res.status == YES
        assert ordering_bandwidth(generate("cycle", 4), res.ordering) <= 2

    def test_c4_b1_no(self):
        assert decide(generate("cycle", 4), 1).status == NO

    def test_p5_b1_yes(self):
        g = generate("path", 5)
        res = decide(g, 1)
        assert res.status == YES
        assert ordering_bandwidth(g, res.ordering) == 1

    def test_monotone_in_b(self):
        for seed in range(10):
            g = generate("random_gnp", 7, 0.45, seed=seed)
            feasible = [decide(g, b).status == YES for b in range(1, 7)]
            # Once feasible, stays feasible.
            assert feasible == sorted(feasible)

    def test_budget_exhaustion_reports_unknown(self):
        # The star K(1,7) has bandwidth 4; each "no" run at b=3 that is
        # not answered at the root takes hundreds of states.
        g = generate("star", 7)
        assert decide(g, 3).stats.states_max_run > 3
        res = decide(g, 3, Budget(max_states=3))
        assert res.status == UNKNOWN and res.ordering is None

    def test_preconditions(self):
        with pytest.raises(GraphError):
            decide(Graph(4, [(0, 1), (2, 3)]), 1)  # disconnected
        with pytest.raises(GraphError):
            decide(generate("path", 4), 0)
        with pytest.raises(GraphError):
            decide(generate("path", 4), 4)
        with pytest.raises(GraphError, match="n >= 2"):
            decide(Graph(1, []), 1)

    @pytest.mark.parametrize("n, p, kernel", [(12, 0.3, "c"), (12, 0.3, "python")])
    def test_rejects_non_integer_b(self, n, p, kernel, monkeypatch):
        # 2.0 meets 1 <= b < n, but the compiled call and the Python loop
        # each fail on it with their own error; decide refuses it first.
        g = generate("random_gnp", n, p, seed=1)
        if kernel == "python":
            monkeypatch.setattr(solve, "c_kernel_for", lambda n: None)
        assert decide(g, 2).stats.kernel in (kernel, "python")
        with pytest.raises(GraphError, match="integer b"):
            decide(g, 2.0)
        with pytest.raises(GraphError, match="integer b"):
            decide(g, True)  # bool is an int, but not a b

    def test_past_deadline_same_on_both_kernels(self, monkeypatch):
        # Parts that start past the deadline make no run, whichever
        # kernel would have run them.
        g = generate("random_gnp", 14, 0.3, seed=1)
        compiled = decide(g, 4, workers=2, deadline=time.monotonic() - 1)
        monkeypatch.setattr(search, "_c_kernel", lambda: None)
        loop = decide(g, 4, workers=2, deadline=time.monotonic() - 1)
        assert compiled.stats.to_dict() == loop.stats.to_dict()
        assert (compiled.status, compiled.stats.runs, compiled.stats.states_total,
                compiled.stats.kernel) == (UNKNOWN, 0, 0, None)

    def test_rejects_nan_deadline(self):
        # No clock reading is ever past NaN, so the search would never stop.
        with pytest.raises(ValueError, match="NaN"):
            decide(generate("path", 6), 1, deadline=float("nan"))

    def test_budget_clock_starts_at_call(self, monkeypatch):
        # max_seconds counts from the call, so growing the spanning tree
        # spends the budget too.
        def slow_tree(g, root):
            time.sleep(0.2)
            return spanning_tree(g, root)

        monkeypatch.setattr(solve, "spanning_tree", slow_tree)
        res = decide(generate("path", 8), 1, Budget(max_seconds=0.1))
        assert (res.status, res.stats.runs) == (UNKNOWN, 0)

    def test_prune_matches_unpruned(self):
        # decide streams with the edge-distance prune on g: it must keep
        # exactly the assignments that pass edge_filter, in stream order.
        for seed in range(6):
            g = generate("random_gnp", 7, 0.4, seed=seed)
            tree = spanning_tree(g, 0)
            for b in (1, 2, 3):
                pruned = list(enumerate_assignments(g, tree, b))
                plain = [lo for lo in enumerate_assignments(Graph(7, []), tree, b) if edge_filter(lo, tree, g)]
                assert pruned == plain

    def test_parallel_matches_sequential(self):
        # Parallel workers take the stream in parts, one per root choice
        # lo[root] = -1, 0, ...; the answer must not depend on them.
        cases = [
            (generate("random_gnp", 9, 0.35, seed=11), (2, 3, 4), None),
            # The "yes" at b=2 comes on run 147 of the stream, in the
            # part lo[root] = 0 after a "no" part lo[root] = -1.
            (generate("random_tree", 14, seed=8), (1, 2), None),
            # "no" after 19,240 runs over the prefix's 5 parts.
            (generate("random_tree", 20), (2,), None),
            # The first capped run, run 47, ends the decide "unknown" in
            # part lo[root] = 0, after a "no" part lo[root] = -1, whose
            # runs take at most 272 states; run 47 takes 550 uncapped.
            (generate("random_tree", 14, seed=1), (2,), Budget(max_states=400)),
            # The first capped run, run 15, ends it in the first part.
            (generate("random_gnp", 18, 0.2), (3,), Budget(max_states=5)),
        ]
        statuses = set()
        for g, bs, budget in cases:
            for b in bs:
                seq = decide(g, b, budget)
                for workers in (2, 3):
                    par = decide(g, b, budget, workers=workers)
                    assert seq.status == par.status
                    assert seq.ordering == par.ordering
                    assert seq.stats.to_dict() == par.stats.to_dict()
                if seq.status == YES:
                    assert ordering_bandwidth(g, seq.ordering) <= b
                statuses.add((seq.status, seq.stats.runs))
        assert {(YES, 147), (NO, 19_240), (UNKNOWN, 47), (UNKNOWN, 15)} <= statuses
        for g, max_states, answer in ((generate("random_tree", 14, seed=8), 1 << 26, YES),
                                      (generate("random_tree", 14, seed=1), 400, UNKNOWN)):
            tree = spanning_tree(g, 0)
            first, second = (solve.walk(g, 2, tree, range(c, c + 1), max_states, math.inf).status
                             for c in (-1, 0))
            assert (first, second) == (NO, answer)

    @pytest.mark.parametrize("seed", [1, 2, 4])
    def test_parallel_repeated_yes_does_not_hang(self, seed):
        # Stopping the workers after each early "yes" must never
        # deadlock; 200 such decides take a few seconds.
        out = run_isolated(f"""
            from bwexact.graph import generate
            from bwexact.solve import decide, minimize_bandwidth
            g = generate("random_gnp", 14, 0.3, seed={seed})
            opt = minimize_bandwidth(g).bandwidth
            print(sorted({{decide(g, opt, workers=2).status for _ in range(200)}}))
        """, timeout=60)
        assert out.split() == ["['yes']"]

    def test_worker_exception_reraised(self, monkeypatch):
        # Raised in a compiled part on a worker thread, then in the
        # Python loop, which runs serially.
        raised = []

        def failing(name):
            def fail(*args, **kwargs):
                raised.append(name)
                raise WitnessError("kernel bug")
            return fail

        monkeypatch.setattr(solve, "c_decide", failing("c"))
        monkeypatch.setattr(solve, "dfs_decide", failing("python"))
        g = generate("cycle", 6)
        with pytest.raises(WitnessError, match="kernel bug"):
            decide(g, 2, workers=2)
        monkeypatch.setattr(solve, "c_kernel_for", lambda n: None)
        with pytest.raises(WitnessError, match="kernel bug"):
            decide(g, 2, workers=2)
        assert raised[0] == ("python" if search.c_kernel_for(g.n) is None else "c")
        assert raised[-1] == "python"

    @pytest.mark.parametrize("seconds", [0, -1.0, float("nan"), True])
    def test_budget_rejects_non_positive_seconds(self, seconds):
        # A NaN deadline would compare false forever, so no check would
        # fire; True, a bool, would pass as 1 s.
        with pytest.raises(ValueError, match="positive number"):
            Budget(max_seconds=seconds)

    @pytest.mark.parametrize("states", [float("nan"), 2.5, 0, -1, True])
    def test_budget_rejects_non_integer_states(self, states):
        # NaN never compares >= a count, so the cap would never fire, and
        # ctypes refuses a float as the kernel's uint64_t.
        with pytest.raises(ValueError, match="positive integer"):
            Budget(max_states=states)

    def test_no_deadline_is_inf(self):
        assert Budget().deadline() == math.inf

    @pytest.mark.parametrize("workers", [0, -1, 2.0, 1.5, True])
    def test_rejects_workers_below_one(self, workers):
        with pytest.raises(ValueError, match="workers must be a positive integer"):
            decide(generate("cycle", 6), 2, workers=workers)
        with pytest.raises(ValueError, match="workers must be a positive integer"):
            minimize_bandwidth(generate("path", 6), workers=workers)

    @pytest.mark.parametrize("loop", [True, False], ids=["python-kernel", "compiled"])
    def test_parallel_workers_honour_deadline(self, loop, monkeypatch):
        # random_tree(21) at b=2 is a compiled "no" of about 0.1 s with
        # its parts on 2 threads (0.17 s serially), and takes the Python
        # loop, which runs serially, over 5 s. Either way the 0.02 s
        # deadline must stop the runs mid-way; the state cap only bounds
        # memory should it not.
        if loop:
            monkeypatch.setattr(solve, "c_kernel_for", lambda n: None)
        g = generate("random_tree", 21, seed=0)
        start = time.monotonic()
        res = decide(g, 2, Budget(max_states=1_000_000, max_seconds=0.02), workers=2)
        assert res.status == UNKNOWN
        assert time.monotonic() - start < 0.02 + 2.0
        if loop:
            assert res.stats.kernel == "python"

    def test_first_capped_run_ends_python_loop(self, monkeypatch):
        # Run 1,439 reaches the cap and ends the decide; the 40,121 runs
        # after it in the root prefix are not searched.
        monkeypatch.setattr(solve, "c_kernel_for", lambda n: None)
        g = generate("random_tree", 22)
        start = time.monotonic()
        res = decide(g, 2, Budget(max_states=200))
        assert time.monotonic() - start < 1.0
        assert (res.status, res.stats.runs, res.stats.states_max_run, res.stats.kernel) == (
            UNKNOWN, 1_439, 200, "python")

    @pytest.mark.skipif(search.c_kernel_for(21) is None, reason="no compiled kernel")
    def test_parallel_yes_stops_later_parts(self):
        # The "yes" at b=3 comes in the first part, lo[root] = -1, in
        # under 0.1 s; the next part alone takes about 0.5 s. Once the
        # answer is known the stop flag must end that part at once, not
        # let the decide wait for it. Timed against that part on the
        # same host, so a slow host does not make the test flaky.
        g = generate("random_tree", 21, seed=0)
        tree = spanning_tree(g, 0)
        serial = decide(g, 3)
        assert serial.status == YES
        start = time.monotonic()
        assert solve.walk(g, 3, tree, range(0, 1), Budget().max_states, math.inf).status == YES
        part = time.monotonic() - start
        best = math.inf
        for _ in range(3):
            start = time.monotonic()
            par = decide(g, 3, workers=2)
            best = min(best, time.monotonic() - start)
            assert (par.status, par.ordering) == (YES, serial.ordering)
            assert par.stats.to_dict() == serial.stats.to_dict()
        assert best < part / 2

    def test_serial_decide_honours_deadline(self):
        # One compiled call takes the whole decide (about 0.3 s here), so
        # the kernel itself must stop it at the deadline.
        g = generate("random_tree", 21, seed=0)
        full = decide(g, 2)
        assert full.status == NO
        start = time.monotonic()
        res = decide(g, 2, Budget(max_seconds=0.02))
        assert time.monotonic() - start < 0.02 + 0.5
        assert res.status == UNKNOWN
        assert res.stats.runs < full.stats.runs
        timed = decide(g, 2, Budget(max_seconds=60))
        assert (timed.status, timed.stats.to_dict()) == (NO, full.stats.to_dict())

    def test_kernel_reported(self, monkeypatch):
        # star(20) has 21 vertices, which the compiled kernel takes;
        # with c_kernel_for giving none, the Python loop runs it.
        assert decide(generate("cycle", 6), 2).stats.kernel in ("c", "python")
        monkeypatch.setattr(solve, "c_kernel_for", lambda n: None)
        assert decide(generate("star", 20), 10).stats.kernel == "python"

    def test_merge_names_mixed_kernels(self):
        # A solve whose components ran on both kernels names neither; a
        # record with no kernel (no run made) leaves the name as it is.
        agg = DecideStats(kernel="c")
        agg.merge(DecideStats())
        assert agg.kernel == "c"
        agg.merge(DecideStats(kernel="python"))
        assert agg.kernel == "mixed"
        agg.merge(DecideStats())
        assert agg.kernel == "mixed"


class TestCombine:
    # _combine's rule over hand-built records, in stream order, as the
    # runs of a Python part or the parts of a parallel decide reach it:
    # the first record that is not NO is the answer.
    @staticmethod
    def run(status, states, ordering=None):
        return DecideResult(status, ordering, DecideStats(1, 1, states, states, "c"))

    def test_yes_after_unknown_not_taken(self):
        res = solve._combine([self.run(UNKNOWN, 5), self.run(YES, 3, [2, 1])])
        assert (res.status, res.ordering, res.stats.runs) == (UNKNOWN, None, 1)

    def test_unknown_then_no_is_unknown(self):
        res = solve._combine([self.run(UNKNOWN, 5), self.run(NO, 3)])
        assert (res.status, res.ordering, res.stats.runs) == (UNKNOWN, None, 1)

    def test_unknown_ends_fold(self, monkeypatch):
        # Whether or not the deadline has passed: the fold reads no clock.
        def results():
            yield self.run(NO, 2)
            yield self.run(UNKNOWN, 4)
            raise AssertionError("the fold took a result after an UNKNOWN")

        def clock():
            raise AssertionError("the fold read the clock")

        monkeypatch.setattr(solve, "time", SimpleNamespace(monotonic=clock))
        res = solve._combine(results())
        assert (res.status, res.ordering, res.stats.runs, res.stats.states_total) == (UNKNOWN, None, 2, 6)

    def test_counters_fold_by_merge(self):
        # Runs and states add up, the largest run is kept, and a record
        # with no run (kernel None) leaves the kernel "c".
        empty = DecideResult(NO, None, DecideStats())
        part = DecideResult(NO, None, DecideStats(3, 3, 12, 9, "c"))
        res = solve._combine([self.run(NO, 7), empty, part, empty])
        assert res == DecideResult(NO, None, DecideStats(4, 4, 19, 9, "c"))


def disjoint_union(*parts: Graph) -> Graph:
    """The parts side by side, each one's vertices after the last part's."""
    edges, offset = [], 0
    for h in parts:
        edges += [(u + offset, v + offset) for u, v in h.edges]
        offset += h.n
    return Graph(offset, edges)


def small_unions():
    """An edge, a triangle and an edge, then seeded unions of two or
    three connected graphs, n <= 10 in all: graphs from
    connected_graphs(n <= 4), G(n, 0.4) and random trees. The last two
    are a union whose smaller component is never searched, and one
    whose later component answers no."""
    small = {n: list(connected_graphs(n)) for n in range(1, 5)}
    yield Graph(7, [(0, 1), (2, 3), (3, 4), (2, 4), (5, 6)])
    for seed in range(300):
        rng = random.Random(seed)
        count = rng.choice((2, 3))
        parts, room = [], 10
        for i in range(count):
            n = rng.randint(1, min(7, room - (count - 1 - i)))
            room -= n
            family = rng.choice(("random_gnp", "random_tree") + (("small",) if n <= 4 else ()))
            if n < 3 or family == "small":
                parts.append(rng.choice(small[n]))
            elif family == "random_gnp":
                parts.append(generate(family, n, 0.4, seed=seed))
            else:
                parts.append(generate(family, n, seed=seed))
        yield disjoint_union(*parts)
    yield disjoint_union(generate("complete", 4), generate("random_tree", 5, seed=2))
    yield disjoint_union(generate("random_tree", 5, seed=2), generate("random_gnp", 5, 0.4, seed=19))


class TestMinimize:
    def test_known_small(self):
        assert minimize_bandwidth(generate("complete", 4)).bandwidth == 3
        assert minimize_bandwidth(generate("star", 4)).bandwidth == 2
        assert minimize_bandwidth(generate("cycle", 6)).bandwidth == 2

    def test_witness_matches_bandwidth(self):
        for seed in range(15):
            g = generate("random_gnp", 8, 0.4, seed=seed)
            res = minimize_bandwidth(g)
            assert res.status == OPTIMAL
            assert ordering_bandwidth(g, res.ordering) == res.bandwidth

    def test_tiny_graphs(self):
        assert minimize_bandwidth(Graph(1, [])).bandwidth == 0
        assert minimize_bandwidth(Graph(3, [])).bandwidth == 0
        res = minimize_bandwidth(Graph(2, [(0, 1)]))
        assert res.bandwidth == 1

    def test_components_rooted_at_own_vertex_0(self):
        g = Graph(5, [(0, 1), (2, 3), (3, 4)])
        assert minimize_bandwidth(g).bandwidth == 1
        assert minimize_bandwidth(Graph(0, [])).bandwidth == 0

    def test_options_after_budget_are_keyword_only(self):
        # A caller that still passes a root positionally must get an
        # error, not have it read as a worker count.
        g = generate("path", 5)
        with pytest.raises(TypeError):
            minimize_bandwidth(g, None, 1)
        with pytest.raises(TypeError):
            decide(g, 1, None, 1)

    def test_perfect_matching_is_linear(self):
        # 20,000 components; the component split must not rescan g per component.
        g = Graph(40_000, [(2 * i, 2 * i + 1) for i in range(20_000)])
        start = time.monotonic()
        res = minimize_bandwidth(g)
        assert time.monotonic() - start < 10
        assert (res.status, res.bandwidth, res.stats["components"]) == (OPTIMAL, 1, 20_000)

    def test_python_kernel_setup_honours_deadline(self):
        # n is past the compiled kernel, and the Python kernel's set-up
        # costs O(n * segments): it must not start after the deadline.
        start = time.monotonic()
        res = minimize_bandwidth(generate("caterpillar", 5000, 5000), Budget(max_seconds=0.3))
        assert time.monotonic() - start < 0.8
        assert res.status == UNKNOWN

    def test_disconnected_composition(self, monkeypatch):
        rounds = []
        real_decide = solve.decide

        def recording_decide(g, b, *args, **kwargs):
            assert bounds(g)[1] > b  # a component already within b is not searched
            res = real_decide(g, b, *args, **kwargs)
            rounds[-1].append((g.n, b, res.status))
            return res

        monkeypatch.setattr(solve, "decide", recording_decide)
        for g in small_unions():
            rounds.append([])
            res = minimize_bandwidth(g)
            assert res.status == OPTIMAL
            assert res.bandwidth == oracle_bandwidth(g).bandwidth
            assert ordering_bandwidth(g, res.ordering) == res.bandwidth
            # Blocks are contiguous, larger components first.
            blocks = sorted(sorted(res.ordering[v] for v in orig) for _, orig in connected_components(g))
            assert [p for block in blocks for p in block] == list(range(1, g.n + 1))
            assert [len(block) for block in blocks] == sorted(map(len, blocks), reverse=True)
        # The tree's bounds leave [2, 3], but K4's lower end is 3: no decide.
        assert rounds[-2] == []
        # Both bounds leave [2, 3]: the tree (first of equal sizes) says
        # yes at b = 2, then the G(5, 0.4) says no, which settles b = 3.
        assert rounds[-1] == [(5, 2, YES), (5, 2, NO)]

    def test_component_bounds_come_before_any_search(self):
        # One BFS of K7 proves 6, above the tree's upper end of 4, so no
        # decide runs. A search per component spent the whole budget on
        # the tree's decide at b = 3 and answered unknown.
        g = disjoint_union(generate("complete", 7), generate("random_tree", 24, seed=1))
        start = time.monotonic()
        res = minimize_bandwidth(g, Budget(max_seconds=2))
        assert time.monotonic() - start < 1
        assert (res.status, res.bandwidth, res.stats["runs"]) == (OPTIMAL, 6, 0)

    def test_unknown_propagates(self):
        g = generate("random_gnp", 9, 0.5, seed=3)
        res = minimize_bandwidth(g, Budget(max_states=2))
        assert res.status == UNKNOWN
        assert "unknown_brackets" not in res.stats
        lo, hi = res.stats["bracket"]
        assert lo <= oracle_bandwidth(g).bandwidth <= hi == res.bandwidth

    def test_unknown_after_a_yes_narrows_bracket(self, monkeypatch):
        # bounds give [3, 5] on the caterpillar and [3, 4] on the G(6, 0.4).
        # At b = 3 the caterpillar says yes and the G(6, 0.4) unknown, so
        # the widest ordering left, and the bracket's upper end, is 4.
        real_decide = solve.decide

        def unknown_on_smaller(g, b, *args, **kwargs):
            if g.n == 6:
                return DecideResult(UNKNOWN, None, DecideStats())
            return real_decide(g, b, *args, **kwargs)

        monkeypatch.setattr(solve, "decide", unknown_on_smaller)
        g = disjoint_union(generate("caterpillar", 3, 4, seed=16), generate("random_gnp", 6, 0.4, seed=35))
        res = minimize_bandwidth(g)
        assert (res.status, res.bandwidth, res.stats["bracket"]) == (UNKNOWN, 4, [3, 4])
        assert ordering_bandwidth(g, res.ordering) == 4

    def test_bad_witness_raises(self, monkeypatch):
        # bounds gives [3, 4], so the solve asks decide at b = 3, which
        # says yes with the identity ordering, of bandwidth 8.
        def lying_decide(g, b, *args, **kwargs):
            return DecideResult(YES, list(range(1, g.n + 1)), DecideStats())

        g = generate("random_gnp", 10, 0.3, seed=0)
        assert bounds(g)[:2] == (3, 4)
        monkeypatch.setattr(solve, "decide", lying_decide)
        with pytest.raises(WitnessError):
            minimize_bandwidth(g)

    def test_unknown_witness_checked(self, monkeypatch):
        # An unknown result reports bounds' upper end; a pos wider than
        # that end must not pass as its witness.
        def wrong_bounds(g, deadline):
            lo, hi, _ = bounds(g, deadline)
            return lo, hi, list(range(1, g.n + 1))

        def unknown_decide(g, b, *args, **kwargs):
            return DecideResult(UNKNOWN, None, DecideStats())

        monkeypatch.setattr(solve, "bounds", wrong_bounds)
        monkeypatch.setattr(solve, "decide", unknown_decide)
        with pytest.raises(WitnessError):
            minimize_bandwidth(generate("random_gnp", 10, 0.3, seed=0))

    def test_one_deadline_per_solve(self, monkeypatch):
        # A solve of two components makes a decide call in each (bounds
        # leave [3, 4] on both); every compiled decide must get the
        # deadline fixed when the solve began.
        deadlines, call_times, decides = [], [], []
        real_decide, real_c_decide = solve.decide, solve.c_decide

        def counting_decide(*args, **kwargs):
            decides.append(1)
            return real_decide(*args, **kwargs)

        def recording_c_decide(*args, **kwargs):
            call_times.append(time.monotonic())
            deadlines.append(kwargs["deadline"])
            return real_c_decide(*args, **kwargs)

        monkeypatch.setattr(solve, "decide", counting_decide)
        monkeypatch.setattr(solve, "c_decide", recording_c_decide)
        g = disjoint_union(generate("random_gnp", 10, 0.3, seed=0), generate("random_gnp", 10, 0.3, seed=1))
        start = time.monotonic()
        res = minimize_bandwidth(g, Budget(max_seconds=60))
        assert res.status == OPTIMAL
        assert len(decides) == len(deadlines) == 2
        assert len(set(deadlines)) == 1
        assert start + 60 <= deadlines[0] <= call_times[0] + 60

    @pytest.mark.skipif(search.c_kernel_for(10) is None, reason="no compiled kernel")
    def test_mixed_kernels_in_stats(self, monkeypatch):
        # bounds leave [3, 4] on both components. At b = 3 the G(10, 0.3)
        # says yes on the compiled kernel, then the G(9, 0.35) says no on
        # the Python loop: each decide names the kernel that ran, and the
        # solve names both.
        decides = []
        real_decide = solve.decide

        def recording_decide(g, b, *args, **kwargs):
            res = real_decide(g, b, *args, **kwargs)
            decides.append((g.n, b, res.status, res.stats.kernel))
            return res

        monkeypatch.setattr(solve, "c_kernel_for", lambda n: search.c_kernel_for(n) if n == 10 else None)
        monkeypatch.setattr(solve, "decide", recording_decide)
        g = disjoint_union(generate("random_gnp", 10, 0.3, seed=0), generate("random_gnp", 9, 0.35, seed=0))
        res = minimize_bandwidth(g)
        assert decides == [(10, 3, YES, "c"), (9, 3, NO, "python")]
        assert (res.status, res.bandwidth, res.stats["kernel"]) == (OPTIMAL, 4, "mixed")

    def test_kernel_in_stats(self):
        assert minimize_bandwidth(generate("random_gnp", 10, 0.3, seed=1)).stats["kernel"] in ("c", "python")
        # No decide call: the identity ordering of a path meets the lower bound.
        assert minimize_bandwidth(generate("path", 6)).stats["kernel"] is None

    def test_result_dict_roundtrip(self):
        d = minimize_bandwidth(generate("cycle", 5)).to_dict()
        assert set(d) == {"bandwidth", "ordering", "status", "stats"}
        assert json.loads(json.dumps(d)) == d


class TestOracle:
    def test_examples(self):
        assert oracle_bandwidth(generate("path", 4)).bandwidth == 1
        assert oracle_bandwidth(generate("complete", 3)).bandwidth == 2
        assert oracle_bandwidth(generate("cycle", 5)).bandwidth == 2

    def test_agrees_with_permutation_scan(self):
        for seed in range(20):
            g = generate("random_gnp", 6, 0.45, seed=seed, connected=False)
            res = oracle_bandwidth(g)
            assert res.bandwidth == brute_bandwidth(g)
            assert ordering_bandwidth(g, res.ordering) == res.bandwidth

    def test_refuses_large(self):
        with pytest.raises(GraphError):
            oracle_bandwidth(generate("path", 11))
        assert oracle_bandwidth(generate("path", 11), limit=11).bandwidth == 1


class TestLowerBound:
    def test_examples(self):
        assert lower_bound(generate("star", 4)) == 2
        assert lower_bound(generate("path", 5)) == 1
        # K4: degree term gives ceil(3/2)=2, diameter term gives 3.
        assert lower_bound(generate("complete", 4)) == 3

    def test_never_exceeds_oracle(self):
        for seed in range(30):
            g = generate("random_gnp", 7, 0.4, seed=seed)
            assert lower_bound(g) <= oracle_bandwidth(g).bandwidth

    def test_degree_bound(self):
        g = generate("star", 9)
        assert lower_bound(g) >= math.ceil(9 / 2)

    def test_past_deadline_leaves_degree_bound(self):
        # K4: the diameter term (3) needs the eccentricities. A cycle
        # keeps 2: m >= n, so it is not a path.
        past = time.monotonic() - 1
        assert lower_bound(generate("complete", 4), deadline=past) == 2
        assert lower_bound(generate("cycle", 7), deadline=past) == 2

    def test_path_solve_honours_deadline(self):
        # The identity ordering already meets the degree bound, so the
        # bounds stop after one BFS.
        start = time.monotonic()
        res = minimize_bandwidth(generate("path", 4000), Budget(max_seconds=0.5))
        assert time.monotonic() - start < 1.0
        assert (res.status, res.bandwidth) == (OPTIMAL, 1)

    def test_cycle_solve_honours_deadline(self):
        # The first Cuthill-McKee ordering has bandwidth 2, which the
        # cycle bound meets, so the diameter search stops there.
        start = time.monotonic()
        res = minimize_bandwidth(generate("cycle", 2000), Budget(max_seconds=0.3))
        assert time.monotonic() - start < 0.8
        assert (res.status, res.bandwidth, res.stats["runs"]) == (OPTIMAL, 2, 0)

    def test_tree_solve_honours_deadline(self):
        # A BFS per vertex takes seconds here, even in C; the deadline
        # cuts the diameter search and leaves the degree bound.
        g = generate("random_tree", 20_000, seed=0)
        start = time.monotonic()
        res = minimize_bandwidth(g, Budget(max_seconds=0.3))
        assert time.monotonic() - start < 0.8
        assert res.status == UNKNOWN
        assert "unknown_brackets" not in res.stats
        assert res.stats["bracket"] == [5, res.bandwidth]


class TestLowerBoundPythonLoop(TestLowerBound):
    """TestLowerBound on bounds' Python loop, the library forced off."""

    @pytest.fixture(autouse=True)
    def python_loop(self, monkeypatch):
        monkeypatch.setattr(search, "_c_kernel", lambda: None)


@pytest.mark.skipif(search._c_kernel() is None, reason="no compiled kernel")
def test_compiled_bounds_finish_large_tree():
    # The compiled loop takes every BFS of random_tree(2000) in about
    # 0.04 s, so the diameter bound is in; the Python loop takes about
    # 1 s and stops at [4, 42].
    g = generate("random_tree", 2000, seed=0)
    res = minimize_bandwidth(g, Budget(max_seconds=0.3))
    assert (res.status, res.stats["bracket"]) == (UNKNOWN, [15, 42])


def oracle_corpus():
    """Every connected graph with up to 5 vertices, then seeded G(n, 0.3),
    random trees and caterpillars with n = 6-10."""
    for n in range(2, 6):
        yield from connected_graphs(n)
    for n in range(6, 11):
        for seed in range(12):
            yield generate("random_gnp", n, 0.3, seed=seed)
            yield generate("random_tree", n, seed=seed)
            yield generate("caterpillar", n // 2, n - n // 2, seed=seed)


class TestBounds:
    def test_bracket_the_oracle(self):
        met = 0
        for g in oracle_corpus():
            lo, hi, pos = bounds(g)
            assert lo <= oracle_bandwidth(g).bandwidth <= hi
            assert sorted(pos) == list(range(1, g.n + 1))
            assert ordering_bandwidth(g, pos) == hi
            assert lo == lower_bound(g)
            met += lo == hi
        assert met >= 700

    def test_no_decide_when_bounds_meet(self):
        for g in oracle_corpus():
            lo, hi, _ = bounds(g)
            if lo == hi:
                stats = minimize_bandwidth(g).stats
                assert (stats["kernel"], stats["runs"]) == (None, 0)

    def test_first_narrowest_start(self):
        # Every start of a cycle gives bandwidth 2; the first, from vertex
        # 0, is the witness: 0, then 1 and n-1, then 2 and n-2, ...
        lo, hi, pos = bounds(generate("cycle", 6))
        assert (lo, hi, pos) == (2, 2, [1, 2, 4, 6, 5, 3])

    def test_rejects_disconnected(self):
        with pytest.raises(GraphError):
            bounds(Graph(4, [(0, 1), (2, 3)]))
        with pytest.raises(GraphError):
            bounds(Graph(1, []))

    @pytest.mark.parametrize("family, params", [("cycle", (1000,)), ("caterpillar", (40, 5)), ("cycle", (4000,))])
    def test_bounds_certify_without_decide(self, family, params):
        # From the identity's upper end (999 and 40) the decides ran out
        # the budget at brackets [2, 500] and [2, 20]; the Cuthill-McKee
        # ordering meets lo, so no decide runs. On cycle(4000) the cycle
        # bound also spares the diameter search (3 s without it).
        start = time.monotonic()
        res = minimize_bandwidth(generate(family, *params), Budget(max_seconds=5))
        assert time.monotonic() - start < 2
        assert (res.status, res.bandwidth, res.stats["runs"]) == (OPTIMAL, 2, 0)


class TestBoundsPythonLoop(TestBounds):
    """TestBounds on bounds' Python loop, the library forced off."""

    @pytest.fixture(autouse=True)
    def python_loop(self, monkeypatch):
        monkeypatch.setattr(search, "_c_kernel", lambda: None)


def bounds_or_error(g, deadline=math.inf):
    """bounds(g, deadline), or "GraphError" where it raises one."""
    try:
        return bounds(g, deadline)
    except GraphError:
        return "GraphError"


def bounds_gate_corpus():
    """Every pool instance and its components, the oracle corpus, 700
    seeded graphs with n <= 40 (some disconnected) and large inputs,
    n > 64 among them."""
    for name in ("gnp", "tree", "small"):
        for g, _ in pool_instances(name):
            yield g
            yield from (comp for comp, _ in connected_components(g) if comp.n > 1)
    yield from oracle_corpus()
    rng = random.Random(7)
    for seed in range(100):
        n = rng.randint(2, 40)
        yield generate("random_gnp", n, rng.uniform(0.05, 0.6), seed=seed, connected=False)
        yield generate("random_gnp", n, rng.uniform(0.2, 0.9), seed=seed)
        yield generate("random_tree", n, seed=seed)
        yield generate("caterpillar", max(1, n // 3), n - max(1, n // 3), seed=seed)
        yield generate(("path", "star", "complete")[seed % 3], n - (seed % 3 == 1))
        yield generate("cycle", max(3, n))
        yield Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3])
    yield from (generate("random_tree", 2000, seed=0), generate("star", 1500), generate("cycle", 4000),
                generate("caterpillar", 40, 5), generate("random_gnp", 90, 0.05, seed=1))


@pytest.mark.skipif(search._c_kernel() is None, reason="no compiled kernel")
def test_compiled_bounds_match_python_loop(monkeypatch):
    # (lo, hi, pos), and the GraphError on a disconnected graph, are the
    # same from bw_bounds as from the Python loop, with and without a
    # past deadline.
    graphs = [g for g in bounds_gate_corpus() if g.n > 1]
    past = time.monotonic() - 1
    compiled = [(bounds_or_error(g), bounds_or_error(g, past)) for g in graphs]
    monkeypatch.setattr(search, "_c_kernel", lambda: None)
    for g, want in zip(graphs, compiled):
        assert (bounds_or_error(g), bounds_or_error(g, past)) == want, g
    assert sum(want[0] == "GraphError" for want in compiled) >= 50
    assert max(g.n for g in graphs) > 64


def pool_instances(name):
    with open(os.path.join(POOLS, f"{name}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    columns = doc["columns"]
    for row in doc["instances"]:
        inst = dict(zip(columns, row))
        kwargs = {"connected": inst["connected"]} if inst["family"] == "random_gnp" else {}
        yield generate(inst["family"], *inst["params"], seed=inst["seed"], **kwargs), inst["bandwidth"]


# Each pool's states_total summed over its instances, with the greedy
# leafy spanning tree (a BFS tree gave 50,696 on gnp and 52,213 on small)
# and both symmetry rules (40,393, 54,662 and 50,485 without them): a
# change may lower it, never raise it.
POOL_MAX_STATES = {"gnp": 38_435, "tree": 23_175, "small": 32_864}


@pytest.mark.parametrize("name, count", [("gnp", 28), ("tree", 32), ("small", 1211)])
def test_pinned_pools(name, count):
    # The benchmark's pools, each instance with its pinned bandwidth.
    solved = states = 0
    for g, pinned in pool_instances(name):
        res = minimize_bandwidth(g)
        assert (res.status, res.bandwidth) == (OPTIMAL, pinned)
        assert ordering_bandwidth(g, res.ordering) == res.bandwidth
        solved += 1
        states += res.stats["states_total"]
    assert solved == count
    assert states <= POOL_MAX_STATES[name]
