import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from conftest import brute_bandwidth
from reference_search import edge_filter

import bwexact
from bwexact import solve
from bwexact.assignments import enumerate_assignments
from bwexact.graph import Graph, GraphError, generate, ordering_bandwidth, spanning_tree
from bwexact.search import WitnessError
from bwexact.solve import (
    Budget,
    DecideResult,
    DecideStats,
    NO,
    OPTIMAL,
    UNKNOWN,
    YES,
    decide,
    lower_bound,
    minimize_bandwidth,
    oracle_bandwidth,
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bwexact.__file__)))


def run_isolated(code: str, timeout: float) -> str:
    """Run `code` in a fresh interpreter in its own session and return
    its stdout. Past `timeout` seconds the whole session, forked search
    workers included, is killed and the test fails: a hang must fail,
    not stall the suite."""
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
            # "no" after 28,280 runs over 8 parts.
            (generate("random_tree", 20), (2,), None),
            # Capped runs in several parts: "unknown" after 1,584 runs.
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
        assert {(YES, 147), (NO, 28_280), (UNKNOWN, 1_584)} <= statuses
        g = generate("random_tree", 14, seed=8)
        tree = spanning_tree(g, 0)
        first, second = (solve.walk(g, 2, tree, range(c, c + 1), 1 << 26, None)[0] for c in (-1, 0))
        assert (first, second) == (NO, YES)

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

    def test_dead_worker_reports_unknown(self):
        # Every worker dies on its first part, whichever kernel walks it;
        # the parent itself never searches when workers > 1.
        out = run_isolated("""
            import os, time
            from bwexact import solve
            from bwexact.graph import generate
            die = lambda *args, **kwargs: os._exit(1)
            for c_decide in (die, lambda *args, **kwargs: None):
                solve.c_decide, solve.dfs_decide = c_decide, die
                start = time.monotonic()
                res = solve.decide(generate("random_gnp", 9, 0.35, seed=11), 3, workers=2)
                print(res.status, res.ordering, time.monotonic() - start)
        """, timeout=30)
        lines = [line.split() for line in out.splitlines()]
        assert len(lines) == 2
        for status, ordering, seconds in lines:
            assert (status, ordering) == (UNKNOWN, "None")
            assert float(seconds) < 5

    def test_worker_exception_reraised(self, monkeypatch):
        # Raised in the compiled part kernel, then in the Python one.
        def failing(*args, **kwargs):
            raise WitnessError("kernel bug")

        monkeypatch.setattr(solve, "dfs_decide", failing)
        for c_decide in (failing, lambda *args, **kwargs: None):
            monkeypatch.setattr(solve, "c_decide", c_decide)
            with pytest.raises(WitnessError, match="kernel bug"):
                decide(generate("cycle", 6), 2, workers=2)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_workers_below_one(self, workers):
        with pytest.raises(ValueError):
            decide(generate("cycle", 6), 2, workers=workers)
        with pytest.raises(ValueError):
            minimize_bandwidth(generate("path", 6), workers=workers)


    def test_parallel_workers_honour_deadline(self):
        # Single runs on this tree at b=5 take seconds, so the deadline
        # must stop the workers mid-run. The state cap only bounds memory
        # should it not.
        g = generate("random_tree", 24, seed=0)
        start = time.monotonic()
        res = decide(g, 5, Budget(max_states=1_000_000, max_seconds=0.5), workers=2)
        assert res.status == UNKNOWN
        assert time.monotonic() - start < 0.5 + 2.0

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

    def test_kernel_reported(self):
        assert decide(generate("cycle", 6), 2).stats.kernel in ("c", "python")
        assert decide(generate("star", 21), 11).stats.kernel == "python"


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

    def test_disconnected_composition(self):
        g = Graph(7, [(0, 1), (2, 3), (3, 4), (2, 4), (5, 6)])
        res = minimize_bandwidth(g)
        assert res.status == OPTIMAL
        assert res.bandwidth == oracle_bandwidth(g).bandwidth
        assert ordering_bandwidth(g, res.ordering) == res.bandwidth
        # Blocks are contiguous, larger components first.
        triangle_positions = sorted(res.ordering[v] for v in (2, 3, 4))
        assert triangle_positions == [1, 2, 3]

    def test_unknown_propagates(self):
        g = generate("random_gnp", 9, 0.5, seed=3)
        res = minimize_bandwidth(g, Budget(max_states=2))
        assert res.status == UNKNOWN
        assert "unknown_brackets" in res.stats

    def test_bad_witness_raises(self, monkeypatch):
        # A decide that says yes with an ordering of bandwidth 4 on C5.
        def lying_decide(g, b, *args, **kwargs):
            return DecideResult(YES, list(range(1, g.n + 1)), DecideStats())

        monkeypatch.setattr(solve, "decide", lying_decide)
        with pytest.raises(WitnessError):
            minimize_bandwidth(generate("cycle", 5))

    def test_one_deadline_per_solve(self, monkeypatch):
        # A solve of two components makes several decide calls; every
        # compiled decide must get the deadline fixed when the solve began.
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
        a = generate("random_gnp", 8, 0.5, seed=1)
        b = generate("cycle", 7)
        g = Graph(15, list(a.edges) + [(u + 8, v + 8) for u, v in b.edges])
        start = time.monotonic()
        res = minimize_bandwidth(g, Budget(max_seconds=60))
        assert res.status == OPTIMAL
        assert len(decides) >= 3
        assert len(set(deadlines)) == 1
        assert start + 60 <= deadlines[0] <= call_times[0] + 60

    def test_kernel_in_stats(self):
        assert minimize_bandwidth(generate("cycle", 6)).stats["kernel"] in ("c", "python")
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
