import math
import time

import pytest

from conftest import brute_bandwidth

from bwexact import solve
from bwexact.graph import Graph, GraphError, generate, ordering_bandwidth
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
    SolveResult,
)


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
        g = generate("complete", 6)
        res = decide(g, 4, Budget(max_states=3))
        assert res.status == UNKNOWN and res.ordering is None

    def test_preconditions(self):
        with pytest.raises(GraphError):
            decide(Graph(4, [(0, 1), (2, 3)]), 1)  # disconnected
        with pytest.raises(GraphError):
            decide(generate("path", 4), 0)
        with pytest.raises(GraphError):
            decide(generate("path", 4), 4)

    def test_prune_matches_unpruned(self):
        for seed in range(6):
            g = generate("random_gnp", 7, 0.4, seed=seed)
            for b in (1, 2, 3):
                a = decide(g, b, prune=True)
                c = decide(g, b, prune=False)
                assert a.status == c.status
                assert a.stats.assignments_accepted == c.stats.assignments_accepted

    def test_parallel_matches_sequential(self):
        g = generate("random_gnp", 9, 0.35, seed=11)
        for b in (2, 3, 4):
            seq = decide(g, b)
            par = decide(g, b, workers=3)
            assert seq.status == par.status
            assert seq.stats.kernel == par.stats.kernel
            if seq.status == YES:
                assert ordering_bandwidth(g, par.ordering) <= b


    def test_parallel_workers_honour_deadline(self):
        # Single runs on this tree at b=5 take seconds, so the deadline
        # must stop the workers mid-run. The state cap only bounds memory
        # should it not.
        g = generate("random_tree", 24, seed=0)
        start = time.monotonic()
        res = decide(g, 5, Budget(max_states=1_000_000, max_seconds=0.5), workers=2)
        assert res.status == UNKNOWN
        assert time.monotonic() - start < 0.5 + 2.0

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

    def test_kernel_in_stats(self):
        assert minimize_bandwidth(generate("cycle", 6)).stats["kernel"] in ("c", "python")
        # No decide call: the identity ordering of a path meets the lower bound.
        assert minimize_bandwidth(generate("path", 6)).stats["kernel"] is None

    def test_result_dict_roundtrip(self):
        res = minimize_bandwidth(generate("cycle", 5))
        assert SolveResult.from_dict(res.to_dict()) == res


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
