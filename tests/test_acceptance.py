"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The heavy sweeps (exhaustive small graphs, all labeled trees up
to 7 vertices) stay within a few minutes total.
"""

import math
import time

import pytest

from conftest import all_b_orderings, all_labeled_trees, connected_graphs
from reference_search import consistency_witness, edge_filter

from bwexact.analysis import McWeights, kappa_for, optimize_weights
from bwexact.assignments import enumerate_assignments, max_assignments
from bwexact.graph import Graph, generate, ordering_bandwidth, spanning_tree
from bwexact.solve import decide, minimize_bandwidth, oracle_bandwidth
from bwexact.search import per_run_state_ceiling


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_1_oracle_equivalence():
    checked = 0
    for n in range(1, 6):
        for g in connected_graphs(n):
            res = minimize_bandwidth(g)
            ora = oracle_bandwidth(g)
            assert res.status == "optimal"
            assert res.bandwidth == ora.bandwidth, (n, sorted(g.edges))
            assert ordering_bandwidth(g, res.ordering) == res.bandwidth
            assert ordering_bandwidth(g, ora.ordering) == ora.bandwidth
            checked += 1
    random_checked = 0
    for i in range(200):
        n = 6 + i % 3
        g = generate("random_gnp", n, 0.4, seed=10_000 + i)
        res = minimize_bandwidth(g)
        ora = oracle_bandwidth(g)
        assert res.status == "optimal" and res.bandwidth == ora.bandwidth
        assert ordering_bandwidth(g, res.ordering) == res.bandwidth
        random_checked += 1
    report(1, f"{checked} exhaustive (n<=5) + {random_checked} random (n in 6..8) "
              "graphs agree with the oracle")


def test_criterion_2_known_families():
    for n in range(2, 13):
        assert minimize_bandwidth(generate("path", n)).bandwidth == 1
        assert minimize_bandwidth(generate("complete", n)).bandwidth == n - 1
    for n in range(3, 11):
        g = generate("cycle", n)
        expected = oracle_bandwidth(g).bandwidth
        assert expected == (2 if n >= 4 else n - 1)
        assert minimize_bandwidth(g).bandwidth == expected
    for m in range(1, 10):
        g = generate("star", m)
        expected = oracle_bandwidth(g).bandwidth
        assert expected == math.ceil(m / 2)
        assert minimize_bandwidth(g).bandwidth == expected
    report(2, "paths, cliques (n<=12), cycles and stars (n<=10) all exact")


def _counter_corpus():
    for n in range(4, 9):
        yield generate("cycle", n)
    for m in range(3, 8):
        yield generate("star", m)
    for seed in range(8):
        yield generate("random_tree", 8, seed=seed)
    for seed in range(8):
        yield generate("random_gnp", 9, 0.35, seed=seed)


def test_criterion_3_phase1_counter():
    instances = 0
    for g in _counter_corpus():
        tree = spanning_tree(g, 0)
        for b in range(1, g.n):
            generated = sum(1 for _ in enumerate_assignments(Graph(g.n, []), tree, b))
            assert generated <= max_assignments(g.n)
            instances += 1
    report(3, f"{instances} unpruned assignment streams, zero phase-1 counter violations")


def test_criterion_4_phase2_counters():
    kappa = 4.8285
    runs = 0
    for g in _counter_corpus():
        n = g.n
        tree = spanning_tree(g, 0)
        ceiling = per_run_state_ceiling(n, tree.leaf_count)
        assert ceiling <= 4**n
        total_ceiling = 3 * (n + 1) * kappa**n
        for b in range(1, n):
            res = decide(g, b)
            assert res.stats.states_max_run <= ceiling
            assert res.stats.states_total <= total_ceiling
            runs += res.stats.runs
    report(4, f"{runs} search runs, zero phase-2 counter violations")


def test_criterion_5_recurrence_reproduction():
    ref = kappa_for(McWeights(0.8805, 1))
    assert 4.8280 <= ref.kappa <= 4.8290
    anchor = kappa_for(McWeights(1, 1))
    assert abs(anchor.kappa - 5) <= 1e-6
    weights, best = optimize_weights()
    assert best.kappa < 4.83
    report(5, f"kappa(0.8805, 1)={ref.kappa:.6f}, kappa(1, 1)={anchor.kappa:.6f}, "
              f"optimized kappa*={best.kappa:.6f} at "
              f"(alpha={weights.alpha:.4f}, beta={weights.beta:.4f})")


def test_criterion_6_assignment_completeness():
    trees = 0
    orderings = 0
    for n in range(2, 8):
        for g in all_labeled_trees(n):
            trees += 1
            tree = spanning_tree(g, 0)
            for b in (1, 2):
                if b >= n:
                    continue
                accepted = [
                    lo for lo in enumerate_assignments(Graph(n, []), tree, b)
                    if edge_filter(lo, tree, g)
                ]
                for pos in all_b_orderings(g, b):
                    orderings += 1
                    assert any(
                        consistency_witness(lo, tree, b, pos) for lo in accepted
                    ), (n, sorted(g.edges), b, pos)
    assert (trees, orderings) == (18_248, 774_002)
    report(6, f"{trees} labeled trees (n<=7), {orderings} b-orderings, "
              "every one consistent with an accepted assignment")


def test_criterion_7_scale_smoke():
    times = []
    for seed in range(3):
        g = generate("random_gnp", 14, 0.35, seed=seed)
        start = time.monotonic()
        res = minimize_bandwidth(g)
        elapsed = time.monotonic() - start
        assert res.status == "optimal"
        assert ordering_bandwidth(g, res.ordering) == res.bandwidth
        assert elapsed < 300, f"seed {seed} took {elapsed:.1f}s"
        times.append(elapsed)
    report(7, "n=14 instances solved in " +
              ", ".join(f"{t:.1f}s" for t in times) + " (cap 300s each)")
