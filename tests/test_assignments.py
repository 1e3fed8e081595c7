import pytest

from conftest import all_b_orderings, all_labeled_trees

from bwexact.assignments import (
    SegmentAssignment,
    consistency_witness,
    edge_filter,
    enumerate_assignments,
    max_assignments,
)
from bwexact.graph import Graph, RootedTree, generate, spanning_tree


def p2():
    g = Graph(2, [(0, 1)])
    return g, spanning_tree(g, 0)


class TestEnumerate:
    def test_p2_count_and_segments(self):
        g, tree = p2()
        assigns = list(enumerate_assignments(tree, 2, 1))
        assert len(assigns) == 2
        assert [phi.lo[0] for phi in assigns] == [-1, 0]
        # Leaf is forced one base segment left of its parent, width 4.
        for phi in assigns:
            assert phi.lo[1] == phi.lo[0] - 1
            assert phi.width(0) == 2 and phi.width(1) == 4
        # Root segment (0, 2) covers base segments 0 and 1, so positions
        # 1 .. 4 clipped to {1, 2}; the leaf's is (-1, 3).
        phi = assigns[1]
        assert (phi.lo[0], phi.hi(0)) == (0, 2)
        assert (phi.lo[1], phi.hi(1)) == (-1, 3)
        assert [consistency_witness(phi, [p, 1]) for p in (0, 1, 2, 3)] == [False, True, True, False]

    def test_star_count_equals_root_choices(self):
        g = generate("star", 2)
        tree = spanning_tree(g, 0)
        assigns = list(enumerate_assignments(tree, 3, 1))
        root_choices = {phi.lo[0] for phi in assigns}
        assert len(assigns) == len(root_choices) == 3

    def test_inner_child_left_then_right(self):
        g = generate("path", 3)
        tree = spanning_tree(g, 0)
        for phi in enumerate_assignments(tree, 3, 1):
            assert abs(phi.lo[1] - phi.lo[0]) == 1  # inner child
            assert phi.lo[2] == phi.lo[1] - 1  # leaf child

    @pytest.mark.parametrize("seed", range(8))
    def test_count_bound_random_trees(self, seed):
        g = generate("random_tree", 7, seed=seed)
        tree = spanning_tree(g, 0)
        for b in (1, 2, 3):
            count = sum(1 for _ in enumerate_assignments(tree, 7, b))
            assert count <= max_assignments(7)

    def test_no_empty_segments(self):
        g = generate("random_tree", 6, seed=3)
        tree = spanning_tree(g, 0)
        for phi in enumerate_assignments(tree, 6, 2):
            for v in range(6):
                # Some position in 1..6 lies in a base segment of v's.
                assert any(phi.lo[v] <= (p - 1) // 3 < phi.hi(v) for p in range(1, 7))

    def test_pruned_stream_is_subset_with_same_accepted_set(self):
        for seed in range(5):
            g = generate("random_gnp", 7, 0.4, seed=seed)
            tree = spanning_tree(g, 0)
            for b in (1, 2):
                plain = [
                    phi.lo for phi in enumerate_assignments(tree, 7, b)
                    if edge_filter(phi, g)
                ]
                pruned = [
                    phi.lo for phi in enumerate_assignments(tree, 7, b, graph=g)
                ]
                assert pruned == plain

    def test_rejects_bad_parameters(self):
        _, tree = p2()
        with pytest.raises(ValueError):
            list(enumerate_assignments(tree, 2, 0))


class TestEdgeFilter:
    def chain4(self):
        # Hand-built chain tree so arbitrary lo vectors can be probed.
        tree = RootedTree(0, [None, 0, 1, 2], [[1], [2], [3], []])
        return tree

    def test_identical_segments_pass(self):
        tree = self.chain4()
        g = Graph(4, [(0, 1)])
        phi = SegmentAssignment((0, 0, 0, 0), 1, tree)
        assert edge_filter(phi, g)

    def test_distant_segments_fail(self):
        tree = self.chain4()
        g = Graph(4, [(0, 1)])
        phi = SegmentAssignment((0, 3, 3, 3), 1, tree)
        assert not edge_filter(phi, g)

    def test_overlapping_segments_pass(self):
        tree = self.chain4()
        g = Graph(4, [(0, 1)])
        phi = SegmentAssignment((0, 1, 1, 1), 1, tree)
        assert edge_filter(phi, g)


class TestConsistency:
    def test_p2_identity(self):
        g, tree = p2()
        phi = SegmentAssignment((0, -1), 1, tree)
        assert consistency_witness(phi, [1, 2])

    def test_position_outside_segment(self):
        g, tree = p2()
        phi = SegmentAssignment((1, 0), 1, tree)
        # Root segment (1, 3) starts at base segment 1, positions 3 ..;
        # position 1 lies in base segment 0, outside it.
        assert (1 - 1) // (1 + 1) < phi.lo[0]
        assert not consistency_witness(phi, [1, 2])


class TestCompleteness:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_every_b_ordering_has_accepted_assignment(self, n):
        # Completeness spot check on a slice of labeled trees; the
        # acceptance suite runs the full sweep up to n=7.
        trees = list(all_labeled_trees(n))
        for g in trees[:: max(1, len(trees) // 40)]:
            tree = spanning_tree(g, 0)
            for b in (1, 2):
                accepted = [
                    phi for phi in enumerate_assignments(tree, n, b)
                    if edge_filter(phi, g)
                ]
                for pos in all_b_orderings(g, b):
                    assert any(consistency_witness(phi, pos) for phi in accepted)
