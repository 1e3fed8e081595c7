import pytest

from conftest import all_b_orderings, all_labeled_trees, max_assignments
from reference_search import consistency_witness, edge_filter, hi

from bwexact.assignments import enumerate_assignments, segment_width
from bwexact.graph import Graph, RootedTree, generate, spanning_tree


def p2():
    g = Graph(2, [(0, 1)])
    return g, spanning_tree(g, 0)


def unpruned(tree, b):
    """The stream without the edge-distance prune."""
    return enumerate_assignments(Graph(tree.n, []), tree, b)


class TestEnumerate:
    def test_p2_count_and_segments(self):
        g, tree = p2()
        assigns = list(unpruned(tree, 1))
        assert len(assigns) == 2
        assert [lo[0] for lo in assigns] == [-1, 0]
        # Leaf is forced one base segment left of its parent, width 4.
        for lo in assigns:
            assert lo[1] == lo[0] - 1
        assert segment_width(tree, 0) == 2 and segment_width(tree, 1) == 4
        # Root segment (0, 2) covers base segments 0 and 1, so positions
        # 1 .. 4 clipped to {1, 2}; the leaf's is (-1, 3).
        lo = assigns[1]
        assert (lo[0], hi(lo, tree, 0)) == (0, 2)
        assert (lo[1], hi(lo, tree, 1)) == (-1, 3)
        assert [consistency_witness(lo, tree, 1, [p, 1]) for p in (0, 1, 2, 3)] == [False, True, True, False]

    def test_star_count_equals_root_choices(self):
        g = generate("star", 2)
        tree = spanning_tree(g, 0)
        assigns = list(unpruned(tree, 1))
        root_choices = {lo[0] for lo in assigns}
        assert len(assigns) == len(root_choices) == 3

    def test_inner_child_left_then_right(self):
        g = generate("path", 3)
        tree = spanning_tree(g, 0)
        for lo in unpruned(tree, 1):
            assert abs(lo[1] - lo[0]) == 1  # inner child
            assert lo[2] == lo[1] - 1  # leaf child

    @pytest.mark.parametrize("seed", range(8))
    def test_count_bound_random_trees(self, seed):
        g = generate("random_tree", 7, seed=seed)
        tree = spanning_tree(g, 0)
        for b in (1, 2, 3):
            count = sum(1 for _ in unpruned(tree, b))
            assert count <= max_assignments(7, len(tree.leaves))

    def test_no_empty_segments(self):
        g = generate("random_tree", 6, seed=3)
        tree = spanning_tree(g, 0)
        for lo in unpruned(tree, 2):
            for v in range(6):
                # Some position in 1..6 lies in a base segment of v's.
                assert any(lo[v] <= (p - 1) // 3 < hi(lo, tree, v) for p in range(1, 7))

    def test_pruned_stream_is_subset_with_same_accepted_set(self):
        for seed in range(5):
            g = generate("random_gnp", 7, 0.4, seed=seed)
            tree = spanning_tree(g, 0)
            for b in (1, 2):
                plain = [lo for lo in unpruned(tree, b) if edge_filter(lo, tree, g)]
                assert list(enumerate_assignments(g, tree, b)) == plain

    def test_rejects_bad_parameters(self):
        g, tree = p2()
        with pytest.raises(ValueError):
            list(enumerate_assignments(g, tree, 0))
        with pytest.raises(ValueError):
            list(enumerate_assignments(Graph(3, []), tree, 1))

    def test_deep_tree_does_not_recurse(self):
        # The star K(1,1500) puts 1500 leaves below the root, deeper than
        # Python's default recursion limit; the stream is one loop.
        g = generate("star", 1500)
        tree = spanning_tree(g, 0)
        assigns = list(enumerate_assignments(g, tree, 750))
        assert [lo[0] for lo in assigns] == [-1, 0, 1]
        assert all(lo[1:] == (lo[0] - 1,) * 1500 for lo in assigns)


class TestEdgeFilter:
    def chain4(self):
        # Hand-built chain tree so arbitrary lo vectors can be probed.
        tree = RootedTree(0, [None, 0, 1, 2])
        return tree

    def test_identical_segments_pass(self):
        tree = self.chain4()
        g = Graph(4, [(0, 1)])
        assert edge_filter((0, 0, 0, 0), tree, g)

    def test_distant_segments_fail(self):
        tree = self.chain4()
        g = Graph(4, [(0, 1)])
        assert not edge_filter((0, 3, 3, 3), tree, g)

    def test_overlapping_segments_pass(self):
        tree = self.chain4()
        g = Graph(4, [(0, 1)])
        assert edge_filter((0, 1, 1, 1), tree, g)


class TestConsistency:
    def test_p2_identity(self):
        g, tree = p2()
        assert consistency_witness((0, -1), tree, 1, [1, 2])

    def test_position_outside_segment(self):
        g, tree = p2()
        lo = (1, 0)
        # Root segment (1, 3) starts at base segment 1, positions 3 ..;
        # position 1 lies in base segment 0, outside it.
        assert (1 - 1) // (1 + 1) < lo[0]
        assert not consistency_witness(lo, tree, 1, [1, 2])


class TestCompleteness:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_every_b_ordering_has_accepted_assignment(self, n):
        # Completeness spot check on a slice of labeled trees; the
        # acceptance suite runs the full sweep up to n=7.
        trees = list(all_labeled_trees(n))
        for g in trees[:: max(1, len(trees) // 40)]:
            tree = spanning_tree(g, 0)
            for b in (1, 2):
                accepted = [lo for lo in unpruned(tree, b) if edge_filter(lo, tree, g)]
                for pos in all_b_orderings(g, b):
                    assert any(consistency_witness(lo, tree, b, pos) for lo in accepted)
