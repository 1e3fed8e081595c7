import pytest
from hypothesis import given
from hypothesis import strategies as st

from bwexact.graph import (
    Graph,
    GraphError,
    connected_components,
    generate,
    is_connected,
    ordering_bandwidth,
    parse_graph,
    spanning_tree,
    write_graph,
)


class TestParse:
    def test_path3(self):
        g = parse_graph("3 2\n0 1\n1 2")
        assert g.n == 3 and g.edges == {(0, 1), (1, 2)}

    def test_single_vertex(self):
        g = parse_graph("1 0")
        assert g.n == 1 and g.m == 0

    def test_triangle(self):
        g = parse_graph("3 3\n0 1\n1 2\n0 2")
        assert g.edges == {(0, 1), (1, 2), (0, 2)}

    def test_comments_and_blank_lines(self):
        g = parse_graph("# graph\n\n2 1\n# edge\n0 1\n")
        assert g.m == 1

    @pytest.mark.parametrize("text,fragment", [
        ("3 1\n0 9", "line 2"),
        ("3 1\n1 1", "self-loop"),
        ("3 1\nx y", "line 2"),
        ("3\n0 1", "header"),
        ("", "empty"),
        ("2 2\n0 1", "m=2"),
    ])
    def test_errors_name_line(self, text, fragment):
        with pytest.raises(GraphError, match=fragment):
            parse_graph(text)

    def test_roundtrip(self):
        g = generate("random_gnp", 8, 0.4, seed=5)
        assert parse_graph(write_graph(g)) == g


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 0)])

    def test_deduplicates(self):
        g = Graph(2, [(0, 1), (1, 0)])
        assert g.m == 1

    def test_adjacency_symmetric(self):
        g = generate("random_gnp", 7, 0.5, seed=2)
        for u in range(g.n):
            for v in g.adj[u]:
                assert u in g.adj[v]
                assert (min(u, v), max(u, v)) in g.edges


class TestComponents:
    def test_path_single(self):
        comps = connected_components(generate("path", 3))
        assert len(comps) == 1 and comps[0][0].n == 3

    def test_two_disjoint_edges(self):
        comps = connected_components(Graph(4, [(0, 1), (2, 3)]))
        assert [c.n for c, _ in comps] == [2, 2]
        assert comps[0][1] == [0, 1] and comps[1][1] == [2, 3]

    def test_empty_graph(self):
        comps = connected_components(Graph(3, []))
        assert [c.n for c, _ in comps] == [1, 1, 1]

    def test_relabeling_preserves_edges(self):
        g = Graph(6, [(5, 3), (3, 1), (0, 2)])
        for comp, orig in connected_components(g):
            for u, v in comp.edges:
                a, b = orig[u], orig[v]
                assert (min(a, b), max(a, b)) in g.edges


class TestSpanningTree:
    def test_k3(self):
        tree = spanning_tree(generate("complete", 3), 0)
        assert tree.parent[1] == 0 and tree.parent[2] == 0
        assert tree.leaves == {1, 2}

    def test_path_chain(self):
        tree = spanning_tree(generate("path", 3), 0)
        assert tree.parent[2] == 1 and tree.leaves == {2}

    def test_star(self):
        tree = spanning_tree(generate("star", 4), 0)
        assert tree.leaf_count == 4 and tree.root == 0

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            spanning_tree(Graph(4, [(0, 1), (2, 3)]), 0)

    def test_preorder_covers_all(self):
        g = generate("random_gnp", 9, 0.4, seed=1)
        tree = spanning_tree(g, 3)
        assert sorted(tree.preorder) == list(range(9))
        assert tree.preorder[0] == 3


class TestOrderingBandwidth:
    def test_examples(self):
        p3 = generate("path", 3)
        assert ordering_bandwidth(p3, [1, 2, 3]) == 1
        assert ordering_bandwidth(generate("complete", 3), [2, 1, 3]) == 2
        assert ordering_bandwidth(p3, [1, 3, 2]) == 2

    def test_edgeless(self):
        assert ordering_bandwidth(Graph(3, []), [2, 3, 1]) == 0

    def test_non_bijection_rejected(self):
        with pytest.raises(GraphError):
            ordering_bandwidth(generate("path", 3), [1, 1, 2])

    @given(st.integers(0, 100), st.permutations(list(range(1, 8))))
    def test_reversal_invariance_and_bounds(self, seed, perm):
        g = generate("random_gnp", 7, 0.5, seed=seed, connected=False)
        n = g.n
        bw = ordering_bandwidth(g, list(perm))
        reverse = [n + 1 - p for p in perm]
        assert ordering_bandwidth(g, reverse) == bw
        assert 0 <= bw <= n - 1


class TestGenerate:
    def test_path(self):
        assert generate("path", 4).edges == {(0, 1), (1, 2), (2, 3)}

    def test_cycle3_is_triangle(self):
        assert generate("cycle", 3) == generate("complete", 3)

    def test_star(self):
        g = generate("star", 4)
        assert g.n == 5 and g.edges == {(0, i) for i in range(1, 5)}

    def test_random_deterministic(self):
        assert generate("random_gnp", 9, 0.3, seed=4) == generate(
            "random_gnp", 9, 0.3, seed=4
        )

    @pytest.mark.parametrize("family,params", [
        ("random_tree", (9,)),
        ("random_gnp", (9, 0.3)),
        ("caterpillar", (4, 5)),
    ])
    def test_families_connected_and_simple(self, family, params):
        for seed in range(5):
            g = generate(family, *params, seed=seed)
            assert is_connected(g)
            assert all(u != v for u, v in g.edges)

    def test_tree_edge_count(self):
        for seed in range(10):
            g = generate("random_tree", 8, seed=seed)
            assert g.m == 7 and is_connected(g)

    def test_invalid_params(self):
        with pytest.raises(GraphError):
            generate("cycle", 2)
        with pytest.raises(GraphError):
            generate("random_gnp", 5, 1.5)
        with pytest.raises(GraphError):
            generate("moebius", 5)
        with pytest.raises(GraphError, match="family random_gnp takes 2 parameter"):
            generate("random_gnp", 5)
