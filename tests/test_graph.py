import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bwexact.graph import (
    Graph,
    GraphError,
    RootedTree,
    connected_components,
    generate,
    is_connected,
    ordering_bandwidth,
    parse_graph,
    spanning_tree,
    write_graph,
)
from bwexact.solve import bounds, lower_bound

# A perfect matching of 20,000 edges: 20,000 components, so a component
# split that rescans the whole graph per component takes close to a minute.
MATCHING = Graph(40_000, [(2 * i, 2 * i + 1) for i in range(20_000)])


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
        ("3 2\n0 1\n1 0", "line 3: repeated edge"),
        ("3 2\n0 1\n0 1", "line 3: repeated edge"),
        ("a 1", "line 1: non-integer header"),
        ("-1 0", "line 1: negative count"),
        ("2 1\n0 1 1", "line 2: expected edge"),
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

    def test_rejects_negative_count(self):
        with pytest.raises(GraphError, match="non-negative"):
            Graph(-1, [])

    def test_rejects_edge_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph(2, [(0, 5)])

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", True, None])
    def test_rejects_non_integer_count(self, n):
        # bool is an int too, but not a vertex count.
        with pytest.raises(GraphError, match="non-negative integer"):
            Graph(n, [])

    @pytest.mark.parametrize("edge", [(0, 1.0), ("0", 1), (True, 0)])
    def test_rejects_non_integer_endpoint(self, edge):
        with pytest.raises(GraphError, match="integer endpoints"):
            Graph(2, [edge])

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

    def test_connected_comes_back_as_itself(self):
        g = generate("random_gnp", 9, 0.4, seed=1)
        ((comp, orig),) = connected_components(g)
        assert comp is g and orig == list(range(9))

    def test_empty_graph(self):
        comps = connected_components(Graph(3, []))
        assert [c.n for c, _ in comps] == [1, 1, 1]

    def test_relabeling_preserves_edges(self):
        g = Graph(6, [(5, 3), (3, 1), (0, 2)])
        for comp, orig in connected_components(g):
            for u, v in comp.edges:
                a, b = orig[u], orig[v]
                assert (min(a, b), max(a, b)) in g.edges

    def test_matching_is_linear(self):
        start = time.monotonic()
        comps = connected_components(MATCHING)
        assert time.monotonic() - start < 10
        assert len(comps) == 20_000
        assert all(comp.n == 2 and comp.m == 1 for comp, _ in comps)
        start = time.monotonic()
        assert not is_connected(MATCHING)
        assert time.monotonic() - start < 10


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
        assert len(tree.leaves) == 4 and tree.root == 0

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            spanning_tree(Graph(4, [(0, 1), (2, 3)]), 0)

    @pytest.mark.parametrize("root", [5, -1])
    def test_root_must_be_a_vertex(self, root):
        with pytest.raises(GraphError, match="out of range"):
            spanning_tree(generate("path", 5), root)

    def test_preorder_covers_all(self):
        g = generate("random_gnp", 9, 0.4, seed=1)
        tree = spanning_tree(g, 3)
        assert sorted(tree.preorder) == list(range(9))
        assert tree.preorder[0] == 3

    def test_children_derived_ascending(self):
        tree = RootedTree(2, [2, 2, None, 1, 2])
        assert tree.children == ((), (3,), (0, 1, 4), (), ())
        assert tree.preorder == (2, 0, 1, 3, 4)
        assert tree.leaves == {0, 3, 4}


def cross_check_corpus():
    """Seeded G(n, p), some of them disconnected, random trees and caterpillars."""
    for seed in range(8):
        yield generate("random_gnp", 12, 0.15, seed=seed, connected=False)
        yield generate("random_gnp", 10, 0.4, seed=seed, connected=False)
        yield generate("random_tree", 13, seed=seed)
        yield generate("caterpillar", 5, 7, seed=seed)


class TestAgainstNetworkx:
    @pytest.fixture
    def nx(self):
        return pytest.importorskip("networkx")

    @staticmethod
    def to_nx(nx, g):
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges)
        return G

    def test_components(self, nx):
        disconnected = 0
        for g in cross_check_corpus():
            G = self.to_nx(nx, g)
            ours = sorted(orig for _, orig in connected_components(g))
            assert ours == sorted(sorted(c) for c in nx.connected_components(G))
            assert is_connected(g) == nx.is_connected(G)
            disconnected += not is_connected(g)
        assert disconnected >= 4

    def test_eccentricities(self, nx):
        # lower_bound's diameter term comes from one BFS per vertex.
        for g in cross_check_corpus():
            G = self.to_nx(nx, g)
            if not nx.is_connected(G):
                with pytest.raises(GraphError):
                    lower_bound(g)
            for comp, orig in connected_components(g):
                if comp.n < 2:
                    continue
                H = G.subgraph(orig)
                theirs = max(math.ceil(max(d for _, d in H.degree) / 2),
                             math.ceil((comp.n - 1) / nx.diameter(H)))
                assert lower_bound(comp) == theirs

    def test_cuthill_mckee_upper_bound(self, nx):
        # bounds' hi and pos: the identity ordering, or the first start
        # whose BFS with neighbors by (degree, id) is strictly narrower.
        for g in cross_check_corpus():
            for comp, _ in connected_components(g):
                if comp.n < 2:
                    continue
                G = self.to_nx(nx, comp)
                best = list(range(1, comp.n + 1))
                for src in range(comp.n):
                    order = [src] + [v for _, v in nx.bfs_edges(
                        G, src, sort_neighbors=lambda ns: sorted(ns, key=lambda w: (G.degree[w], w)))]
                    pos = [0] * comp.n
                    for i, v in enumerate(order, 1):
                        pos[v] = i
                    if ordering_bandwidth(comp, pos) < ordering_bandwidth(comp, best):
                        best = pos
                _, hi, pos = bounds(comp)
                assert hi == ordering_bandwidth(comp, best)
                assert pos == best

    def test_spanning_tree_is_greedy_leafy(self, nx):
        # From every root: the greedy rule as reference_leafy_parents spells
        # it out, and on a tree input the input itself, which is what
        # networkx's BFS from that root gives.
        trees = 0
        for g in cross_check_corpus():
            G = self.to_nx(nx, g)
            for comp, orig in connected_components(g):
                for r in range(comp.n):
                    tree = spanning_tree(comp, r)
                    assert list(tree.parent) == reference_leafy_parents(comp, r)
                    if comp.m == comp.n - 1:
                        parent = {orig[v]: None if p is None else orig[p]
                                  for v, p in enumerate(tree.parent)}
                        theirs = dict(nx.bfs_predecessors(G, orig[r]))
                        assert parent == {orig[r]: None, **theirs}
                        trees += 1
        assert trees >= 200  # every root of the 8 random trees and 8 caterpillars


def reference_leafy_parents(g, root):
    """spanning_tree's parents by the rule itself, rescanning the whole
    tree at each step: the tree vertex with the most neighbors outside
    the tree, the lowest id among ties, takes them all as children."""
    parent = {root: None}
    while len(parent) < g.n:
        outside = {v: [w for w in g.adj[v] if w not in parent] for v in parent}
        v = min(parent, key=lambda u: (-len(outside[u]), u))
        parent.update(dict.fromkeys(outside[v], v))
    return [parent[v] for v in range(g.n)]


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

    @pytest.mark.parametrize("family, params, index", [
        ("path", (5.0,), 1),
        ("star", (True,), 1),
        ("random_gnp", (8, "0.3"), 2),
        ("random_gnp", ("8", 0.3), 1),
        ("random_gnp", (8, False), 2),
        ("caterpillar", (3, 2.0), 2),
    ])
    def test_rejects_mistyped_params(self, family, params, index):
        # An int passes for a float; a bool passes for neither.
        with pytest.raises(GraphError, match=f"family {family} parameter {index} must be"):
            generate(family, *params)

    def test_int_passes_for_float(self):
        assert generate("random_gnp", 4, 1) == generate("complete", 4)
