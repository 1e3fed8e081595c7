"""Shared test helpers: independent brute-force oracles kept deliberately
dumb so they never share code paths with the solver."""

import itertools

import pytest

from bwexact.graph import Graph, is_connected


def brute_bandwidth(g: Graph) -> int:
    """Minimum bandwidth by scanning every permutation. n <= 8 only."""
    n = g.n
    best = n  # above any possible value
    for perm in itertools.permutations(range(1, n + 1)):
        width = max((abs(perm[u] - perm[v]) for u, v in g.edges), default=0)
        if width < best:
            best = width
            if best == 0:
                break
    return best


def all_b_orderings(g: Graph, b: int) -> list[list[int]]:
    """Every ordering with bandwidth <= b, by pruned exhaustive placement."""
    n = g.n
    pos = [0] * n
    at = [0] * (n + 1)  # at[p]: the vertex at position p
    out = []

    def rec(p):
        if p > n:
            out.append(list(pos))
            return
        # The vertex at p - b - 1 is too far from every position left, so
        # an unplaced neighbour of it makes this branch dead.
        if p > b + 1 and any(pos[u] == 0 for u in g.adj[at[p - b - 1]]):
            return
        for v in range(n):
            if pos[v]:
                continue
            if all(pos[u] == 0 or p - pos[u] <= b for u in g.adj[v]):
                pos[v] = p
                at[p] = v
                rec(p + 1)
                pos[v] = 0

    rec(1)
    return out


def connected_graphs(n: int):
    """All connected graphs on n labeled vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = Graph(n, edges)
        if is_connected(g):
            yield g


def all_labeled_trees(n: int):
    """All labeled trees on n vertices, via Pruefer sequences."""
    from bwexact.graph import tree_from_pruefer

    if n == 1:
        yield Graph(1, [])
        return
    if n == 2:
        yield Graph(2, [(0, 1)])
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield tree_from_pruefer(n, list(seq))
