"""Shared test helpers: independent brute-force oracles kept deliberately
dumb so they never share code paths with the solver, and the paper's
counting bounds for one spanning tree, which acceptance criteria 3 and
4 check the solver's counters against."""

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


def max_assignments(n: int, leaf_count: int) -> int:
    """Ceiling on the assignments generated over a tree with `leaf_count`
    leaves: (n+1) * 2^(n-L-1). The root has at most n+1 choices, each
    other inner vertex two and each leaf one."""
    return (n + 1) * 2 ** (n - leaf_count - 1)


def per_run_state_ceiling(n: int, leaf_count: int) -> int:
    """Visited-state ceiling for one run over a tree with `leaf_count`
    leaves: 3^(n-L) * 4^L."""
    return 3 ** (n - leaf_count) * 4**leaf_count


def all_b_orderings(g: Graph, b: int) -> list[list[int]]:
    """Every ordering with bandwidth <= b, by pruned exhaustive placement,
    in lexicographic order of the vertex sequence."""
    n = g.n
    nbr = [sum(1 << u for u in a) for a in g.adj]
    pos = [0] * n  # a leaf has placed every vertex, so pos needs no undo
    at = [0] * (n + 1)  # at[p]: the vertex at position p
    out = []

    def rec(p, placed, recent):
        # placed: mask of the vertices at 1..p-1; recent: those at p-b..p-1.
        if p > n:
            out.append(list(pos))
            return
        # The vertex at p - b - 1 is too far from every position left, so
        # an unplaced neighbour of it makes this branch dead.
        if p > b + 1 and nbr[at[p - b - 1]] & ~placed:
            return
        # v may go at p unless a neighbour sits more than b positions back.
        far = placed & ~recent
        leaving = 1 << at[p - b] if p > b else 0  # more than b back from p + 1
        free = ((1 << n) - 1) & ~placed
        while free:
            bit = free & -free
            free ^= bit
            v = bit.bit_length() - 1
            if not nbr[v] & far:
                pos[v] = p
                at[p] = v
                rec(p + 1, placed | bit, (recent | bit) & ~leaving)

    rec(1, 0, 0)
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
