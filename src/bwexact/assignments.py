"""Phase 1: enumerate candidate segment assignments over a rooted
spanning tree and filter them by the edge-distance condition.

Every inner vertex gets a width-2 segment, every leaf a width-4
segment; a child's segment is determined by its parent's up to the
left/right choice for inner vertices. The stream is generated lazily so
consumers can process one assignment at a time in polynomial space.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .geometry import num_base_segments
from .graph import Graph, RootedTree


@dataclass(frozen=True)
class SegmentAssignment:
    """Map vertex -> segment, as lo indices; widths follow from the tree
    (4 for leaves, 2 for inner vertices)."""

    lo: tuple[int, ...]
    b: int
    tree: RootedTree

    def width(self, v: int) -> int:
        return segment_width(self.tree, v)

    def hi(self, v: int) -> int:
        return self.lo[v] + self.width(v)

    @property
    def n(self) -> int:
        return len(self.lo)


def segment_width(tree: RootedTree, v: int) -> int:
    """Base segments in v's segment: 4 for a leaf, 2 for an inner vertex."""
    return 4 if tree.is_leaf(v) else 2


def _nonempty(lo: int, hi: int, b: int, n: int) -> bool:
    return max(lo * (b + 1) + 1, 1) <= min(hi * (b + 1), n)


def enumerate_assignments(
    tree: RootedTree, n: int, b: int, graph: Graph | None = None
) -> Iterator[SegmentAssignment]:
    """Yield every candidate segment assignment for the tree.

    Root ranges over all width-2 segments with nonempty positions
    (lo from -1 up); an inner child of a segment starting at i gets the
    left choice (i-1) then the right (i+1); a leaf child is forced to
    i-1 with width 4. Candidates containing an empty segment are
    skipped.

    If `graph` is given, partial assignments violating the
    edge-distance condition against an already-assigned vertex are
    pruned; this never changes the accepted set (every complete
    assignment would fail edge_filter anyway) but skips dead subtrees
    early. Counters of generated assignments should use graph=None.
    """
    if b < 1:
        raise ValueError(f"bandwidth parameter must be >= 1, got {b}")
    if n < 2 or tree.n != n:
        raise ValueError("tree must span a graph with n >= 2 vertices")
    order = tree.preorder
    rank = {v: i for i, v in enumerate(order)}
    lo: list[int] = [0] * n
    width = [segment_width(tree, v) for v in range(n)]

    def ok_so_far(v: int) -> bool:
        # Edge-distance condition against already-assigned neighbors:
        # segments (i, j) and (k, l) must satisfy j >= k and l >= i.
        rv = rank[v]
        for u in graph.adj[v]:
            if rank[u] < rv and (
                lo[u] + width[u] < lo[v] or lo[v] + width[v] < lo[u]
            ):
                return False
        return True

    def rec(idx: int) -> Iterator[SegmentAssignment]:
        if idx == n:
            yield SegmentAssignment(tuple(lo), b, tree)
            return
        v = order[idx]
        parent = tree.parent[v]
        i = lo[parent]
        choices = [i - 1] if tree.is_leaf(v) else [i - 1, i + 1]
        for c in choices:
            if not _nonempty(c, c + width[v], b, n):
                continue
            lo[v] = c
            if graph is None or ok_so_far(v):
                yield from rec(idx + 1)
        lo[v] = 0

    root = tree.root
    for i in range(-1, num_base_segments(n, b)):
        if not _nonempty(i, i + 2, b, n):
            continue
        lo[root] = i
        yield from rec(1)


def max_assignments(n: int) -> int:
    """Ceiling on the number of generated assignments: (n+1) * 2^(n-1)."""
    return (n + 1) * 2 ** (n - 1)


def edge_filter(phi: SegmentAssignment, g: Graph) -> bool:
    """Accept iff for every edge uv with segments (i, j) and (k, l) the
    segments overlap or abut: j >= k and l >= i."""
    lo = phi.lo
    for u, v in g.edges:
        if lo[u] + phi.width(u) < lo[v] or lo[v] + phi.width(v) < lo[u]:
            return False
    return True


def consistency_witness(phi: SegmentAssignment, pos: list[int]) -> bool:
    """True iff every vertex's position lies inside its assigned segment:
    position p lies in 1..n and its base segment (p-1) // (b+1) in
    lo[v] .. hi(v)-1."""
    n, lo, b1 = phi.n, phi.lo, phi.b + 1
    return all(
        1 <= pos[v] <= n and lo[v] <= (pos[v] - 1) // b1 < phi.hi(v) for v in range(n)
    )
