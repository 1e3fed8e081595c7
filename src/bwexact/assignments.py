"""Phase 1: enumerate candidate segment assignments over a rooted
spanning tree, pruned by the edge-distance condition.

Every inner vertex gets a width-2 segment, every leaf a width-4
segment; a child's segment is determined by its parent's up to the
left/right choice for inner vertices. An assignment is its lo vector,
lo[v] being the first base segment of v's segment; the widths follow
from the tree. The stream is lazy, one assignment at a time in
polynomial space. The root's choice is the outermost loop, so the
stream falls into parts, one per root lo from -1 up; a parallel decide
shares them out. A decide with n <= C_KERNEL_MAX_N walks the stream, or
a part, in the compiled kernel (bw_decide in _kernel.c) instead; this
generator feeds the Python loop, and the tests.
"""

from __future__ import annotations

from collections.abc import Iterator

from .geometry import num_base_segments
from .graph import Graph, RootedTree


def segment_width(tree: RootedTree, v: int) -> int:
    """Base segments in v's segment: 4 for a leaf, 2 for an inner vertex."""
    return 4 if tree.is_leaf(v) else 2


def _nonempty(lo: int, hi: int, b: int, n: int) -> bool:
    return max(lo * (b + 1) + 1, 1) <= min(hi * (b + 1), n)


def enumerate_assignments(g: Graph, tree: RootedTree, b: int,
                          roots: range | None = None) -> Iterator[tuple[int, ...]]:
    """Yield the lo vector of every candidate segment assignment for
    the tree that passes the edge-distance condition on g, and whose
    root lo lies in `roots` (every root choice if None).

    Vertices are assigned in preorder. The root ranges over the width-2
    segments from lo = -1 up; an inner child of a segment starting at i
    gets the left choice (i-1) then the right (i+1); a leaf child is
    forced to i-1 with width 4. A choice is dropped when its segment
    holds no position in 1..n, or when it leaves a gap to an earlier
    neighbour's segment: segments (i, j) and (k, l) of an edge must
    satisfy j >= k and l >= i. The edgeless graph Graph(tree.n, [])
    gives the unpruned stream.
    """
    if b < 1:
        raise ValueError(f"bandwidth parameter must be >= 1, got {b}")
    n = tree.n
    if n < 2 or g.n != n:
        raise ValueError("tree must span a graph with n >= 2 vertices")
    order = tree.preorder
    rank = {v: d for d, v in enumerate(order)}
    width = [segment_width(tree, v) for v in range(n)]
    earlier = [[u for u in g.adj[v] if rank[u] < d] for d, v in enumerate(order)]
    lo = [0] * n
    # stack[d] holds the untried choices of the vertex at depth d.
    stack = [iter(range(-1, num_base_segments(n, b)) if roots is None else roots)]
    while stack:
        d = len(stack) - 1
        v = order[d]
        w = width[v]
        for c in stack[d]:
            if not _nonempty(c, c + w, b, n):
                continue
            for u in earlier[d]:
                if lo[u] + width[u] < c or c + w < lo[u]:
                    break
            else:
                lo[v] = c
                break
        else:
            stack.pop()
            continue
        if d + 1 == n:
            yield tuple(lo)
            continue
        child = order[d + 1]
        i = lo[tree.parent[child]]
        stack.append(iter((i - 1,) if tree.is_leaf(child) else (i - 1, i + 1)))


def max_assignments(n: int) -> int:
    """Ceiling on the number of generated assignments: (n+1) * 2^(n-1)."""
    return (n + 1) * 2 ** (n - 1)
