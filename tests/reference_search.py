"""The phase-2 search without the feasibility prune, written for
reading rather than speed: the reference that both kernels of
bwexact.search are checked against. Also the phase-1 edge filter, the
consistency check of an ordering against a segment assignment, and a
binding of the compiled per-run kernel bw_dfs, which the package itself
calls only from inside bw_decide.

A segment assignment is its lo vector over a spanning tree: vertex v
gets base segments lo[v] .. hi(v) - 1, hi(v) = lo[v] + its width.

A state maps each vertex to a base segment or to None. Positions are
filled in color order; a vertex may take the step's base segment t when
t lies in its segment, every defined neighbour holds t or t+1, and no
undefined neighbour's segment starts after t. Each distinct state is
expanded at most once per run.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

from bwexact import search
from bwexact.assignments import segment_width
from bwexact.geometry import color_order
from bwexact.graph import Graph, RootedTree
from bwexact.search import DEFAULT_MAX_STATES, YES, SearchStats


def hi(lo: tuple[int, ...], tree: RootedTree, v: int) -> int:
    """One past the last base segment of v's segment."""
    return lo[v] + segment_width(tree, v)


def edge_filter(lo: tuple[int, ...], tree: RootedTree, g: Graph) -> bool:
    """Accept iff for every edge uv with segments (i, j) and (k, l) the
    segments overlap or abut: j >= k and l >= i."""
    return all(hi(lo, tree, u) >= lo[v] and hi(lo, tree, v) >= lo[u] for u, v in g.edges)


def consistency_witness(lo: tuple[int, ...], tree: RootedTree, b: int, pos: list[int]) -> bool:
    """True iff every vertex's position lies inside its assigned segment:
    position p lies in 1..n and its base segment (p-1) // (b+1) in
    lo[v] .. hi(v)-1."""
    n = len(lo)
    return all(1 <= pos[v] <= n and lo[v] <= (pos[v] - 1) // (b + 1) < hi(lo, tree, v) for v in range(n))


@dataclass(frozen=True)
class SearchState:
    """Partial map vertex -> base-segment index (None = undefined)."""

    assigned: tuple[int | None, ...]

    @property
    def count(self) -> int:
        return sum(1 for t in self.assigned if t is not None)

    @classmethod
    def empty(cls, n: int) -> "SearchState":
        return cls((None,) * n)


def extend_candidates(
    s: SearchState, lo: tuple[int, ...], tree: RootedTree, g: Graph, t: int
) -> list[int]:
    """Vertices whose assignment to base segment t yields an extension.

    A vertex qualifies when (a) base segment t lies inside its assigned
    segment, (b) every defined neighbor's value k satisfies
    k-1 <= t <= k, and (c) every undefined neighbor's segment starts at
    or before t.
    """
    out = []
    for v in range(len(lo)):
        if s.assigned[v] is not None:
            continue
        if not (lo[v] <= t < hi(lo, tree, v)):
            continue
        ok = True
        for u in g.adj[v]:
            k = s.assigned[u]
            if k is not None:
                if not (k - 1 <= t <= k):
                    ok = False
                    break
            elif lo[u] > t:
                ok = False
                break
        if ok:
            out.append(v)
    return out


def extend(s: SearchState, v: int, t: int) -> SearchState:
    assert s.assigned[v] is None, "vertex already defined"
    new = list(s.assigned)
    new[v] = t
    return SearchState(tuple(new))


def encode_state(s: SearchState, lo: tuple[int, ...]) -> int:
    """Injective packed key: 3 bits per vertex, 0 for undefined, else
    1 + offset of the base segment inside the vertex's segment."""
    key = 0
    for v, t in enumerate(s.assigned):
        if t is not None:
            key |= (1 + t - lo[v]) << (3 * v)
    return key


def decode_state(key: int, lo: tuple[int, ...]) -> SearchState:
    assigned: list[int | None] = []
    for v in range(len(lo)):
        code = (key >> (3 * v)) & 0b111
        assigned.append(None if code == 0 else lo[v] + code - 1)
    return SearchState(tuple(assigned))


def unpruned_dfs(
    g: Graph, b: int, tree: RootedTree, lo: tuple[int, ...]
) -> tuple[bool, list[int] | None, int]:
    """(found, ordering, states visited with the root) of the unpruned
    search; the ordering maps vertex -> position."""
    sequence = color_order(g.n, b)
    visited = {encode_state(SearchState.empty(g.n), lo)}
    path: list[int] = []

    def visit(s: SearchState, depth: int) -> bool:
        if depth == g.n:
            return True
        t = sequence.step_base_segment[depth]
        for v in extend_candidates(s, lo, tree, g, t):
            child = extend(s, v, t)
            key = encode_state(child, lo)
            if key in visited:
                continue
            visited.add(key)
            path.append(v)
            if visit(child, depth + 1):
                return True
            path.pop()
        return False

    if not visit(SearchState.empty(g.n), 0):
        return False, None, len(visited)
    pos = [0] * g.n
    for k, v in enumerate(path):
        pos[v] = sequence.sequence[k]
    return True, pos, len(visited)


def compiled_dfs(
    g: Graph,
    b: int,
    tree: RootedTree,
    lo: tuple[int, ...],
    max_states: int = DEFAULT_MAX_STATES,
    deadline: float | None = None,
) -> tuple[str, list[int] | None, SearchStats]:
    """search.dfs_decide's contract, run on the compiled kernel's bw_dfs
    (the compiled kernel must load): (status, checked ordering or None,
    stats)."""
    status, path, stats = _dfs_c(g, b, tree, lo, max_states, deadline)
    stats.result = status
    if status != YES:
        return status, None, stats
    sequence = color_order(g.n, b).sequence
    pos = [0] * g.n
    for k, v in enumerate(path):
        pos[v] = sequence[k]
    return YES, search._checked(g, b, pos, "c"), stats


def bw_dfs():
    """The compiled kernel's bw_dfs, its argument types declared."""
    dfs = search._c_kernel().bw_dfs
    u64_p, int_p = ctypes.POINTER(ctypes.c_uint64), ctypes.POINTER(ctypes.c_int)
    # n, adj, lo, width, step, max_states, deadline, path, out
    dfs.argtypes = [ctypes.c_int, u64_p, int_p, int_p, int_p, ctypes.c_uint64, ctypes.c_double,
                    int_p, u64_p]
    dfs.restype = ctypes.c_int
    return dfs


def _dfs_c(g, b, tree, lo, max_states, deadline):
    """One bw_dfs call: (status, path or None, stats), path[d] being the
    vertex placed at step d."""
    n = g.n
    ints = ctypes.c_int * n
    path, out = ints(), (ctypes.c_uint64 * 2)()
    code = bw_dfs()(
        n, (ctypes.c_uint64 * n)(*(sum(1 << u for u in nbrs) for nbrs in g.adj)), ints(*lo),
        ints(*(segment_width(tree, v) for v in range(n))), ints(*color_order(n, b).step_base_segment),
        max(0, min(max_states, (1 << 64) - 1)), math.inf if deadline is None else deadline, path, out,
    )
    status = search._C_STATUS[code]
    stats = SearchStats(states_visited=out[0], depth_max=out[1])
    return status, path[:] if status == YES else None, stats
