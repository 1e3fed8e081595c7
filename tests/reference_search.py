"""The phase-2 search without the feasibility prune, written for
reading rather than speed: the reference that both kernels of
bwexact.search are checked against.

A state maps each vertex to a base segment or to None. Positions are
filled in color order; a vertex may take the step's base segment t when
t lies in its segment, every defined neighbour holds t or t+1, and no
undefined neighbour's segment starts after t. Each distinct state is
expanded at most once per run.
"""

from __future__ import annotations

from dataclasses import dataclass

from bwexact.assignments import SegmentAssignment
from bwexact.geometry import color_order
from bwexact.graph import Graph


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
    s: SearchState, phi: SegmentAssignment, g: Graph, t: int
) -> list[int]:
    """Vertices whose assignment to base segment t yields an extension.

    A vertex qualifies when (a) base segment t lies inside its assigned
    segment, (b) every defined neighbor's value k satisfies
    k-1 <= t <= k, and (c) every undefined neighbor's segment starts at
    or before t.
    """
    out = []
    for v in range(phi.n):
        if s.assigned[v] is not None:
            continue
        if not (phi.lo[v] <= t < phi.hi(v)):
            continue
        ok = True
        for u in g.adj[v]:
            k = s.assigned[u]
            if k is not None:
                if not (k - 1 <= t <= k):
                    ok = False
                    break
            elif phi.lo[u] > t:
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


def encode_state(s: SearchState, phi: SegmentAssignment) -> int:
    """Injective packed key: 3 bits per vertex, 0 for undefined, else
    1 + offset of the base segment inside the vertex's segment."""
    key = 0
    for v, t in enumerate(s.assigned):
        if t is not None:
            key |= (1 + t - phi.lo[v]) << (3 * v)
    return key


def decode_state(key: int, phi: SegmentAssignment) -> SearchState:
    assigned: list[int | None] = []
    for v in range(phi.n):
        code = (key >> (3 * v)) & 0b111
        assigned.append(None if code == 0 else phi.lo[v] + code - 1)
    return SearchState(tuple(assigned))


def unpruned_dfs(phi: SegmentAssignment, g: Graph, b: int) -> tuple[bool, list[int] | None, int]:
    """(found, ordering, states visited with the root) of the unpruned
    search; the ordering maps vertex -> position."""
    sequence = color_order(g.n, b)
    visited = {encode_state(SearchState.empty(g.n), phi)}
    path: list[int] = []

    def visit(s: SearchState, depth: int) -> bool:
        if depth == g.n:
            return True
        t = sequence.step_base_segment[depth]
        for v in extend_candidates(s, phi, g, t):
            child = extend(s, v, t)
            key = encode_state(child, phi)
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
