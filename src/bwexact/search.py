"""Phase 2: depth-first search over partial base-segment maps for one
fixed segment assignment.

Positions are filled in the color order; a DFS node assigns the next
color-order position's base segment to one more vertex. Each distinct
state is expanded at most once per run (visited set keyed by a packed
per-vertex code).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import math
import os
import shutil
import time
from dataclasses import dataclass

from .assignments import SegmentAssignment
from .geometry import ColorOrder, color_order
from .graph import Graph, ordering_bandwidth

DEFAULT_MAX_STATES = 1 << 26
# The compiled kernel packs 3 bits per vertex into a 64-bit state key.
C_KERNEL_MAX_N = 21

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


class BudgetExhausted(Exception):
    """Raised internally when a resource cap is hit; surfaces as UNKNOWN."""


class WitnessError(RuntimeError):
    """A search returned an ordering that fails the bandwidth check: a
    kernel bug, never to be reported as a yes."""


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


@dataclass
class SearchStats:
    states_visited: int = 0
    depth_max: int = 0
    result: str = UNKNOWN
    kernel: str = "python"  # "c" or "python": which kernel ran

    def to_dict(self) -> dict:
        return {
            "states_visited": self.states_visited,
            "depth_max": self.depth_max,
            "result": self.result,
            "kernel": self.kernel,
        }


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


def dfs_decide(
    phi: SegmentAssignment,
    g: Graph,
    b: int,
    max_states: int = DEFAULT_MAX_STATES,
    deadline: float | None = None,
    corder: ColorOrder | None = None,
) -> tuple[str, list[int] | None, SearchStats]:
    """Search for an ordering of bandwidth <= b consistent with phi.

    Returns (YES, ordering, stats) on success, (NO, None, stats) when
    the state space is exhausted, or (UNKNOWN, None, stats) when a
    resource cap fires. The visited set belongs to this run only.

    Runs the compiled kernel (see _kernel.c) when it is available and
    1 <= n <= C_KERNEL_MAX_N, and the Python loop otherwise; both visit
    the same states in the same order. Raises WitnessError rather than
    return an ordering that fails the bandwidth check.
    """
    n = g.n
    if corder is None:
        corder = color_order(n, b)
    hi = [phi.hi(v) for v in range(n)]
    kernel = _c_kernel() if 0 < n <= C_KERNEL_MAX_N else None
    args = (g, phi.lo, hi, corder.step_base_segment, max_states, deadline)
    status, path, stats = _dfs_python(*args) if kernel is None else _dfs_c(kernel, *args)
    stats.result = status
    if status != YES:
        return status, None, stats
    pos = [0] * n
    for k, v in enumerate(path):
        pos[v] = corder.sequence[k]
    if ordering_bandwidth(g, pos) > b:
        raise WitnessError(f"{stats.kernel} kernel returned an ordering of bandwidth > {b}")
    return YES, pos, stats


def _dfs_python(g, lo, hi, step, max_states, deadline):
    """The reference kernel: recursive DFS over states keyed like
    encode_state. Returns (status, path, stats), path[d] being the
    vertex placed at step d."""
    n = g.n
    adj = g.adj
    assigned = [-1] * n
    path: list[int] = []
    visited = {0}
    stats = SearchStats(states_visited=1, kernel="python")

    def visit(key: int, depth: int) -> bool:
        if depth > stats.depth_max:
            stats.depth_max = depth
        if depth == n:
            return True
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExhausted("time budget exhausted")
        t = step[depth]
        for v in range(n):
            if assigned[v] >= 0 or not (lo[v] <= t < hi[v]):
                continue
            ok = True
            for u in adj[v]:
                k = assigned[u]
                if k >= 0:
                    if not (k - 1 <= t <= k):
                        ok = False
                        break
                elif lo[u] > t:
                    ok = False
                    break
            if not ok:
                continue
            child = key | (1 + t - lo[v]) << (3 * v)
            if child in visited:
                continue
            if len(visited) >= max_states:
                raise BudgetExhausted("state budget exhausted")
            visited.add(child)
            stats.states_visited += 1
            assigned[v] = t
            path.append(v)
            if visit(child, depth + 1):
                return True
            path.pop()
            assigned[v] = -1
        return False

    try:
        found = visit(0, 0)
    except BudgetExhausted:
        return UNKNOWN, None, stats
    return (YES, path, stats) if found else (NO, None, stats)


# bw_dfs return codes; running out of memory is UNKNOWN like any cap.
_C_STATUS = (NO, YES, UNKNOWN, UNKNOWN)
_U64_MAX = (1 << 64) - 1


def _dfs_c(kernel, g, lo, hi, step, max_states, deadline):
    """The compiled kernel behind the same (status, path, stats) contract."""
    n = g.n
    if min(step) < 0 or max(step) >= n:  # the kernel indexes per-segment masks by step
        raise ValueError("color order does not match the graph")
    ints = ctypes.c_int * n
    path = ints()
    out = (ctypes.c_uint64 * 2)()
    code = kernel(
        n,
        (ctypes.c_uint64 * n)(*[sum(1 << u for u in nbrs) for nbrs in g.adj]),
        ints(*lo),
        ints(*hi),
        ints(*step),
        max(0, min(max_states, _U64_MAX)),
        math.inf if deadline is None else deadline,
        path,
        out,
    )
    status = _C_STATUS[code]
    stats = SearchStats(states_visited=out[0], depth_max=out[1], kernel="c")
    return status, list(path) if status == YES else None, stats


_KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")


@functools.cache
def _c_kernel():
    """bw_dfs from the compiled kernel, or None when it cannot be had.

    The library is built once per source version into this package's
    __pycache__, named by the source's sha256, and loaded from there by
    every later process; a missing compiler or a failed build or load
    leaves the Python kernel in use.
    """
    try:
        with open(_KERNEL_SOURCE, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()[:16]
    except OSError:
        return None
    lib = os.path.join(os.path.dirname(_KERNEL_SOURCE), "__pycache__", f"_kernel-{digest}.so")
    if not os.path.exists(lib) and not _compile_kernel(_KERNEL_SOURCE, lib):
        return None
    try:
        fn = ctypes.CDLL(lib).bw_dfs
    except (OSError, AttributeError):
        return None
    u64_p = ctypes.POINTER(ctypes.c_uint64)
    int_p = ctypes.POINTER(ctypes.c_int)
    fn.argtypes = [ctypes.c_int, u64_p, int_p, int_p, int_p, ctypes.c_uint64, ctypes.c_double, int_p, u64_p]
    fn.restype = ctypes.c_int
    return fn


def _compile_kernel(source: str, lib: str) -> bool:
    """Build `lib` from `source` with the system C compiler; False on
    any failure. The library appears under its final name only once
    complete, so concurrent builders never load a partial file."""
    import subprocess  # only a build needs it; the package import stays lean

    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return False
    tmp = f"{lib}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(lib), exist_ok=True)
        subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", tmp, source],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, lib)
    except (OSError, subprocess.SubprocessError):
        with contextlib.suppress(OSError):
            os.remove(tmp)
        return False
    return True


def per_run_state_ceiling(n: int, leaf_count: int) -> int:
    """Visited-state ceiling for one run: 3^(n-L) * 4^L."""
    return 3 ** (n - leaf_count) * 4**leaf_count
