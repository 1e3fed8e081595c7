"""Phase 2: depth-first search over partial base-segment maps for one
fixed segment assignment.

Positions are filled in the color order; a DFS node assigns the next
color-order position's base segment to one more vertex. Each distinct
state is expanded at most once per run (visited set keyed by a packed
per-vertex code), and a child state whose unassigned vertices can no
longer all be placed in the steps left is dropped before it is counted.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import math
import os
import shutil
import threading
import time
from dataclasses import dataclass

from .assignments import segment_width
from .geometry import color_order
from .graph import Graph, RootedTree, ordering_bandwidth

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


@dataclass
class SearchStats:
    states_visited: int = 0
    depth_max: int = 0
    result: str = UNKNOWN
    kernel: str = "python"  # "c" or "python": which kernel ran


class SearchPlan:
    """The phase-2 inputs that depend only on the graph, b and the
    spanning tree, shared by every run over the same three; dfs_decide
    keeps the last one built on each thread (see _plan_for).

    step[d] is the base segment filled at depth d, width[v] the width of
    v's segment, adj[v] v's neighbours as a bitmask, and slots[d][s] the
    number of steps at depth >= d with base segment s (each row ends in
    an extra 0).
    """

    def __init__(self, g: Graph, b: int, tree: RootedTree) -> None:
        self.g, self.b, self.tree = g, b, tree
        self.corder = color_order(g.n, b)
        self.step = self.corder.step_base_segment
        self.width = [segment_width(tree, v) for v in range(g.n)]
        self.adj = [sum(1 << u for u in nbrs) for nbrs in g.adj]
        rows = [[0] * (max(self.step, default=-1) + 2)]
        for t in reversed(self.step):
            row = rows[-1][:]
            row[t] += 1
            rows.append(row)
        self.slots = rows[::-1]
        self._c_arrays = None

    def c_arrays(self):
        """The ctypes arguments of bw_dfs that every run shares, plus
        the lo, path and out buffers that each run overwrites."""
        if self._c_arrays is None:
            n = self.g.n
            ints = ctypes.c_int * n
            self._c_arrays = (
                (ctypes.c_uint64 * n)(*self.adj), ints(), ints(*self.width),
                ints(*self.step), ints(), (ctypes.c_uint64 * 2)(),
            )
        return self._c_arrays


def dfs_decide(
    g: Graph,
    b: int,
    tree: RootedTree,
    lo: tuple[int, ...],
    max_states: int = DEFAULT_MAX_STATES,
    deadline: float | None = None,
) -> tuple[str, list[int] | None, SearchStats]:
    """Search for an ordering of bandwidth <= b consistent with the
    segment assignment lo over the spanning tree (see assignments).

    Returns (YES, ordering, stats) on success, (NO, None, stats) when
    the state space is exhausted, or (UNKNOWN, None, stats) when a
    resource cap fires. The visited set belongs to this run only.

    Runs the compiled kernel (see _kernel.c) when it is available and
    1 <= n <= C_KERNEL_MAX_N, and the Python loop otherwise; both visit
    the same states in the same order. Raises WitnessError rather than
    return an ordering that fails the bandwidth check.
    """
    plan = _plan_for(g, b, tree)
    n = g.n
    kernel = _c_kernel() if 0 < n <= C_KERNEL_MAX_N else None
    args = (plan, lo, max_states, deadline)
    status, path, stats = _dfs_python(*args) if kernel is None else _dfs_c(kernel, *args)
    stats.result = status
    if status != YES:
        return status, None, stats
    pos = [0] * n
    for k, v in enumerate(path):
        pos[v] = plan.corder.sequence[k]
    if ordering_bandwidth(g, pos) > b:
        raise WitnessError(f"{stats.kernel} kernel returned an ordering of bandwidth > {b}")
    return YES, pos, stats


# The last SearchPlan built on each thread: the runs of one decide share
# their graph, b and tree, and a plan's run buffers must not be shared
# across threads.
_plans = threading.local()


def _plan_for(g: Graph, b: int, tree: RootedTree) -> SearchPlan:
    plan = getattr(_plans, "last", None)
    if plan is None or plan.g is not g or plan.b != b or plan.tree is not tree:
        plan = _plans.last = SearchPlan(g, b, tree)
    return plan


def _dfs_python(plan, lo, max_states, deadline):
    """The reference kernel: recursive DFS over states keyed by 3 bits
    per vertex, 0 for unassigned, else 1 + the offset of its base
    segment inside its segment. Returns (status, path, stats), path[d]
    being the vertex placed at step d."""
    n = plan.g.n
    adj, adj_mask, step, slots = plan.g.adj, plan.adj, plan.step, plan.slots
    hi = [l + w for l, w in zip(lo, plan.width)]
    assigned = [-1] * n
    path: list[int] = []
    visited = {0}
    stats = SearchStats(states_visited=1, kernel="python")

    def visit(key: int, depth: int, ok: list[int], unplaced: int) -> bool:
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
            fits = True
            for u in adj[v]:
                k = assigned[u]
                if k >= 0:
                    if not (k - 1 <= t <= k):
                        fits = False
                        break
                elif lo[u] > t:
                    fits = False
                    break
            if not fits:
                continue
            child = key | (1 + t - lo[v]) << (3 * v)
            if child in visited:
                continue
            rest = unplaced & ~(1 << v)
            child_ok = _hall_child(ok, rest, adj_mask[v], t, slots[depth + 1])
            if child_ok is None:
                continue
            if len(visited) >= max_states:
                raise BudgetExhausted("state budget exhausted")
            visited.add(child)
            stats.states_visited += 1
            assigned[v] = t
            path.append(v)
            if visit(child, depth + 1, child_ok, rest):
                return True
            path.pop()
            assigned[v] = -1
        return False

    ok = [sum(1 << v for v in range(n) if lo[v] <= s < hi[v]) for s in range(len(slots[0]) - 1)]
    try:
        found = visit(0, 0, ok, (1 << n) - 1)
    except BudgetExhausted:
        return UNKNOWN, None, stats
    return (YES, path, stats) if found else (NO, None, stats)


def _hall_child(ok, unplaced, nbrs, t, slots):
    """The child's masks, or None when the child state fails the
    Hall-count test; hall() in _kernel.c states the rule. ok[s] holds
    the parent's unassigned vertices that may still take base segment
    s, plus bits of assigned ones that are masked off here with
    `unplaced`, the child's unassigned set; nbrs is the placed vertex's
    neighbours and t its base segment. The masks are copied only when
    the placed vertex has unassigned neighbours."""
    near = nbrs & unplaced
    if near:
        nok = [m & ~near for m in ok]
        for s in (t - 1, t):
            if s >= 0:
                nok[s] = ok[s]
    else:
        nok = ok
    # The vertices in at least one, two and three of the live masks
    # (those of base segments with steps left).
    once = twice = thrice = 0
    for m, c in zip(nok, slots):
        if c:
            m &= unplaced
            thrice |= twice & m
            twice |= once & m
            once |= m
    if unplaced & ~once:
        return None
    prev = prev_single = prev_c = 0
    for m, c in zip(nok, slots):
        if not c:
            prev_c = 0
            continue
        m &= unplaced
        single = (m & ~twice).bit_count()  # A(w) = {s}
        if single > c:
            return None
        # A(w) inside {s - 1, s}: single at s or s - 1, or exactly these two.
        if prev_c and single + prev_single + (m & prev & ~thrice).bit_count() > c + prev_c:
            return None
        prev, prev_single, prev_c = m, single, c
    return nok


# bw_dfs return codes; running out of memory is UNKNOWN like any cap.
_C_STATUS = (NO, YES, UNKNOWN, UNKNOWN)
_U64_MAX = (1 << 64) - 1


def _dfs_c(kernel, plan, lo, max_states, deadline):
    """The compiled kernel behind the same (status, path, stats) contract."""
    adj, c_lo, width, step, path, out = plan.c_arrays()
    c_lo[:] = lo
    code = kernel(
        len(lo), adj, c_lo, width, step,
        max(0, min(max_states, _U64_MAX)),
        math.inf if deadline is None else deadline,
        path, out,
    )
    status = _C_STATUS[code]
    stats = SearchStats(states_visited=out[0], depth_max=out[1], kernel="c")
    return status, path[:] if status == YES else None, stats


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
