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


class SearchPlan:
    """The phase-2 inputs that depend only on the graph, b and the
    spanning tree, shared by every run over the same three; dfs_decide
    keeps the last one built (see _plan_for).

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

    The Python loop, run where c_decide cannot be; it visits bw_dfs's
    states in bw_dfs's order. Raises WitnessError rather than return an
    ordering that fails the bandwidth check.
    """
    plan = _plan_for(g, b, tree)
    status, path, stats = _dfs_python(plan, lo, max_states, deadline)
    stats.result = status
    if status != YES:
        return status, None, stats
    pos = [0] * g.n
    for k, v in enumerate(path):
        pos[v] = plan.corder.sequence[k]
    return YES, _checked(g, b, pos, "python"), stats


def c_decide(g: Graph, b: int, tree: RootedTree, max_states: int = DEFAULT_MAX_STATES,
             deadline: float | None = None, roots: range | None = None) -> tuple | None:
    """One compiled call: the runs of dfs_decide over
    enumerate_assignments(g, tree, b, roots) (every root choice if
    roots is None), under the rules of solve.decide. None when
    c_kernel_for(n) is, else (status, checked ordering or None, runs,
    states_total, states_max_run)."""
    if not (1 <= b < g.n and tree.n == g.n):
        raise ValueError(f"c_decide requires 1 <= b < n and a spanning tree, got b={b}, n={g.n}")
    kernel = c_kernel_for(g.n)
    if kernel is None:
        return None
    ints = ctypes.c_int * g.n
    pos, out = ints(), (ctypes.c_uint64 * 3)()
    code = kernel.bw_decide(
        g.n, b, (ctypes.c_uint64 * g.n)(*(sum(1 << u for u in nbrs) for nbrs in g.adj)),
        ints(*tree.preorder), ints(*(-1 if p is None else p for p in tree.parent)),
        *((-1, g.n) if roots is None else (roots.start, roots.stop)),
        max(0, min(max_states, _U64_MAX)), math.inf if deadline is None else deadline, pos, out,
    )
    status = _C_STATUS[code]
    return status, _checked(g, b, pos[:], "c") if status == YES else None, out[0], out[1], out[2]


def c_kernel_for(n: int):
    """The compiled kernel when it loads and 1 <= n <= C_KERNEL_MAX_N,
    else None: whether a decide on n vertices runs in C."""
    return _c_kernel() if 0 < n <= C_KERNEL_MAX_N else None


def _checked(g: Graph, b: int, pos: list[int], kernel: str) -> list[int]:
    """pos, which a kernel found; WitnessError if its bandwidth is over b."""
    if ordering_bandwidth(g, pos) > b:
        raise WitnessError(f"{kernel} kernel returned an ordering of bandwidth > {b}")
    return pos


# The last SearchPlan built: the runs of one decide share their graph,
# b and tree. A plan is only read, so threads may share it.
_last_plan: SearchPlan | None = None


def _plan_for(g: Graph, b: int, tree: RootedTree) -> SearchPlan:
    global _last_plan
    plan = _last_plan
    if plan is None or plan.g is not g or plan.b != b or plan.tree is not tree:
        plan = _last_plan = SearchPlan(g, b, tree)
    return plan


def _dfs_python(plan, lo, max_states, deadline):
    """The reference kernel: recursive DFS over states keyed by 3 bits
    per vertex, 0 for unassigned, else 1 + the offset of its base
    segment inside its segment. Returns (status, path, stats), path[d]
    being the vertex placed at step d. A budget cap, or Python's
    recursion or memory limit, ends the run as UNKNOWN."""
    n = plan.g.n
    adj, adj_mask, step, slots = plan.g.adj, plan.adj, plan.step, plan.slots
    hi = [l + w for l, w in zip(lo, plan.width)]
    assigned = [-1] * n
    path: list[int] = []
    visited = {0}
    stats = SearchStats(states_visited=1)

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
    except (BudgetExhausted, RecursionError, MemoryError):
        # visit recurses n deep, so a deep graph can hit Python's limits
        # before the budget: the run is unfinished, not a "no".
        return UNKNOWN, None, stats
    return (YES, path, stats) if found else (NO, None, stats)


def _hall_child(ok, unplaced, nbrs, t, slots):
    """The child's masks, or None when the child state fails the
    Hall-count test over every window of base segments; hall() in
    _kernel.c states the rule. ok[s] holds the parent's unassigned
    vertices that may still take base segment s, plus bits of assigned
    ones that are masked off here with `unplaced`, the child's
    unassigned set; nbrs is the placed vertex's neighbours and t its
    base segment. The masks are copied only when the placed vertex has
    unassigned neighbours.

    Only the live segments (those with steps left) are walked, since a
    window holds the same vertices and steps as the live segments inside
    it. Windows that cannot fail unless another one does are skipped:
    those starting at a segment where no A(w) starts (dropping that
    segment keeps the vertices and loses steps), and those from i whose
    steps already reach the unassigned vertices not in the segments
    before i (no window from i holds more vertices)."""
    near = nbrs & unplaced
    if near:
        nok = [m & ~near for m in ok]
        for s in (t - 1, t):
            if s >= 0:
                nok[s] = ok[s]
    else:
        nok = ok
    live = []  # (mask, steps, union of the later masks) per live segment
    later = 0
    for s in range(len(nok) - 1, -1, -1):
        c = slots[s]
        if c:
            m = nok[s] & unplaced
            live.append((m, c, later))
            later |= m
    if unplaced & ~later:
        return None
    live.reverse()
    pre = 0  # the union of the masks before window start i
    for i, (first, _, _) in enumerate(live):
        if not first & ~pre:
            continue  # no A(w) starts at i
        left = (unplaced & ~pre).bit_count()
        inner = cap = 0
        for m, c, later in live[i:]:
            inner |= m
            cap += c
            if cap >= left:
                break
            if (inner & ~(pre | later)).bit_count() > cap:
                return None
        pre |= first
    return nok


# bw_dfs and bw_decide return codes; out of memory is UNKNOWN like any cap.
_C_STATUS = (NO, YES, UNKNOWN, UNKNOWN)
_U64_MAX = (1 << 64) - 1


_KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")


@functools.cache
def _c_kernel():
    """The compiled kernel with bw_decide declared, or None when it
    cannot be had.

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
        kernel = ctypes.CDLL(lib)
        dec = kernel.bw_decide
    except (OSError, AttributeError):
        return None
    u64_p = ctypes.POINTER(ctypes.c_uint64)
    int_p = ctypes.POINTER(ctypes.c_int)
    # n, b, adj, order, parent, root_lo, root_hi, max_states, deadline, pos, out
    dec.argtypes = [ctypes.c_int, ctypes.c_int, u64_p, int_p, int_p, ctypes.c_int, ctypes.c_int,
                    ctypes.c_uint64, ctypes.c_double, int_p, u64_p]
    dec.restype = ctypes.c_int
    return kernel


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
