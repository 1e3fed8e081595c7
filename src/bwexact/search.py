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
from dataclasses import asdict, dataclass

from .assignments import segment_width
from .geometry import color_order, segment_of
from .graph import Graph, RootedTree, ordering_bandwidth

DEFAULT_MAX_STATES = 1 << 26

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


class WitnessError(RuntimeError):
    """A search returned an ordering that fails the bandwidth check: a
    kernel bug, never to be reported as a yes."""


@dataclass
class SearchStats:
    states_visited: int = 0


@dataclass
class DecideStats:
    """The counters of a decide or of any part of it, folded only by
    merge: `runs`, the assignments searched; `assignments_generated`,
    those the stream yielded (today equal to `runs`); `states_total` and
    `states_max_run`, the states visited in all runs and in the largest
    one; `kernel`, the phase-2 kernel that made the runs: "c", "python",
    "mixed" when records of both were merged, or None when none ran."""

    assignments_generated: int = 0
    runs: int = 0
    states_total: int = 0
    states_max_run: int = 0
    kernel: str | None = None

    def _add_kernel(self, kernel: str | None) -> None:
        if self.kernel is None:
            self.kernel = kernel
        elif kernel not in (None, self.kernel):
            self.kernel = "mixed"

    def merge(self, other: "DecideStats") -> None:
        self.assignments_generated += other.assignments_generated
        self.runs += other.runs
        self.states_total += other.states_total
        self.states_max_run = max(self.states_max_run, other.states_max_run)
        self._add_kernel(other.kernel)

    def to_dict(self) -> dict:
        # Every field is a scalar, so asdict's deep copy (about 16 us, a
        # tenth of a small solve, which calls this once) buys nothing.
        return dict(vars(self))


@dataclass
class DecideResult:
    status: str  # YES / NO / UNKNOWN
    ordering: list[int] | None
    stats: DecideStats

    def to_dict(self) -> dict:
        return asdict(self)


class SearchPlan:
    """The inputs of dfs_decide that depend only on the graph, b and the
    spanning tree, shared by every run over the same three (see
    solve.walk); the runs only read it.

    order[d] is the position filled at depth d (geometry.color_order),
    step[d] its base segment, width[v] the width of v's segment, adj[v]
    v's neighbours as a bitmask, and left[s] the steps after the root's
    with base segment s, which a run copies and keeps for its depth.
    twin[v] is v's nearest lower-id twin, or -1 for none: the twin rule
    of _kernel.c, whose bw_decide finds the same twins by a pair scan.
    Twins are leaves of one parent, so each parent's leaves are grouped
    by neighbourhood, open (twins not adjacent) and closed (adjacent),
    one parent at a time: one id per vertex is all that stays.
    """

    def __init__(self, g: Graph, b: int, tree: RootedTree) -> None:
        self.g, self.b, self.tree = g, b, tree
        self.order = color_order(g.n, b)
        self.step = [segment_of(p, b) for p in self.order]
        self.width = [segment_width(tree, v) for v in range(g.n)]
        self.adj = [sum(1 << u for u in nbrs) for nbrs in g.adj]
        self.left = [0] * (max(self.step, default=-1) + 1)
        for t in self.step[1:]:
            self.left[t] += 1
        self.twin = [-1] * g.n
        for kids in tree.children:
            latest = {}  # a neighbourhood -> the latest leaf of this parent with it
            for v in kids:
                if not tree.children[v]:
                    near = frozenset(g.adj[v])
                    closed = near | {v}
                    self.twin[v] = latest.get(near, latest.get(closed, -1))
                    latest[near] = latest[closed] = v


def dfs_decide(
    plan: SearchPlan,
    lo: tuple[int, ...],
    max_states: int = DEFAULT_MAX_STATES,
    deadline: float = math.inf,
) -> tuple[str, list[int] | None, SearchStats]:
    """Search for an ordering of bandwidth <= plan.b consistent with the
    segment assignment lo over plan.tree (see assignments).

    Returns (YES, ordering, stats) on success, (NO, None, stats) when
    the state space is exhausted, or (UNKNOWN, None, stats) when a
    budget cap fires or memory runs out. The visited set belongs to this
    run only. Raises WitnessError rather than return an ordering that
    fails the bandwidth check.

    This is bw_dfs's loop in Python: the same states in the same order,
    keyed by 3 bits per vertex, 0 for unassigned, else 1 + the offset of
    its base segment inside its segment. The candidates at a step with
    base segment t are the unassigned vertices of the Hall mask ok[t],
    lowest first, less each one whose nearest lower twin (plan.twin) is
    unassigned; hall() in _kernel.c states the rule that keeps the
    masks and drops a child, and _hall_child runs it. The clock is read
    before each Hall test, so a run whose tests all fail still stops at
    its deadline.
    """
    stats = SearchStats(states_visited=1)
    if time.monotonic() > deadline:
        return UNKNOWN, None, stats
    n = plan.g.n
    adj, twin, step, left = plan.adj, plan.twin, plan.step, plan.left[:]
    ok = [0] * len(left)
    for v, (l, w) in enumerate(zip(lo, plan.width)):
        for s in range(max(l, 0), min(l + w, len(ok))):
            ok[s] |= 1 << v
    # late[s]: the vertices in no mask up to s. A neighbour placed at s
    # leaves them no base segment, so _hall_child would drop that child.
    late, seen = [], 0
    for m in ok:
        seen |= m
        late.append(~seen)
    unplaced = (1 << n) - 1
    path: list[int] = []  # path[d]: the vertex placed at step d
    visited = {0}
    stack = [[0, ok, ok[step[0]]]]  # per depth: key, Hall masks, untried candidates
    try:
        while stack:
            key, ok, rem = top = stack[-1]
            depth = len(path)
            t = step[depth]
            while rem:
                bit = rem & -rem
                rem ^= bit
                v = bit.bit_length() - 1
                if adj[v] & unplaced & late[t]:
                    continue
                lower = twin[v]
                if lower >= 0 and unplaced >> lower & 1:
                    continue
                child = key | (1 + t - lo[v]) << (3 * v)
                if child in visited:
                    continue
                if time.monotonic() > deadline:
                    return UNKNOWN, None, stats
                rest = unplaced ^ bit
                child_ok = _hall_child(ok, rest, adj[v], t, left)
                if child_ok is None:
                    continue
                if len(visited) >= max_states:
                    return UNKNOWN, None, stats
                visited.add(child)
                stats.states_visited += 1
                path.append(v)
                if depth + 1 == n:
                    pos = [0] * n
                    for p, u in zip(plan.order, path):
                        pos[u] = p
                    return YES, _checked(plan.g, plan.b, pos, "python"), stats
                top[2], unplaced = rem, rest
                left[step[depth + 1]] -= 1
                stack.append([child, child_ok, child_ok[step[depth + 1]] & rest])
                break
            else:
                stack.pop()
                if path:
                    unplaced |= 1 << path.pop()
                    left[t] += 1
    except MemoryError:
        return UNKNOWN, None, stats
    return NO, None, stats


def c_decide(g: Graph, b: int, tree: RootedTree, roots: range, max_states: int = DEFAULT_MAX_STATES,
             deadline: float = math.inf, stop: ctypes.c_int | None = None) -> DecideResult:
    """solve.walk's part over the root choices in `roots`, in one
    compiled call, as a DecideResult with a checked ordering and kernel
    "c" once a run was made. The first run that does not answer NO ends
    the call with its answer: YES, or UNKNOWN on the state cap, the
    deadline, the stop flag or out of memory. The kernel reads `stop`
    wherever it reads the clock; once another thread sets it to 1 the
    call answers UNKNOWN as if the deadline had passed. Raises
    ValueError when c_kernel_for(n) gives no kernel (its arrays hold
    MAXN vertices), when b is not in 1..n-1, or when tree.n != g.n (the
    guard checks no more of tree)."""
    kernel = c_kernel_for(g.n)
    if kernel is None or not (1 <= b < g.n and tree.n == g.n):
        raise ValueError(f"c_decide requires the compiled kernel for n, 1 <= b < n and a tree on n vertices, "
                         f"got b={b}, n={g.n}")
    ints = ctypes.c_int * g.n
    pos, out = ints(), (ctypes.c_uint64 * _OUT_LEN)()
    code = kernel.bw_decide(
        g.n, b, (ctypes.c_uint64 * g.n)(*(sum(1 << u for u in nbrs) for nbrs in g.adj)),
        ints(*tree.preorder), ints(*(-1 if p is None else p for p in tree.parent)),
        roots.start, roots.stop,
        max(0, min(max_states, _U64_MAX)), deadline, stop, pos, out,
    )
    status = _C_STATUS[code]
    runs, states, max_run = out
    stats = DecideStats(runs, runs, states, max_run, "c" if runs else None)
    return DecideResult(status, _checked(g, b, pos[:], "c") if status == YES else None, stats)


def c_kernel_for(n: int):
    """The compiled kernel when it loads and 1 <= n <= its MAXN, else
    None: the one test of whether a decide on n vertices runs in C."""
    kernel = _c_kernel()
    return kernel if kernel is not None and 0 < n <= kernel.maxn else None


def _checked(g: Graph, b: int, pos: list[int], kernel: str) -> list[int]:
    """pos, which a kernel found; WitnessError if its bandwidth is over b."""
    if ordering_bandwidth(g, pos) > b:
        raise WitnessError(f"{kernel} kernel returned an ordering of bandwidth > {b}")
    return pos


def _hall_child(ok, unplaced, nbrs, t, left):
    """The child's masks, or None when the child state fails the
    Hall-count test; hall() in _kernel.c states the rule, and this is
    its window scan. ok, left, t and `unplaced`, the child's unassigned
    set, are as there, nbrs is the placed vertex's neighbours, and ok[s]
    may also hold bits of assigned vertices, which `unplaced` masks off.

    Two devices keep it cheap in Python. Only the live segments (those
    with steps left) are walked, each with the union of the live masks
    after it, since a window holds the same vertices and steps as the
    live segments inside it. The masks are copied only when the placed
    vertex has unassigned neighbours."""
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
        c = left[s]
        if c:
            m = nok[s] & unplaced
            live.append((m, c, later))
            later |= m
    if unplaced & ~later:
        return None
    live.reverse()
    pre = 0  # the union of the masks before window start i
    for i, (first, _, _) in enumerate(live):
        inner = cap = 0
        for m, c, later in live[i:]:
            inner |= m
            cap += c
            if (inner & ~(pre | later)).bit_count() > cap:
                return None
        pre |= first
    return nok


# bw_dfs and bw_decide return codes; out of memory is UNKNOWN like any cap.
_C_STATUS = (NO, YES, UNKNOWN)
_OUT_LEN = 3  # bw_decide's out[] slots: runs, states of all runs, of the largest run
_U64_MAX = (1 << 64) - 1


_KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")


@functools.cache
def _c_kernel():
    """The compiled kernel with bw_decide declared and its vertex limit,
    bw_maxn, read into .maxn; None when it cannot be had.

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
        kernel.maxn = ctypes.c_int.in_dll(kernel, "bw_maxn").value
    except (OSError, AttributeError, ValueError):
        return None
    u64_p = ctypes.POINTER(ctypes.c_uint64)
    int_p = ctypes.POINTER(ctypes.c_int)
    # n, b, adj, order, parent, root_lo, root_hi, max_states, deadline, stop, pos, out
    dec.argtypes = [ctypes.c_int, ctypes.c_int, u64_p, int_p, int_p, ctypes.c_int, ctypes.c_int,
                    ctypes.c_uint64, ctypes.c_double, int_p, int_p, u64_p]
    dec.restype = ctypes.c_int
    return kernel


def _compile_kernel(source: str, lib: str) -> bool:
    """Build `lib` from `source` with the system C compiler; False on
    any failure. The library appears under its final name only once
    complete, so concurrent builders never load a partial file. Once it
    is in place, the builds of other source versions beside it are
    deleted: none of them is ever loaded again."""
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
    folder, name = os.path.split(lib)
    for other in os.listdir(folder):
        if other != name and other.startswith("_kernel-") and other.endswith(".so"):
            with contextlib.suppress(OSError):
                os.remove(os.path.join(folder, other))
    return True
