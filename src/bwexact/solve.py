"""Solver orchestration: the decision procedure over the assignment
stream, bandwidth minimization by binary search, disconnected-graph
composition, classical lower bounds with a Cuthill-McKee upper bound,
and an independent brute-force oracle.
"""

from __future__ import annotations

import ctypes
import math
import time
from dataclasses import asdict, dataclass, field

from .graph import (
    Graph,
    GraphError,
    RootedTree,
    bfs,
    connected_components,
    ordering_bandwidth,
    spanning_tree,
)
from .search import (
    DEFAULT_MAX_STATES,
    NO,
    UNKNOWN,
    YES,
    DecideResult,
    DecideStats,
    SearchPlan,
    WitnessError,
    c_bounds,
    c_decide,
    c_kernel_for,
    color_order,  # noqa: F401 (perfbench/spans.py wraps solve.color_order)
    dfs_decide,
    enumerate_assignments,
    segment_of,
)

OPTIMAL = "optimal"


@dataclass(frozen=True)
class Budget:
    """Resource caps for a solve; exponential search must fail honestly."""

    max_states: int = DEFAULT_MAX_STATES
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        if type(self.max_states) is not int or self.max_states <= 0:  # bool is an int too
            raise ValueError("max_states must be a positive integer")
        seconds = self.max_seconds
        if seconds is not None and (type(seconds) is bool or not seconds > 0):  # NaN fails > 0
            raise ValueError("max_seconds must be a positive number")

    def deadline(self) -> float:
        """The time.monotonic() instant max_seconds from now; math.inf
        when max_seconds is not set."""
        return math.inf if self.max_seconds is None else time.monotonic() + self.max_seconds


def decide(
    g: Graph,
    b: int,
    budget: Budget | None = None,
    *,
    workers: int = 1,
    deadline: float | None = None,
) -> DecideResult:
    """Does g admit an ordering of bandwidth <= b?

    Searches each segment assignment over the greedy leafy spanning
    tree grown from vertex 0 (graph.spanning_tree) that passes the edge
    filter, in stream order. The stream falls into parts by the root's
    segment, lo[root] = -1, 0, ... (see search.enumerate_assignments),
    each computed by walk. Only the parts of root_prefix(n, b) are
    walked: reversing an ordering (p -> n+1-p) keeps its bandwidth, so
    if any b-ordering exists, one puts the root at a position up to
    ceil(n/2), and every assignment consistent with it has its root's
    lo in the prefix. So a "no" needs only the prefix, and the full
    stream's first "yes" lies in it, after the same runs.

    A serial decide walks the prefix at once. With `workers` above 1 and
    the compiled kernel, up to that many threads walk one part each at
    a time (a compiled call releases the GIL), and the parts are taken
    back in stream order, so the answer, witness and counters are the
    same; once the answer is known, a stop flag ends the parts still
    running. The Python loop (see walk) gains nothing from threads and
    runs serially whatever `workers` says. The first run that does not
    answer "no" is the answer: "yes" with its witness, or "unknown" when
    it stopped on the state cap, the deadline or out of memory, and no
    later run is searched (a "yes" after a capped run is not looked
    for). "no" means every accepted assignment of the prefix was
    exhausted; under a cap it can thus prove "no" where the full stream
    would have stopped at a capped run past the prefix. `deadline` is
    an absolute time.monotonic() instant (NaN is refused); without one,
    the budget's max_seconds counts from now.
    """
    _check_workers(workers)
    if g.n < 2:
        raise GraphError("decide requires n >= 2; route tiny graphs through solve")
    if type(b) is not int or not (1 <= b < g.n):
        raise GraphError(f"decide requires an integer b with 1 <= b < n, got b={b!r}, n={g.n}")
    if budget is None:
        budget = Budget()
    if deadline is None:
        deadline = budget.deadline()
    elif math.isnan(deadline):  # no clock is ever past NaN, so the search would never stop
        raise ValueError("deadline must not be NaN")
    tree = spanning_tree(g, 0)  # raises on disconnected input
    roots = root_prefix(g.n, b)
    if workers == 1 or c_kernel_for(g.n) is None:
        return walk(g, b, tree, roots, budget.max_states, deadline)
    # Only a parallel decide needs it; it loads logging, which the package import need not.
    from concurrent.futures import ThreadPoolExecutor

    stop = ctypes.c_int(0)  # set once the answer is known; every part then returns
    with ThreadPoolExecutor(workers) as pool:
        parts = pool.map(lambda c: walk(g, b, tree, range(c, c + 1), budget.max_states, deadline, stop), roots)
        try:
            return _combine(parts)
        finally:
            stop.value = 1


def root_prefix(n: int, b: int) -> range:
    """The root choices that decide walks: the prefix of
    search.root_choices(n, b) whose segments hold a position up to
    ceil(n/2), that is, up to the base segment of position ceil(n/2)."""
    return range(-1, segment_of((n + 1) // 2, b) + 1)


def _check_workers(workers) -> None:
    # ThreadPoolExecutor takes 1.5 as readily as 2, and True as 1.
    if type(workers) is not int or workers < 1:
        raise ValueError("workers must be a positive integer")


def walk(g: Graph, b: int, tree: RootedTree, roots: range, max_states: int,
         deadline: float, stop: ctypes.c_int | None = None) -> DecideResult:
    """The part of the stream whose root lo lies in `roots`, as one
    DecideResult. decide passes root_prefix(n, b) or one choice of it;
    any range of root_choices(n, b) is walked alike, so the tests can
    set the prefix against the whole stream. Both kernels apply the
    twin rule (see search.SearchPlan). This is the one hand-off to
    phase 2: when c_kernel_for(n) gives the compiled kernel, the part
    is one c_decide call, which takes `stop`; otherwise it is the Python
    loop with no stop flag, one dfs_decide per assignment of
    enumerate_assignments, all reading one SearchPlan, each a one-run
    record of kernel "python" for _combine. Either way the part ends at
    its first run that does not answer NO. Past the deadline it answers
    UNKNOWN after 0 runs."""
    if time.monotonic() > deadline:
        return DecideResult(UNKNOWN, None, DecideStats())
    if c_kernel_for(g.n) is not None:
        return c_decide(g, b, tree, roots, max_states=max_states, deadline=deadline, stop=stop)
    plan = SearchPlan(g, b, tree)
    runs = (dfs_decide(plan, lo, max_states=max_states, deadline=deadline)
            for lo in enumerate_assignments(g, tree, b, roots))
    return _combine(DecideResult(status, pos, DecideStats(1, 1, r.states_visited, r.states_visited, "python"))
                    for status, pos, r in runs)


def _combine(results) -> DecideResult:
    """Fold DecideResults, taken in stream order, into one under
    decide's rule: the first result that is not NO is the answer, a YES
    with its ordering or an UNKNOWN, and no result after it is taken;
    NO once every result is NO. DecideStats.merge folds the counters of
    every result taken. Used on the runs of a Python part and on the
    parts of a decide."""
    stats = DecideStats()
    for res in results:
        stats.merge(res.stats)
        if res.status != NO:
            return DecideResult(res.status, res.ordering, stats)
    return DecideResult(NO, None, stats)


def bounds(g: Graph, deadline: float = math.inf) -> tuple[int, int, list[int]]:
    """(lo, hi, pos) with lo <= bandwidth(g) <= hi = ordering_bandwidth(g, pos).

    lo is max(ceil(maxdeg / 2), 2 if m >= n, ceil((n-1) / diameter)).
    Degree bound: the closer half of a vertex's neighbors still spans
    ceil(deg/2) positions on one side. Cycle bound: a connected graph
    with m >= n has a cycle, so it is not a path and needs bandwidth 2.
    Diameter bound: positions 1 and n are bridged by a path of at most
    diam edges, one of which must span at least (n-1)/diam.

    The diameter takes one BFS per vertex. Each visits neighbors by
    (degree, id), so its visit order is the Cuthill-McKee ordering from
    that start. pos is the identity ordering unless one of these is
    strictly narrower, and then the first narrowest. Once hi meets the
    degree and cycle bounds, no ordering is narrower, so lo = hi and
    the loop stops (on a path or a cycle, after the first BFS). The
    clock is read before each BFS; when the deadline passes first, lo
    is the degree and cycle bounds alone.

    When the compiled kernel loads, the loop is one bw_bounds call for
    any n (search.c_bounds), with the same answers; the Python loop
    below runs otherwise.
    """
    n = g.n
    if n < 2:
        raise GraphError("bounds require a connected graph with n >= 2")
    compiled = c_bounds(g, deadline)
    if compiled is not None:
        return compiled
    degree = [len(a) for a in g.adj]
    degree_bound = max(math.ceil(max(degree) / 2), 2 if g.m >= n else 1)
    pos = list(range(1, n + 1))
    hi = ordering_bandwidth(g, pos)
    # Each g.adj list is ascending and sorted() is stable: (degree, id).
    cm_adj = [sorted(a, key=degree.__getitem__) for a in g.adj]
    diam = 0
    for src in range(n):
        if time.monotonic() > deadline:
            return degree_bound, hi, pos
        dist = [-1] * n
        order, via = bfs(cm_adj, src, dist)
        if len(order) != n:
            raise GraphError("bounds require a connected graph")
        diam = max(diam, dist[order[-1]])
        # The width of a BFS order is its widest tree edge, j - via[j]: a
        # non-tree edge u-w with u first has w seen before u's turn, so
        # w's parent comes before u. Stop once it is no narrower than hi.
        width = 0
        for j in range(1, n):
            span = j - via[j]
            if span > width:
                width = span
                if width >= hi:
                    break
        if width < hi:
            hi = width
            for i, v in enumerate(order, 1):
                pos[v] = i
        if hi == degree_bound:
            return hi, hi, pos
    return max(degree_bound, math.ceil((n - 1) / diam)), hi, pos


def lower_bound(g: Graph, deadline: float = math.inf) -> int:
    """bounds(g, deadline)'s lo: max(ceil(maxdeg / 2), 2 if m >= n,
    ceil((n-1) / diameter)), or the first two alone when the deadline
    passes before the diameter is known."""
    return bounds(g, deadline)[0]


@dataclass
class SolveResult:
    bandwidth: int
    ordering: list[int]
    status: str  # OPTIMAL / UNKNOWN
    stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def minimize_bandwidth(
    g: Graph,
    budget: Budget | None = None,
    *,
    workers: int = 1,
) -> SolveResult:
    """Exact bandwidth of g, the largest of its components', with a witness.

    Every component's bounds come first; then one binary search on b
    runs from the largest lower end to the largest upper end. Each b is
    decided, larger components first, on the components whose upper
    end is above it, up to the first answer that is not yes. Each
    component keeps its narrowest ordering, in a block of consecutive
    positions, larger components first. The budget's max_seconds bounds
    the whole solve: every decide gets the same deadline. An UNKNOWN
    ends the search with stats["bracket"] = [lo, hi].
    """
    _check_workers(workers)
    if budget is None:
        budget = Budget()
    deadline = budget.deadline()
    comps = connected_components(g)
    comps.sort(key=lambda cm: (-cm[0].n, cm[1]))
    widths, orders = [], []  # each component's upper end and its ordering
    lo = hi = 0
    for comp, _ in comps:
        c_lo, c_hi, pos = bounds(comp, deadline) if comp.n > 1 else (0, 0, [1])
        widths.append(c_hi)
        orders.append(pos)
        if c_lo > lo:
            lo = c_lo
        if c_hi > hi:
            hi = c_hi
    agg = DecideStats()
    while lo < hi:
        mid = (lo + hi - 1) // 2
        answer = YES
        for i, (comp, _) in enumerate(comps):
            if widths[i] > mid:
                res = decide(comp, mid, budget, workers=workers, deadline=deadline)
                agg.merge(res.stats)
                answer = res.status
                if answer != YES:
                    break
                widths[i], orders[i] = mid, res.ordering
        if answer == YES:
            hi = mid
        elif answer == NO:
            lo = mid + 1
        else:  # the components decided yes before this one are down to mid
            hi = max(widths)
            break
    status = OPTIMAL if lo == hi else UNKNOWN
    final_pos = [0] * g.n
    offset = 0
    for (comp, orig), pos in zip(comps, orders):
        for v, p in enumerate(pos):
            final_pos[orig[v]] = p + offset
        offset += comp.n
    stats = agg.to_dict()
    stats["components"] = len(comps)
    if status == UNKNOWN:
        stats["bracket"] = [lo, hi]
    # An optimal witness has the bandwidth exactly; an unknown one at most.
    width = ordering_bandwidth(g, final_pos)
    if width > hi or (status == OPTIMAL and width != hi):
        raise WitnessError(f"composed ordering has bandwidth {width}, not {hi}")
    return SolveResult(hi, final_pos, status, stats)


def oracle_bandwidth(g: Graph, limit: int = 10) -> SolveResult:
    """Exact bandwidth by exhaustive branch-and-bound over permutations.

    Entirely independent of the two-phase solver: places vertices into
    positions 1..n one by one, pruning a branch as soon as a placed edge
    reaches the current best. Refuses n over `limit`.
    """
    if g.n > limit:
        raise GraphError(f"oracle limited to n <= {limit}, got n={g.n}")
    identity = list(range(1, g.n + 1))
    best = ordering_bandwidth(g, identity)
    best_pos = identity
    while best > 0:
        pos = _ordering_within(g, best - 1)
        if pos is None:
            break
        best = ordering_bandwidth(g, pos)
        best_pos = pos
    return SolveResult(best, best_pos, OPTIMAL, {"method": "branch-and-bound"})


def _ordering_within(g: Graph, limit: int) -> list[int] | None:
    """Exhaustive search for an ordering of bandwidth <= limit."""
    n = g.n
    pos = [0] * n  # 0 = unplaced
    at = [0] * (n + 1)

    def rec(p: int) -> bool:
        if p > n:
            return True
        drop = p - limit - 1
        if drop >= 1:
            # The vertex at this position can no longer reach unplaced
            # neighbors within the limit.
            u = at[drop]
            if any(pos[w] == 0 for w in g.adj[u]):
                return False
        for v in range(n):
            if pos[v]:
                continue
            if all(pos[u] == 0 or p - pos[u] <= limit for u in g.adj[v]):
                pos[v] = p
                at[p] = v
                if rec(p + 1):
                    return True
                pos[v] = 0
        return False

    if rec(1):
        return list(pos)
    return None
