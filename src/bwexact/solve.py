"""Solver orchestration: the decision procedure over the assignment
stream, bandwidth minimization by binary search, disconnected-graph
composition, classical lower bounds, and an independent brute-force
oracle.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from multiprocessing.connection import wait

from .assignments import enumerate_assignments
from .geometry import color_order  # noqa: F401 (perfbench/spans.py wraps solve.color_order)
from .geometry import num_base_segments
from .graph import (
    Graph,
    GraphError,
    RootedTree,
    connected_components,
    ordering_bandwidth,
    spanning_tree,
)
from .search import (
    DEFAULT_MAX_STATES,
    NO,
    UNKNOWN,
    YES,
    WitnessError,
    c_decide,
    c_kernel_for,
    dfs_decide,
    per_run_state_ceiling,
)

OPTIMAL = "optimal"


@dataclass(frozen=True)
class Budget:
    """Resource caps for a solve; exponential search must fail honestly."""

    max_states: int = DEFAULT_MAX_STATES
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_states <= 0:
            raise ValueError("max_states must be positive")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("max_seconds must be positive")

    def deadline(self) -> float | None:
        """The time.monotonic() instant max_seconds from now, if set."""
        return None if self.max_seconds is None else time.monotonic() + self.max_seconds


@dataclass
class DecideStats:
    assignments_generated: int = 0
    runs: int = 0
    states_total: int = 0
    states_max_run: int = 0
    leaf_count: int = 0
    per_run_ceiling: int = 0
    kernel: str | None = None  # phase-2 kernel that ran: "c", "python", "mixed"

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
        self.leaf_count = max(self.leaf_count, other.leaf_count)
        self.per_run_ceiling = max(self.per_run_ceiling, other.per_run_ceiling)
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


def decide(
    g: Graph,
    b: int,
    budget: Budget | None = None,
    root: int = 0,
    workers: int = 1,
    deadline: float | None = None,
) -> DecideResult:
    """Does g admit an ordering of bandwidth <= b?

    Searches each segment assignment over the BFS spanning tree that
    passes the edge filter, in stream order. The stream falls into
    parts by the root's segment, lo[root] = -1, 0, ... (see
    assignments), each computed by walk. A serial decide walks the
    whole stream; with `workers` above 1, the parts go to that many
    forked processes, one part per worker at a time, and are taken
    back in stream order, so the answer, witness and counters are the
    same. First witness wins; "no" means all accepted assignments were
    exhausted; "unknown" means a budget cap fired, or a worker died,
    before either. `deadline` is an absolute time.monotonic() instant;
    without one, the budget's max_seconds counts from now.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not (0 <= root < g.n):
        raise GraphError(f"root {root} out of range")
    if g.n < 2:
        raise GraphError("decide requires n >= 2; route tiny graphs through solve")
    if not (1 <= b < g.n):
        raise GraphError(f"decide requires 1 <= b < n, got b={b}, n={g.n}")
    if budget is None:
        budget = Budget()
    tree = spanning_tree(g, root)  # raises on disconnected input
    stats = DecideStats(
        leaf_count=tree.leaf_count,
        per_run_ceiling=per_run_state_ceiling(g.n, tree.leaf_count),
    )
    if deadline is None:
        deadline = budget.deadline()
    if workers == 1:
        status, pos, runs, states, max_run = walk(g, b, tree, None, budget.max_states, deadline)
    else:
        roots = range(-1, num_base_segments(g.n, b))
        parts = _forked_runs([range(c, c + 1) for c in roots],
                             lambda part: walk(g, b, tree, part, budget.max_states, deadline), workers)
        try:
            status, pos, runs, states, max_run = _combine(parts, deadline)
        finally:
            parts.close()
    stats.runs = stats.assignments_generated = runs
    stats.states_total, stats.states_max_run = states, max_run
    if runs:
        stats.kernel = "python" if c_kernel_for(g.n) is None else "c"
    return DecideResult(status, pos, stats)


def walk(g: Graph, b: int, tree: RootedTree, roots: range | None, max_states: int,
         deadline: float | None) -> tuple:
    """The part of decide's stream whose root lo lies in `roots` (all of
    it if None): (status, ordering or None, runs, states, largest run's
    states), as _combine folds its runs. One compiled call (c_decide)
    when c_kernel_for(n) allows it, else the Python loop of dfs_decide
    over enumerate_assignments; the choice of kernel is made here only."""
    found = c_decide(g, b, tree, max_states=max_states, deadline=deadline, roots=roots)
    if found is not None:
        return found
    runs = (dfs_decide(g, b, tree, lo, max_states=max_states, deadline=deadline)
            for lo in enumerate_assignments(g, tree, b, roots))
    return _combine(((status, pos, 1, r.states_visited, r.states_visited) for status, pos, r in runs),
                    deadline)


def _combine(results, deadline: float | None) -> tuple:
    """Fold (status, ordering, runs, states, max_run) results, taken in
    stream order, into one under decide's rules: the first YES wins; an
    UNKNOWN (a capped run, a dead worker) makes the answer UNKNOWN
    unless a later result is YES; an UNKNOWN past the deadline ends the
    fold. Runs and states add up, and max_run is the largest. Used on
    the runs of a Python part and on the parts of a decide."""
    unknown_seen = False
    runs = states = max_run = 0
    for status, pos, r, s, m in results:
        runs += r
        states += s
        max_run = max(max_run, m)
        if status == YES:
            return YES, pos, runs, states, max_run
        if status == UNKNOWN:
            # Each run gets the deadline, and one started after it
            # returns UNKNOWN at once, so only such results need the check.
            if deadline is not None and time.monotonic() > deadline:
                return UNKNOWN, None, runs, states, max_run
            unknown_seen = True
    return UNKNOWN if unknown_seen else NO, None, runs, states, max_run


# The result of a part whose worker process died.
_LOST = (UNKNOWN, None, 0, 0, 0)


def _forked_runs(tasks, run, workers):
    """Yield run(task) for each of the list `tasks`, in order, computed
    in `workers` forked processes (fewer if there are fewer tasks) that
    each own a pipe and hold one task at a time.

    A worker gets the next task as soon as it is free, and results that
    come back early wait here for their turn. A task whose worker died
    yields _LOST, and once every worker has died the stream ends; an
    exception raised by run is re-raised here. Closing the generator
    kills and joins every worker.
    """
    ctx = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for _ in range(min(workers, len(tasks))):
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(child_conn, run), daemon=True)
            proc.start()
            child_conn.close()
            procs.append(proc)
            conns.append(conn)
        idle = conns[:]  # live workers holding no task
        busy = {}  # pipe -> index of the task its worker holds
        done = {}  # index -> result not yet yielded
        todo = deque(enumerate(tasks))
        for i in range(len(tasks)):
            while i not in done:
                while idle and todo:
                    k, task = todo.popleft()
                    conn = idle.pop()
                    with contextlib.suppress(OSError):  # a dead worker shows as EOF below
                        conn.send(task)
                    busy[conn] = k
                if not busy:
                    return  # every worker has died, each on a task that yielded _LOST
                for conn in wait(list(busy)):
                    k = busy.pop(conn)
                    try:
                        done[k] = conn.recv()
                    except (EOFError, OSError):
                        done[k] = _LOST
                    else:
                        idle.append(conn)
            out = done.pop(i)
            if isinstance(out, BaseException):
                raise out
            yield out
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()


def _serve(conn, run):
    """A worker of _forked_runs: answer each task with run(task), or
    with the exception that it raised, until the pipe closes."""
    with contextlib.suppress(EOFError):
        while True:
            task = conn.recv()
            try:
                out = run(task)
            except Exception as exc:
                out = exc
            conn.send(out)


def eccentricities(g: Graph) -> list[int]:
    ecc = []
    for src in range(g.n):
        dist = [-1] * g.n
        dist[src] = 0
        queue = deque([src])
        far = 0
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    far = max(far, dist[w])
                    queue.append(w)
        if any(d < 0 for d in dist):
            raise GraphError("eccentricity needs a connected graph")
        ecc.append(far)
    return ecc


def lower_bound(g: Graph) -> int:
    """max(ceil(maxdeg / 2), ceil((n-1) / diameter)).

    Degree bound: the closer half of a vertex's neighbors still spans
    ceil(deg/2) positions on one side. Diameter bound: positions 1 and n
    are bridged by a path of at most diam edges, one of which must span
    at least (n-1)/diam.
    """
    if g.n < 2:
        raise GraphError("lower_bound requires a connected graph with n >= 2")
    diam = max(eccentricities(g))
    maxdeg = max(g.degree(v) for v in range(g.n))
    return max(math.ceil(maxdeg / 2), math.ceil((g.n - 1) / diam))


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
    root: int = 0,
    workers: int = 1,
) -> SolveResult:
    """Exact bandwidth of g with a witness ordering.

    Components are solved independently (binary search on b per
    component) and composed into consecutive position blocks, larger
    components first. The budget's max_seconds bounds the whole solve:
    every decide gets the same deadline.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if budget is None:
        budget = Budget()
    deadline = budget.deadline()
    comps = connected_components(g)
    comps.sort(key=lambda cm: (-cm[0].n, cm[1]))
    final_pos = [0] * g.n
    offset = 0
    best = 0
    status = OPTIMAL
    agg = DecideStats()
    brackets = []
    wall_start = time.monotonic()
    for comp, orig in comps:
        # Root flag refers to original labels; fall back to 0 when the
        # requested root lies in another component.
        comp_root = orig.index(root) if root in orig else 0
        cres = _solve_component(comp, budget, deadline, comp_root, workers, agg)
        if cres.status == UNKNOWN:
            status = UNKNOWN
            brackets.append({"component_size": comp.n, "bracket": cres.stats["bracket"]})
        best = max(best, cres.bandwidth)
        for v, p in enumerate(cres.ordering):
            final_pos[orig[v]] = p + offset
        offset += comp.n
    stats = agg.to_dict()
    stats["wall_seconds"] = time.monotonic() - wall_start
    stats["components"] = len(comps)
    if brackets:
        stats["unknown_brackets"] = brackets
    if status == OPTIMAL and ordering_bandwidth(g, final_pos) != best:
        raise WitnessError(f"composed ordering does not have bandwidth {best}")
    return SolveResult(best, final_pos, status, stats)


def _solve_component(
    comp: Graph, budget: Budget, deadline: float | None, root: int, workers: int,
    agg: DecideStats,
) -> SolveResult:
    n = comp.n
    if n == 1:
        return SolveResult(0, [1], OPTIMAL)
    identity = list(range(1, n + 1))
    best_b = ordering_bandwidth(comp, identity)
    best_pos = identity
    lo = lower_bound(comp)
    hi = min(best_b, n - 1) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        res = decide(comp, mid, budget, root=root, workers=workers, deadline=deadline)
        agg.merge(res.stats)
        if res.status == YES:
            best_b = mid
            best_pos = res.ordering
            hi = mid - 1
        elif res.status == NO:
            lo = mid + 1
        else:
            return SolveResult(
                best_b, best_pos, UNKNOWN,
                {"bracket": [lo, best_b]},
            )
    return SolveResult(best_b, best_pos, OPTIMAL)


def oracle_bandwidth(g: Graph, limit: int = 10) -> SolveResult:
    """Exact bandwidth by exhaustive branch-and-bound over permutations.

    Entirely independent of the two-phase solver: places vertices into
    positions 1..n one by one, pruning a branch as soon as a placed edge
    reaches the current best. Refuses n over `limit`.
    """
    if g.n > limit:
        raise GraphError(f"oracle limited to n <= {limit}, got n={g.n}")
    if g.n == 0:
        return SolveResult(0, [], OPTIMAL)
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
