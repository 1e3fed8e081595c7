"""Solver orchestration: the decision procedure over the assignment
stream, bandwidth minimization by binary search, disconnected-graph
composition, classical lower bounds, and an independent brute-force
oracle.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field

from .assignments import SegmentAssignment, enumerate_assignments
from .geometry import color_order
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
    dfs_decide,
    per_run_state_ceiling,
)

OPTIMAL = "optimal"


@dataclass(frozen=True)
class Budget:
    """Resource caps for a solve; exponential search must fail honestly."""

    max_states: int = DEFAULT_MAX_STATES
    max_seconds: float | None = None
    max_visited: int | None = None

    def __post_init__(self) -> None:
        if self.max_states <= 0:
            raise ValueError("max_states must be positive")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("max_seconds must be positive")
        if self.max_visited is not None and self.max_visited <= 0:
            raise ValueError("max_visited must be positive")

    @property
    def per_run_cap(self) -> int:
        if self.max_visited is None:
            return self.max_states
        return min(self.max_states, self.max_visited)


@dataclass
class DecideStats:
    assignments_generated: int = 0
    assignments_accepted: int = 0
    runs: int = 0
    states_total: int = 0
    states_max_run: int = 0
    leaf_count: int = 0
    per_run_ceiling: int = 0
    kernel: str | None = None  # phase-2 kernel that ran: "c", "python", "mixed"

    def record_run(self, visited: int, kernel: str) -> None:
        self.runs += 1
        self.states_total += visited
        self.states_max_run = max(self.states_max_run, visited)
        self._add_kernel(kernel)

    def _add_kernel(self, kernel: str | None) -> None:
        if self.kernel is None:
            self.kernel = kernel
        elif kernel not in (None, self.kernel):
            self.kernel = "mixed"

    def merge(self, other: "DecideStats") -> None:
        self.assignments_generated += other.assignments_generated
        self.assignments_accepted += other.assignments_accepted
        self.runs += other.runs
        self.states_total += other.states_total
        self.states_max_run = max(self.states_max_run, other.states_max_run)
        self.leaf_count = max(self.leaf_count, other.leaf_count)
        self.per_run_ceiling = max(self.per_run_ceiling, other.per_run_ceiling)
        self._add_kernel(other.kernel)

    def to_dict(self) -> dict:
        return {
            "assignments_generated": self.assignments_generated,
            "assignments_accepted": self.assignments_accepted,
            "runs": self.runs,
            "states_total": self.states_total,
            "states_max_run": self.states_max_run,
            "leaf_count": self.leaf_count,
            "per_run_ceiling": self.per_run_ceiling,
            "kernel": self.kernel,
        }


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
    prune: bool = True,
) -> DecideResult:
    """Does g admit an ordering of bandwidth <= b?

    Streams segment assignments over the BFS spanning tree through the
    edge filter into the state search. First witness wins; "no" means
    all accepted assignments were exhausted; "unknown" means a budget
    cap fired before either.
    """
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
    deadline = None
    if budget.max_seconds is not None:
        deadline = time.monotonic() + budget.max_seconds

    if workers > 1:
        return _decide_parallel(g, b, budget, tree, stats, deadline, workers, prune)

    corder = color_order(g.n, b)
    unknown_seen = False
    stream = enumerate_assignments(tree, g.n, b, graph=g if prune else None)
    for phi in stream:
        stats.assignments_generated += 1
        if not prune and not _passes_filter(phi, g):
            continue
        stats.assignments_accepted += 1
        if deadline is not None and time.monotonic() > deadline:
            return DecideResult(UNKNOWN, None, stats)
        status, pos, run = dfs_decide(
            phi, g, b,
            max_states=budget.per_run_cap,
            deadline=deadline,
            corder=corder,
        )
        stats.record_run(run.states_visited, run.kernel)
        if status == YES:
            return DecideResult(YES, pos, stats)
        if status == UNKNOWN:
            unknown_seen = True
    return DecideResult(UNKNOWN if unknown_seen else NO, None, stats)


def _passes_filter(phi: SegmentAssignment, g: Graph) -> bool:
    from .assignments import edge_filter

    return edge_filter(phi, g)


# Worker-process context for parallel decide; set once per worker.
_CTX: dict = {}


def _init_worker(n, edges, b, root, parent, children, max_states, deadline):
    g = Graph(n, edges)
    tree = RootedTree(root, list(parent), [list(c) for c in children])
    _CTX.update(
        g=g, tree=tree, b=b, corder=color_order(n, b), max_states=max_states,
        deadline=deadline,
    )


def _run_assignment(lo: tuple[int, ...]):
    phi = SegmentAssignment(lo, _CTX["b"], _CTX["tree"])
    status, pos, run = dfs_decide(
        phi, _CTX["g"], _CTX["b"],
        max_states=_CTX["max_states"],
        deadline=_CTX["deadline"],
        corder=_CTX["corder"],
    )
    return status, pos, run.states_visited, run.kernel


def _decide_parallel(g, b, budget, tree, stats, deadline, workers, prune):
    """Fan accepted assignments out to a process pool; results are
    consumed in stream order so the witness matches the sequential one."""
    stream = enumerate_assignments(tree, g.n, b, graph=g if prune else None)

    def accepted_lo():
        for phi in stream:
            stats.assignments_generated += 1
            if prune or _passes_filter(phi, g):
                stats.assignments_accepted += 1
                yield phi.lo

    ctx = multiprocessing.get_context("fork")
    unknown_seen = False
    with ctx.Pool(
        processes=workers,
        initializer=_init_worker,
        initargs=(
            g.n, sorted(g.edges), b, tree.root, tree.parent,
            [list(c) for c in tree.children], budget.per_run_cap, deadline,
        ),
    ) as pool:
        for status, pos, visited, kernel in pool.imap(_run_assignment, accepted_lo(), chunksize=4):
            stats.record_run(visited, kernel)
            if status == YES:
                pool.terminate()
                return DecideResult(YES, pos, stats)
            if status == UNKNOWN:
                unknown_seen = True
            if deadline is not None and time.monotonic() > deadline:
                pool.terminate()
                return DecideResult(UNKNOWN, None, stats)
    return DecideResult(UNKNOWN if unknown_seen else NO, None, stats)


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
        return {
            "bandwidth": self.bandwidth,
            "ordering": list(self.ordering),
            "status": self.status,
            "stats": self.stats,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SolveResult":
        return cls(
            bandwidth=d["bandwidth"],
            ordering=list(d["ordering"]),
            status=d["status"],
            stats=d.get("stats", {}),
        )


def minimize_bandwidth(
    g: Graph,
    budget: Budget | None = None,
    root: int = 0,
    workers: int = 1,
) -> SolveResult:
    """Exact bandwidth of g with a witness ordering.

    Components are solved independently (binary search on b per
    component) and composed into consecutive position blocks, larger
    components first.
    """
    if budget is None:
        budget = Budget()
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
        cres = _solve_component(comp, budget, comp_root, workers, agg)
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
    comp: Graph, budget: Budget, root: int, workers: int, agg: DecideStats
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
        res = decide(comp, mid, budget, root=root, workers=workers)
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
