"""Undirected graph representation, edge-list I/O, generators, and
bandwidth of a vertex ordering.

Vertices are 0-based everywhere; positions in an ordering are 1-based.
An ordering is a list ``pos`` of length n with ``pos[v]`` the position
of vertex v, a bijection onto 1..n.
"""

from __future__ import annotations

import heapq
import random


class GraphError(ValueError):
    """Invalid graph construction, parse failure, or bad ordering."""


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Immutable after construction; safe to share across workers.
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges) -> None:
        if type(n) is not int or n < 0:  # bool is an int too
            raise GraphError(f"vertex count must be a non-negative integer, got {n!r}")
        canon = set()
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise GraphError(f"edge ({u!r}, {v!r}) needs integer endpoints")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            canon.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = frozenset(canon)
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in canon:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.adj = tuple(tuple(sorted(a)) for a in nbrs)

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: header line "n m", then m lines "u v".

    Lines starting with '#' are comments. Raises GraphError naming the
    offending line on malformed input.
    """
    header = None
    edges = set()
    expected_m = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise GraphError(f"line {lineno}: expected header 'n m', got {raw!r}")
            try:
                n, expected_m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphError(f"line {lineno}: non-integer header {raw!r}") from None
            if n < 0 or expected_m < 0:
                raise GraphError(f"line {lineno}: negative count in header")
            header = n
            continue
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected edge 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer endpoint in {raw!r}") from None
        if u == v:
            raise GraphError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < header and 0 <= v < header):
            raise GraphError(f"line {lineno}: vertex out of range for n={header}")
        edge = (min(u, v), max(u, v))
        if edge in edges:
            raise GraphError(f"line {lineno}: repeated edge {u} {v}")
        edges.add(edge)
    if header is None:
        raise GraphError("empty input: missing 'n m' header")
    if len(edges) != expected_m:
        raise GraphError(f"header declares m={expected_m} edges, found {len(edges)}")
    return Graph(header, edges)


def write_graph(g: Graph) -> str:
    """Serialize in the edge-list format, edges sorted lexicographically."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def bfs(adj, src: int, dist: list[int]) -> tuple[list[int], list[int | None]]:
    """Breadth-first search from `src` over the vertices v with dist[v] < 0,
    each vertex's neighbors taken in the order of its list in `adj` (a
    graph's `adj`, ascending, or the same lists in another order): sets
    dist[v] to v's distance from src for each vertex reached, and returns
    them in visit order with the position in that order of each one's BFS
    parent (None for src) alongside. Linear in what it reaches."""
    dist[src] = 0
    order: list[int] = [src]
    via: list[int | None] = [None]
    for i, u in enumerate(order):
        d = dist[u] + 1
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = d
                order.append(w)
                via.append(i)
    return order, via


def connected_components(g: Graph) -> list[tuple[Graph, list[int]]]:
    """Split into connected induced subgraphs.

    Each component is relabeled to 0..k-1; the second element maps the
    new label back to the original vertex. A connected g comes back as
    itself, with the identity map.
    """
    dist = [-1] * g.n
    out = []
    for start in range(g.n):
        if dist[start] < 0:
            comp = sorted(bfs(g.adj, start, dist)[0])
            if len(comp) == g.n:
                return [(g, comp)]
            index = {orig: i for i, orig in enumerate(comp)}
            sub_edges = [(i, index[w]) for i, u in enumerate(comp) for w in g.adj[u] if u < w]
            out.append((Graph(len(comp), sub_edges), comp))
    return out


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(bfs(g.adj, 0, [-1] * g.n)[0]) == g.n


class RootedTree:
    """Rooted spanning tree; drives assignment enumeration and the
    leaf/inner vertex split."""

    __slots__ = ("root", "parent", "children", "preorder", "leaves")

    def __init__(self, root: int, parent: list[int | None]) -> None:
        self.root = root
        self.parent = tuple(parent)
        children: list[list[int]] = [[] for _ in parent]
        for v, p in enumerate(parent):
            if p is not None:
                children[p].append(v)
        self.children = tuple(map(tuple, children))  # each in ascending order
        order = []
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(self.children[v]))
        self.preorder = tuple(order)
        self.leaves = frozenset(v for v in order if not self.children[v])

    @property
    def n(self) -> int:
        return len(self.parent)

    def is_leaf(self, v: int) -> bool:
        return v in self.leaves


def spanning_tree(g: Graph, root: int = 0) -> RootedTree:
    """Greedy leafy spanning tree rooted at `root`.

    From the root alone, the tree vertex with the most neighbors outside
    the tree (the lowest id among ties) takes all of them as children,
    until the tree spans g. A leaf costs the search one phase-1 choice
    and an inner vertex two, so more leaves mean fewer assignments and
    smaller runs. On a tree input each vertex's outside neighbors are
    its children, so the result is the input rooted at `root`, as a BFS
    gives it. The heap keys go stale only downwards and are refreshed
    when popped: O(m log n). Deterministic; requires g connected.
    """
    n = g.n
    if not (0 <= root < n):
        raise GraphError(f"root {root} out of range for n={n}")
    adj = g.adj
    parent: list[int | None] = [None] * n
    in_tree = [False] * n
    free = [len(a) for a in adj]  # neighbors outside the tree
    in_tree[root] = True
    for w in adj[root]:
        free[w] -= 1
    heap = [(-free[root], root)]
    while heap:
        key, v = heapq.heappop(heap)
        k = free[v]
        if k == 0:
            continue
        if k != -key:
            heapq.heappush(heap, (-k, v))
            continue
        kids = [w for w in adj[v] if not in_tree[w]]
        for w in kids:
            in_tree[w] = True
            parent[w] = v
            for x in adj[w]:
                free[x] -= 1
        for w in kids:
            if free[w]:
                heapq.heappush(heap, (-free[w], w))
    if not all(in_tree):
        raise GraphError("graph is not connected; split into components first")
    return RootedTree(root, parent)


def check_ordering(g: Graph, pos: list[int]) -> None:
    if len(pos) != g.n or sorted(pos) != list(range(1, g.n + 1)):
        raise GraphError(f"ordering is not a bijection onto 1..{g.n}: {pos}")


def ordering_bandwidth(g: Graph, pos: list[int]) -> int:
    """Max |pos[u] - pos[v]| over edges; 0 for edgeless graphs."""
    check_ordering(g, pos)
    return max((abs(pos[u] - pos[v]) for u, v in g.edges), default=0)


# Each generator family's parameter types, in order: generate checks the
# count and types against it (an int passes for a float, a bool for
# neither) and the CLI's gen command converts its arguments by it.
FAMILY_PARAMS = {
    "path": (int,), "cycle": (int,), "complete": (int,), "star": (int,),
    "random_gnp": (int, float), "random_tree": (int,), "caterpillar": (int, int),
}


def generate(family: str, *params, seed: int = 0, connected: bool = True) -> Graph:
    """Deterministic test-corpus generators.

    Families: path(n), cycle(n), complete(n), star(m) [n=m+1],
    random_gnp(n, p), random_tree(n), caterpillar(spine, legs).
    """
    types = FAMILY_PARAMS.get(family)
    if types is None:
        raise GraphError(f"unknown graph family {family!r}")
    if len(params) != len(types):
        raise GraphError(f"family {family} takes {len(types)} parameter(s), got {len(params)}")
    for i, (kind, p) in enumerate(zip(types, params), 1):
        if type(p) is not kind and not (kind is float and type(p) is int):
            raise GraphError(f"family {family} parameter {i} must be {kind.__name__}, got {p!r}")
    rng = random.Random(seed)
    if family == "path":
        (n,) = params
        _require(n >= 1, "path needs n >= 1")
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if family == "cycle":
        (n,) = params
        _require(n >= 3, "cycle needs n >= 3")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if family == "complete":
        (n,) = params
        _require(n >= 1, "complete needs n >= 1")
        return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if family == "star":
        (m,) = params
        _require(m >= 0, "star needs m >= 0 leaves")
        return Graph(m + 1, [(0, i) for i in range(1, m + 1)])
    if family == "random_gnp":
        n, p = params
        _require(n >= 1 and 0.0 <= p <= 1.0, "random_gnp needs n >= 1, 0 <= p <= 1")
        for _ in range(10_000):
            edges = [
                (i, j) for i in range(n) for j in range(i + 1, n)
                if rng.random() < p
            ]
            g = Graph(n, edges)
            if not connected or is_connected(g):
                return g
        raise GraphError(f"random_gnp(n={n}, p={p}) failed to produce a connected graph")
    if family == "random_tree":
        (n,) = params
        _require(n >= 1, "random_tree needs n >= 1")
        return random_tree(n, rng)
    spine, legs = params  # caterpillar, the one family left
    _require(spine >= 1 and legs >= 0, "caterpillar needs spine >= 1, legs >= 0")
    edges = [(i, i + 1) for i in range(spine - 1)]
    for k in range(legs):
        edges.append((rng.randrange(spine), spine + k))
    return Graph(spine + legs, edges)


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform labeled tree via a random Pruefer sequence."""
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return tree_from_pruefer(n, seq)


def tree_from_pruefer(n: int, seq: list[int]) -> Graph:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return Graph(n, edges)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise GraphError(msg)
