"""A fixed piece of work that measures how fast the host runs right now.

On a shared host the speed of one core swings by tens of percent, in
phases from a few seconds to minutes (other tenants on the same cores,
caches and memory). A solve time alone then says as much about the host
as about the solver. So the benchmark runs this yardstick between
solves and divides each solve time by the host's current slowdown, the
yardstick's time over its nominal time.

The yardstick is shaped like the solver's phase 2 (a recursive DFS over
packed-integer states with a visited set, adjacency lists and integer
compares) so that what slows one slows the other, but it is frozen
here: a change to the solver does not change it.
"""

from __future__ import annotations

from time import perf_counter

# Yardstick time, in seconds, that counts as slowdown 1.0: about the
# fastest yardstick time seen on a 2-core Intel Xeon (Sapphire Rapids)
# KVM guest under Python 3.11. It only sets the scale: a normalized time
# is the time the work would take at that speed.
NOMINAL_S = 0.025

# A fixed graph on N vertices: a path with chords from a fixed LCG.
N = 14
WIDTH = 4


def _graph() -> list[list[int]]:
    adj = [set() for _ in range(N)]
    x = 12345
    for v in range(N - 1):
        adj[v].add(v + 1)
        adj[v + 1].add(v)
    for _ in range(N // 2):
        x = (x * 1103515245 + 12345) % (1 << 31)
        u = x % N
        x = (x * 1103515245 + 12345) % (1 << 31)
        v = (u + 2 + x % 4) % N
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return [sorted(a) for a in adj]


ADJ = _graph()


def states() -> int:
    """Count every vertex-separation state of width <= WIDTH reachable
    by placing one vertex at a time: a mask of placed vertices is kept
    if at most WIDTH placed vertices still have an unplaced neighbour."""
    adj = ADJ
    visited = {0}

    def visit(mask: int) -> None:
        for v in range(N):
            bit = 1 << v
            if mask & bit:
                continue
            child = mask | bit
            if child in visited:
                continue
            open_ = 0
            for u in range(N):
                if child >> u & 1:
                    for w in adj[u]:
                        if not child >> w & 1:
                            open_ += 1
                            break
            if open_ > WIDTH:
                continue
            visited.add(child)
            visit(child)

    visit(0)
    return len(visited)


EXPECTED_STATES = 2390


def slowdown() -> float:
    """One yardstick run: its time over NOMINAL_S. Raises if the work
    came out wrong."""
    t0 = perf_counter()
    count = states()
    dt = perf_counter() - t0
    if count != EXPECTED_STATES:
        raise RuntimeError(f"yardstick counted {count} states, expected {EXPECTED_STATES}")
    return dt / NOMINAL_S
