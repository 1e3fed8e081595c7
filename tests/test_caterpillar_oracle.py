"""An independent oracle past the brute force's n <= 10: the bandwidth
of a caterpillar with hairs of length 1, from its spine alone, with no
search (Assmann, Peck, Sysło & Zak 1981, SIAM J. Alg. Disc. Meth. 2).
"""

import itertools
import math

import pytest

from bwexact.graph import generate
from bwexact.solve import OPTIMAL, minimize_bandwidth


def caterpillar_bandwidth(hairs: list[int]) -> int:
    """The bandwidth of the caterpillar whose spine is the path
    s_0 .. s_{k-1}, where s_i carries hairs[i] hairs.

    It is the largest ceil((|H| - 1) / diam(H)) over every spine
    interval [i, j] and over taking or leaving each end's hairs. H holds
    s_i .. s_j, every hair of s_{i+1} .. s_{j-1} and the end hairs
    taken. diam(H) is j - i, plus 1 for each end taken that has hairs;
    when i = j it is 2 with two or more hairs taken and 1 with one.
    """
    best = 0
    for i, j in itertools.combinations_with_replacement(range(len(hairs)), 2):
        ends = (hairs[i],) if i == j else (hairs[i], hairs[j])
        for taken in itertools.product(*[(0, h) for h in ends]):
            size = j - i + 1 + sum(hairs[i + 1:j]) + sum(taken)
            diam = min(size - 1, 2) if i == j else j - i + sum(1 for h in taken if h)
            if diam:
                best = max(best, math.ceil((size - 1) / diam))
    return best


def hairs_of(spine: int, g) -> list[int]:
    """generate("caterpillar", spine, legs) numbers the spine 0 .. spine-1
    along the path and hangs each leg, a vertex >= spine, on one of them."""
    return [sum(1 for u in g.adj[s] if u >= spine) for s in range(spine)]


def test_known_values():
    assert caterpillar_bandwidth([0, 0]) == 1  # an edge
    assert caterpillar_bandwidth([3, 0]) == 2  # the star K(1, 4)
    assert caterpillar_bandwidth([0, 6, 0]) == 4  # the star K(1, 8)
    assert caterpillar_bandwidth([2, 0, 0, 2]) == 2
    # s_1 .. s_3 with the hairs of s_1 and s_2: 11 vertices, diameter 3.
    assert caterpillar_bandwidth([1, 4, 4, 1]) == 4


def test_spine_formula_matches_solver():
    # Every caterpillar with spine 2-12 and up to 21 vertices, seeds 0-1.
    checked = 0
    for spine in range(2, 13):
        for legs in range(0, 22 - spine):
            for seed in (0, 1):
                g = generate("caterpillar", spine, legs, seed=seed)
                res = minimize_bandwidth(g)
                assert res.status == OPTIMAL, (spine, legs, seed)
                assert res.bandwidth == caterpillar_bandwidth(hairs_of(spine, g)), (spine, legs, seed)
                checked += 1
    assert checked == 330


@pytest.mark.parametrize("spine, legs", [(8, 14), (11, 11)])
def test_spine_formula_on_python_loop(spine, legs):
    # n = 22 is past the compiled kernel's limit, so the Python loop runs.
    g = generate("caterpillar", spine, legs, seed=1)
    res = minimize_bandwidth(g)
    assert res.status == OPTIMAL
    assert res.stats["kernel"] == "python"
    assert res.bandwidth == caterpillar_bandwidth(hairs_of(spine, g))
