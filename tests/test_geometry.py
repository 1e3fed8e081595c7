import math

from hypothesis import given
from hypothesis import strategies as st

from bwexact.graph import Graph, RootedTree
from bwexact.search import (
    color_order,
    enumerate_assignments,
    num_base_segments,
    root_choices,
    segment_of,
    segment_width,
)
from bwexact.solve import root_prefix

# Every n <= 40 and b < n: the sizes on which the formulas that the
# search writes as _kernel.c does are checked against their definitions.
SIZES = [(n, b) for n in range(2, 41) for b in range(1, n)]


def color(p: int, b: int) -> int:
    """Color of position p, in 1..b+1: its 1-based offset inside its
    base segment."""
    return (p - 1) % (b + 1) + 1


def positions(lo: int, hi: int, b: int, n: int) -> set[int]:
    """Positions of the segment (lo, hi): those in 1..n whose base
    segment is one of lo .. hi-1, the rule consistency_witness applies."""
    return {p for p in range(1, n + 1) if lo <= segment_of(p, b) < hi}


class TestSegmentOf:
    def test_known_values(self):
        assert segment_of(5, 3) == 1
        assert segment_of(1, 1) == 0
        assert segment_of(1, 7) == 0
        assert segment_of(4, 3) == 0
        assert segment_of(13, 3) == 3

    @given(st.integers(1, 500), st.integers(1, 20))
    def test_position_in_own_base_segment(self, p, b):
        t = segment_of(p, b)
        assert t * (b + 1) + 1 <= p <= (t + 1) * (b + 1)


class TestColorOrder:
    def test_matches_definition(self):
        # Positions 1..n sorted by (color, base segment); the search
        # loops over colors, then base segments, with no sort.
        assert [color(5, 3), color(1, 1), color(1, 9), color(8, 3)] == [1, 1, 1, 4]
        for n, b in SIZES:
            want = sorted(range(1, n + 1), key=lambda p: (color(p, b), segment_of(p, b)))
            assert color_order(n, b) == tuple(want), (n, b)

    def test_reference_layout(self):
        assert list(color_order(14, 3)) == [
            1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 4, 8, 12,
        ]

    def test_single_segment(self):
        assert list(color_order(3, 3)) == [1, 2, 3]

    def test_b1(self):
        assert list(color_order(5, 1)) == [1, 3, 5, 2, 4]

    @given(st.integers(1, 60), st.integers(1, 8))
    def test_bijection(self, n, b):
        assert sorted(color_order(n, b)) == list(range(1, n + 1))

    @given(st.integers(1, 60), st.integers(1, 8))
    def test_step_segments(self, n, b):
        # The step of position p fills base segment segment_of(p, b):
        # each step's segment exists, and within a color they rise.
        steps = [(color(p, b), segment_of(p, b)) for p in color_order(n, b)]
        assert steps == sorted(steps)
        assert all(0 <= t < num_base_segments(n, b) for _, t in steps)


class TestSegment:
    def test_positions_basic(self):
        assert positions(0, 1, 3, 14) == {1, 2, 3, 4}

    def test_negative_lo_clipped(self):
        assert positions(-1, 1, 3, 14) == {1, 2, 3, 4}

    def test_clipped_at_n(self):
        assert positions(3, 4, 3, 14) == {13, 14}

    def test_empty(self):
        assert num_base_segments(14, 3) == 4
        assert positions(5, 6, 3, 14) == set()
        assert positions(3, 4, 3, 14)

    def test_count_matches_definition(self):
        for n, b in SIZES:
            assert num_base_segments(n, b) == len({segment_of(p, b) for p in range(1, n + 1)})

    def test_segment_test_matches_definition(self):
        # A choice stays in the stream exactly when its segment holds a
        # position in 1..n. The tree (root 0, its inner child 1 with the
        # leaf 2, every other vertex a leaf of the root) tries each
        # root choice and the choices on either side of it.
        for n, b in SIZES:
            tree = RootedTree(0, ([None, 0, 1] + [0] * n)[:n])
            width = [segment_width(tree, v) for v in range(n)]

            def holds(c, v):
                return bool(positions(c, c + width[v], b, n))

            roots = [c for c in range(-n - 4, n + 4) if holds(c, 0)]
            assert list(root_choices(n, b)) == roots, (n, b)
            want = []
            for c in roots:
                for d in (c - 1, c + 1) if n > 2 else (c - 1,):
                    lo = (c, d, d - 1, *[c - 1] * (n - 3))[:n]
                    if all(holds(lo[v], v) for v in range(n)):
                        want.append(lo)
            assert list(enumerate_assignments(Graph(n, []), tree, b)) == want, (n, b)


class TestRootPrefix:
    def test_matches_definition(self):
        # decide walks the root choices whose segment holds a position
        # up to ceil(n/2).
        for n, b in SIZES:
            half = set(range(1, math.ceil(n / 2) + 1))
            want = [c for c in root_choices(n, b) if positions(c, c + 2, b, n) & half]
            assert list(root_prefix(n, b)) == want, (n, b)
