from hypothesis import given
from hypothesis import strategies as st

from bwexact.geometry import (
    color_of,
    color_order,
    num_base_segments,
    segment_of,
)


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


class TestColorOf:
    def test_known_values(self):
        assert color_of(5, 3) == 1
        assert color_of(1, 1) == 1
        assert color_of(1, 9) == 1
        assert color_of(8, 3) == 4

    @given(st.integers(1, 500), st.integers(1, 20))
    def test_range(self, p, b):
        assert 1 <= color_of(p, b) <= b + 1

    @given(st.integers(1, 500), st.integers(1, 20))
    def test_same_color_adjacent_segments_distance(self, p, b):
        # Equal-color positions in neighboring base segments sit exactly
        # b+1 apart.
        q = p + b + 1
        assert color_of(q, b) == color_of(p, b)
        assert segment_of(q, b) == segment_of(p, b) + 1


class TestColorOrder:
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
        steps = [(color_of(p, b), segment_of(p, b)) for p in color_order(n, b)]
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
