"""Position geometry for bandwidth layouts: base segments, colors, and
the color order of positions.

Base segments are 0-based: base segment t covers positions
t*(b+1)+1 .. (t+1)*(b+1), clipped to 1..n. The color of a position is
its 1-based offset inside its base segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def segment_of(p: int, b: int) -> int:
    """0-based base-segment index of position p."""
    return (p - 1) // (b + 1)


def color_of(p: int, b: int) -> int:
    """Color of position p, in 1..b+1."""
    return (p - 1) % (b + 1) + 1


def num_base_segments(n: int, b: int) -> int:
    return math.ceil(n / (b + 1))


@dataclass(frozen=True)
class ColorOrder:
    """Positions 1..n sorted by (color, base segment).

    step_base_segment[k] is the base-segment index of the (k+1)-th
    position in the order; the state search fills positions in exactly
    this order.
    """

    sequence: tuple[int, ...]
    step_base_segment: tuple[int, ...]


def color_order(n: int, b: int) -> ColorOrder:
    seq = sorted(range(1, n + 1), key=lambda p: (color_of(p, b), segment_of(p, b)))
    return ColorOrder(tuple(seq), tuple(segment_of(p, b) for p in seq))
