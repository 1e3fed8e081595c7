"""Numeric analysis of the state-count branching recurrences.

The state generator branches over the spanning tree in root-to-leaf
order; weighting pending vertices 1, alpha, or beta by how their parent
was handled turns the branching bounds, under the ansatz T(w) = kappa^w,
into four algebraic constraints on kappa:

    leaf:          max(4 k^-1, 4 k^-alpha, 4 k^-beta) <= 1
    parent_unset:  2 k^-1 + 2 k^-(2-beta) + k^-(2-alpha) <= 1
    parent_left:   k^-alpha + k^-(1+alpha-beta) + 2 k^-1 <= 1
    parent_right:  2 k^-beta + 2 k^-1 + k^-(1+beta-alpha) <= 1

Each left side is strictly decreasing in kappa, so the smallest feasible
kappa is the root of the largest residual, found by one bisection. The
total state count is then bounded by 3(n+1) kappa^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

CONSTRAINTS = ("leaf", "parent_unset", "parent_left", "parent_right")

TOL = 1e-10  # relative width of the final kappa bracket
GRID_STEP = 0.005  # coarse weight grid
REFINE_STEP = 1e-4  # fine grid, GRID_STEP either side of the coarse best


@dataclass(frozen=True)
class McWeights:
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0 and 0.0 < self.beta <= 1.0):
            raise ValueError(
                f"weights must lie in (0, 1], got alpha={self.alpha}, beta={self.beta}"
            )


@dataclass(frozen=True)
class McBound:
    kappa: float
    binding: tuple[str, ...]


def _lhs(kappa, a, b):
    """Left sides of the four constraints, in CONSTRAINTS order. Each
    is factored over k^alpha and k^beta, so one evaluation takes two
    powers."""
    ka, kb = kappa**a, kappa**b
    u = 1 / kappa
    return (
        4 / min(kappa, ka, kb),  # 4 max(k^-1, k^-alpha, k^-beta)
        u * (2 + u * (2 * kb + ka)),  # 2 k^-1 + 2 k^-(2-beta) + k^-(2-alpha)
        (1 + u * kb) / ka + 2 * u,  # k^-alpha + k^-(1+alpha-beta) + 2 k^-1
        (2 + u * ka) / kb + 2 * u,  # 2 k^-beta + k^-(1+beta-alpha) + 2 k^-1
    )


def _feasible(kappa, a, b):
    return max(_lhs(kappa, a, b)) <= 1


def constraint_residuals(kappa: float, w: McWeights) -> tuple[float, ...]:
    """Residuals (LHS - 1) of the four constraints; feasible when <= 0."""
    return tuple(lhs - 1 for lhs in _lhs(kappa, w.alpha, w.beta))


def _kappa(a, b):
    """Smallest kappa > 1 at which every residual is <= 0.

    Squares an upper end until it is feasible, then bisects at the
    geometric mean (so huge roots, from tiny weights, take few steps)
    until the bracket is within TOL or holds no float between its ends.
    The lower end stays infeasible and the upper end feasible, and the
    upper end is returned, so its residuals are all <= 0.
    """
    lo, hi = 1.0, 2.0
    while not _feasible(hi, a, b):
        lo, hi = hi, hi * hi
    while True:
        mid = math.sqrt(lo * hi)
        if not (lo < mid < hi and hi > lo * (1 + TOL)):
            return hi
        if _feasible(mid, a, b):
            hi = mid
        else:
            lo = mid


def kappa_for(w: McWeights) -> McBound:
    """Smallest kappa > 1 satisfying all four constraints.

    `binding` names the constraints whose own root lies within 10 TOL
    (relative) of kappa: those still infeasible just below it.
    """
    if min(w.alpha, w.beta) < 0.004:
        # The leaf constraint alone puts kappa at 4^(1/weight) or more,
        # so the bracket would square past the largest float.
        raise ValueError(f"weights below 0.004 put kappa above 4^250, got {w}")
    kappa = _kappa(w.alpha, w.beta)
    below = _lhs(kappa * (1 - 10 * TOL), w.alpha, w.beta)
    return McBound(kappa, tuple(name for name, lhs in zip(CONSTRAINTS, below) if lhs > 1))


def optimize_weights() -> tuple[McWeights, McBound]:
    """Minimize kappa over (alpha, beta) in (0, 1]^2.

    Coarse grid scan followed by a local grid refinement around the best
    coarse point.
    """
    coarse = [min(i * GRID_STEP, 1.0) for i in range(1, round(1 / GRID_STEP) + 1)]
    a_best, b_best = _grid_argmin(coarse, coarse)

    def fine(center):
        steps = round(GRID_STEP / REFINE_STEP)
        vals = (center + i * REFINE_STEP for i in range(-steps, steps + 1))
        return [min(v, 1.0) for v in vals if 0 < v <= 1.0 + 1e-12]

    a_best, b_best = _grid_argmin(fine(a_best), fine(b_best))
    weights = McWeights(a_best, b_best)
    return weights, kappa_for(weights)


def _grid_argmin(a_vals: list[float], b_vals: list[float]) -> tuple[float, float]:
    """First grid point, alpha-major, with the smallest kappa. A point
    infeasible at best * (1 - TOL) cannot beat best by more than TOL,
    so it is not bisected."""
    best, arg = math.inf, None
    for a in a_vals:
        for b in b_vals:
            if best < math.inf and not _feasible(best * (1 - TOL), a, b):
                continue
            kappa = _kappa(a, b)
            if kappa < best:
                best, arg = kappa, (a, b)
    return arg


def log_total_state_bound(n: int, bound: McBound) -> float:
    """Natural log of 3(n+1) kappa^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.log(3 * (n + 1)) + n * math.log(bound.kappa)


def total_state_bound(n: int, bound: McBound) -> float:
    """3(n+1) kappa^n, evaluated in log space; inf on float overflow."""
    lg = log_total_state_bound(n, bound)
    return math.exp(lg) if lg < 709 else math.inf
