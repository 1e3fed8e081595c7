import math
import time

import pytest

from bwexact.analysis import (
    CONSTRAINTS,
    McBound,
    McWeights,
    constraint_residuals,
    kappa_for,
    log_total_state_bound,
    optimize_weights,
    total_state_bound,
)


class TestResiduals:
    def test_unit_weights_collapse_to_five_way_branching(self):
        w = McWeights(1, 1)
        leaf, unset, left, right = constraint_residuals(5.0, w)
        assert unset == pytest.approx(0, abs=1e-12)
        assert right == pytest.approx(0, abs=1e-12)
        assert left == pytest.approx(4 / 5 - 1, abs=1e-12)
        assert leaf == pytest.approx(4 / 5 - 1, abs=1e-12)

    @pytest.mark.parametrize("kappa", [1.5, 4.83, 10.0, 1e6])
    @pytest.mark.parametrize("a, b", [(1, 1), (0.8805, 1), (0.6, 0.8), (0.3, 0.05)])
    def test_matches_the_stated_powers(self, kappa, a, b):
        k = kappa
        direct = (
            max(4 * k**-1, 4 * k**-a, 4 * k**-b) - 1,
            2 * k**-1 + 2 * k ** -(2 - b) + k ** -(2 - a) - 1,
            k**-a + k ** -(1 + a - b) + 2 * k**-1 - 1,
            2 * k**-b + 2 * k**-1 + k ** -(1 + b - a) - 1,
        )
        assert constraint_residuals(kappa, McWeights(a, b)) == pytest.approx(direct, rel=1e-12, abs=1e-15)

    def test_reference_weights_feasible(self):
        w = McWeights(0.8805, 1)
        assert all(r <= 1e-3 for r in constraint_residuals(4.8285, w))

    def test_limits_at_large_kappa(self):
        w = McWeights(1, 1)
        assert all(
            r == pytest.approx(-1, abs=1e-6)
            for r in constraint_residuals(1e9, w)
        )

    def test_strictly_decreasing_in_kappa(self):
        w = McWeights(0.7, 0.9)
        ks = [1.5, 2.0, 3.0, 5.0, 8.0]
        for i in range(4):
            lo = constraint_residuals(ks[i], w)
            hi = constraint_residuals(ks[i + 1], w)
            assert all(h < l for l, h in zip(lo, hi))


class TestKappaFor:
    def test_unit_anchor_is_five(self):
        assert kappa_for(McWeights(1, 1)).kappa == pytest.approx(5, abs=1e-6)

    def test_reference_weights(self):
        bound = kappa_for(McWeights(0.8805, 1))
        assert 4.8280 <= bound.kappa <= 4.8290

    def test_all_residuals_feasible_at_answer(self):
        # Tiny weights put the root far past any absolute tolerance
        # (4^(1/0.005) = 2^400); the bisection must still end at once.
        pairs = [(1, 1), (0.8805, 1), (0.6, 0.8), (0.05, 1), (0.01, 1), (0.005, 0.005), (1, 0.005)]
        for alpha, beta in pairs:
            w = McWeights(alpha, beta)
            start = time.monotonic()
            bound = kappa_for(w)
            assert time.monotonic() - start < 1
            assert all(r <= 0 for r in constraint_residuals(bound.kappa, w))
        bound = kappa_for(McWeights(0.05, 1))
        assert bound.kappa == pytest.approx(4**20, rel=1e-9)
        assert bound.binding == ("leaf",)

    @pytest.mark.parametrize("alpha, beta, kappa, binding", [
        (0.8805, 1, 4.828484905185178, ("parent_unset", "parent_right")),
        (1, 1, 5.000000000465661, ("parent_unset", "parent_right")),
        (0.6, 0.8, 10.079368399688974, ("leaf",)),
    ])
    def test_pinned_bounds(self, alpha, beta, kappa, binding):
        bound = kappa_for(McWeights(alpha, beta))
        assert bound.kappa == pytest.approx(kappa, rel=1e-9)
        assert bound.binding == binding

    def test_leaf_root_closed_form(self):
        # With the reference weights the leaf constraint roots at
        # 4^(1/alpha) and sits within 2e-3 of the overall bound.
        w = McWeights(0.8805, 1)
        leaf_root = 4 ** (1 / 0.8805)
        assert constraint_residuals(leaf_root, w)[0] == pytest.approx(0, abs=1e-9)
        assert abs(kappa_for(w).kappa - leaf_root) <= 2e-3

    def test_binding_reported(self):
        bound = kappa_for(McWeights(1, 1))
        assert set(bound.binding) <= set(CONSTRAINTS)
        assert "parent_unset" in bound.binding


class TestOptimize:
    def test_reproduces_reference_bound(self):
        start = time.monotonic()
        weights, bound = optimize_weights()
        assert time.monotonic() - start < 2
        assert bound.kappa < 4.83
        assert weights == McWeights(0.8805, 1.0)
        assert bound.kappa == pytest.approx(4.828484905191565, rel=1e-12)
        assert bound.binding == ("parent_unset", "parent_right")

    def test_degenerate_line_gives_five(self):
        # Restricting to alpha = beta = 1 recovers the unweighted bound.
        assert kappa_for(McWeights(1, 1)).kappa == pytest.approx(5, abs=1e-6)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            McWeights(0, 1)
        with pytest.raises(ValueError):
            McWeights(0.5, 1.2)
        for w in (McWeights(0.0039, 1), McWeights(1, 1e-300)):
            with pytest.raises(ValueError, match="4\\^250"):
                kappa_for(w)


class TestTotalStateBound:
    def test_small_values(self):
        assert total_state_bound(1, McBound(5.0, ())) == pytest.approx(30)

    def test_log_space_agrees(self):
        bound = McBound(4.8285, ())
        direct = 3 * 11 * 4.8285**10
        assert total_state_bound(10, bound) == pytest.approx(direct, rel=1e-6)

    def test_large_n_does_not_overflow(self):
        bound = McBound(4.8285, ())
        assert total_state_bound(10_000, bound) == math.inf
        lg = log_total_state_bound(10_000, bound)
        assert lg == pytest.approx(math.log(3 * 10_001) + 10_000 * math.log(4.8285))
