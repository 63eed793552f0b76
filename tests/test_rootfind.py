import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupprox import l1_ball_threshold
from groupprox.prox import _newton_polish, _roots_at


def h_residual(x, v, c, q):
    """h(x) = x + c*x**(q-1) - v, the inner equation."""
    return x + c * x ** (q - 1.0) - v


def inner_root(v, c, q):
    """Root in (0, v) of h, as the general-q kernel computes it for a group
    it holds at u = log c: Newton on log x from the cold upper bound, in
    units of v, which shift u by (q-2)*log(v)."""
    u = math.log(c) + (q - 2.0) * math.log(v)
    return v * math.exp(_roots_at(np.zeros(1), u, q)[0][0])


class TestInnerRoots:
    def test_q2_linear(self):
        # x + x = 2
        assert inner_root(2.0, 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_golden_section_root(self):
        # x**2 + x - 1 = 0, positive root (sqrt(5)-1)/2
        expected = (math.sqrt(5.0) - 1.0) / 2.0
        assert inner_root(1.0, 1.0, 3.0) == pytest.approx(expected, abs=1e-12)

    def test_sqrt_branch(self):
        # x + 0.5*sqrt(x) = 3: u = sqrt(x) solves u**2 + 0.5u - 3 = 0,
        # u = 1.5, so x = 2.25 exactly
        root = inner_root(3.0, 0.5, 1.5)
        assert root == pytest.approx(2.25, abs=1e-12)
        assert h_residual(2.25, 3.0, 0.5, 1.5) == 0.0

    def test_root_inside_open_interval(self):
        for v, c, q in [(5.0, 2.0, 2.5), (0.3, 10.0, 1.2), (7.0, 0.01, 6.0)]:
            x = inner_root(v, c, q)
            assert 0.0 < x < v

    def test_decreasing_in_c(self):
        roots = [inner_root(2.0, c, 3.0) for c in (0.1, 1.0, 10.0, 100.0)]
        assert all(b < a for a, b in zip(roots, roots[1:]))

    @given(st.floats(0.1, 10.0), st.floats(0.01, 50.0), st.floats(1.05, 8.0))
    @settings(max_examples=100, deadline=None)
    def test_root_bracketed_within_delta(self, v, c, q):
        # h is increasing, so the true root must lie inside
        # [x - 2*delta, x + 2*delta]
        x = inner_root(v, c, q)
        pad = 2e-8
        assert h_residual(max(x - pad, 0.0), v, c, q) <= 1e-12 * (1.0 + v + c)
        assert h_residual(min(x + pad, v), v, c, q) >= -1e-12 * (1.0 + v + c)


class TestNewtonPolish:
    def test_zero_stays_zero_below_q2(self):
        # for q < 2, h'(0) is infinite, so Newton's step from x = 0 is zero;
        # an x = 0 is a root that underflowed and must not jump to v
        x = _newton_polish(np.zeros(3), np.array([1.0, 2.0, 5e-324]), 0.0, 1.5)
        np.testing.assert_array_equal(x, 0.0)

    def test_sharpens_a_perturbed_root(self):
        # one step squares the relative error: 1e-7 goes to about 1e-15
        exact = inner_root(2.0, 1.5, 1.5)
        x = _newton_polish(np.array([exact * (1.0 + 1e-7)]),
                           np.array([2.0]), math.log(1.5), 1.5)
        assert float(x[0]) == pytest.approx(exact, rel=1e-14)


class TestL1BallThreshold:
    def test_defined_beside_the_q_inf_kernel(self):
        assert l1_ball_threshold.__module__ == "groupprox.prox"

    def test_two_entry_example(self):
        # h(1) = (3-1) + (1-1) - 2 = 0
        assert l1_ball_threshold(np.array([3.0, 1.0]), 2.0) == pytest.approx(1.0)

    def test_single_entry(self):
        assert l1_ball_threshold(np.array([5.0]), 2.0) == pytest.approx(3.0)

    def test_ties(self):
        assert l1_ball_threshold(np.array([2.0, 2.0]), 1.0) == pytest.approx(1.5)

    def test_lambda_at_total_rejected(self):
        with pytest.raises(ValueError):
            l1_ball_threshold(np.array([1.0, 1.0]), 2.0)
        with pytest.raises(ValueError):
            l1_ball_threshold(np.array([1.0]), 5.0)

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ValueError):
            l1_ball_threshold(np.array([1.0]), 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            l1_ball_threshold(np.array([bad, 3.0]), 1.0)

    @given(
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=15),
        st.floats(1e-3, 0.999),
    )
    @example(np.random.default_rng(5).uniform(0.0, 10.0, 100_000), 0.5)
    @settings(max_examples=150, deadline=None)
    def test_exact_balance(self, vals, frac):
        v = np.array(vals)
        total = float(v.sum())
        lam = frac * total
        if not 0.0 < lam < total:
            return  # outside the domain: a subnormal total rounds lam to 0 or total
        t = l1_ball_threshold(v, lam)
        assert t >= 0.0
        balance = float(np.maximum(v - t, 0.0).sum())
        assert balance == pytest.approx(lam, rel=1e-9, abs=1e-12)
