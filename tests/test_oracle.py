import math

import numpy as np
import pytest

import groupprox.oracle
from groupprox import (
    OracleConfig,
    OracleFailure,
    brute_prox,
    dual_exponent,
    fixed_point_trace,
    prox_lq_general,
    q_norm,
)


class TestBruteProx:
    def test_matches_q2_closed_form(self):
        x = brute_prox(np.array([3.0, 4.0]), 2.5, 2.0)
        np.testing.assert_allclose(x, [1.5, 2.0], atol=1e-5)

    def test_cross_validates_general_prox(self):
        v = np.array([1.0, 3.0])
        slow = brute_prox(v, 0.5, 3.0)
        fast, _ = prox_lq_general(v, 0.5, 3.0)
        np.testing.assert_allclose(slow, fast, atol=1e-4)

    def test_boundary_collapses_to_zero(self):
        v = np.array([1.0, 2.0])
        lam = q_norm(v, dual_exponent(3.0))
        x = brute_prox(v, lam, 3.0)
        assert np.abs(x).max() <= 1e-4

    def test_sign_and_zero_handling(self):
        x = brute_prox(np.array([-2.0, 0.0, 1.0]), 0.3, 2.5)
        assert x[0] < 0.0
        assert x[1] == 0.0
        assert x[2] > 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            brute_prox(np.ones(2), 0.5, 1.0)
        with pytest.raises(ValueError):
            brute_prox(np.ones(2), 0.5, math.inf)
        with pytest.raises(ValueError):
            brute_prox(np.ones(2), 0.0, 2.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(tol=0.0)

    def test_iteration_cap_raises(self):
        with pytest.raises(OracleFailure, match="no convergence within 1 iterations"):
            brute_prox(np.array([1.0, 3.0]), 0.5, 3.0, OracleConfig(max_iter=1))

    def test_step_exhaustion_raises(self, monkeypatch):
        # no candidate ever lowers f, so the step halves until it runs out
        monkeypatch.setattr(groupprox.oracle, "_certified_gap", lambda x, pos, lam, q: (1.0, 1.0))
        with pytest.raises(OracleFailure, match="step size exhausted before convergence"):
            brute_prox(np.array([1.0, 3.0]), 0.5, 3.0)


class TestFixedPointTrace:
    def test_records_start_and_length(self):
        trace = fixed_point_trace(np.array([1.0, 3.0]), 0.5, 3.0,
                                  np.array([1.0, 3.0]), 10)
        assert len(trace.iterates) == 11
        np.testing.assert_array_equal(trace.iterates[0], [1.0, 3.0])

    def test_constant_at_exact_solution(self):
        v = np.array([1.0, 3.0])
        x_star, _ = prox_lq_general(v, 0.5, 3.0)
        trace = fixed_point_trace(v, 0.5, 3.0, x_star, 20)
        for x in trace.iterates:
            assert np.abs(x - x_star).max() <= 1e-7

    def test_oscillates_where_projection_succeeds(self):
        # lam = 2.0 < ||v||_1.5: the projection is nonzero and accurate,
        # yet the naive iteration falls into a 2-cycle
        v = np.array([1.0, 3.0])
        lam, q = 2.0, 3.0
        assert lam < q_norm(v, dual_exponent(q))
        trace = fixed_point_trace(v, lam, q, v.copy(), 100)
        steps = [float(np.abs(b - a).max())
                 for a, b in zip(trace.iterates, trace.iterates[1:])]
        assert min(steps) > 1e-6
        _, diag = prox_lq_general(v, lam, q)
        assert diag.residual <= 1e-8

    def test_zero_start_rejected(self):
        with pytest.raises(ValueError):
            fixed_point_trace(np.array([1.0]), 0.5, 3.0, np.zeros(1), 5)

    def test_negative_iteration_count_rejected(self):
        with pytest.raises(ValueError, match="iters must be nonnegative"):
            fixed_point_trace(np.array([1.0, 3.0]), 0.5, 3.0,
                              np.array([1.0, 3.0]), -5)

    def test_zero_iterations_trace_the_start(self):
        trace = fixed_point_trace(np.array([1.0, 3.0]), 0.5, 3.0,
                                  np.array([2.0, 1.0]), 0)
        assert not trace.truncated
        assert len(trace.iterates) == 1
        np.testing.assert_array_equal(trace.iterates[0], [2.0, 1.0])

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fixed_point_trace(np.ones(2), 0.5, math.inf, np.ones(2), 5)
