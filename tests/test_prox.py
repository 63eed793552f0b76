import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupprox import (
    GroupedVector,
    ProjectionError,
    RootConfig,
    c_interval,
    dual_exponent,
    is_zero_solution,
    optimality_residual,
    phi,
    prox_grouped,
    prox_l1,
    prox_l2,
    prox_linf,
    prox_lq_general,
    prox_objective,
    q_norm,
)
from groupprox.prox import _BOUNDARY_RTOL

GENERAL_QS = (1.25, 1.5, 1.75, 2.33, 3.0, 5.0)


def random_instance(rng, q, n_max=10, lam_lo=0.05, lam_hi=0.95):
    n = int(rng.integers(1, n_max + 1))
    v = rng.standard_normal(n)
    dual = q_norm(v, dual_exponent(q))
    if dual == 0.0:
        v[0] = 1.0
        dual = q_norm(v, dual_exponent(q))
    lam = rng.uniform(lam_lo, lam_hi) * dual
    return v, lam


class TestIsZeroSolution:
    def test_boundary_is_zero(self):
        assert is_zero_solution(np.array([3.0, 4.0]), 5.0, 2.0)

    def test_just_below_is_nonzero(self):
        assert not is_zero_solution(np.array([3.0, 4.0]), 4.999, 2.0)

    def test_zero_vector_always_zero(self):
        assert is_zero_solution(np.zeros(2), 0.3, 3.0)

    def test_lambda_must_be_positive(self):
        with pytest.raises(ValueError):
            is_zero_solution(np.ones(2), 0.0, 2.0)


class TestClosedForms:
    def test_soft_threshold(self):
        np.testing.assert_allclose(prox_l1(np.array([2.0, -0.5]), 1.0), [1.0, 0.0])

    def test_soft_threshold_zero_input(self):
        np.testing.assert_allclose(prox_l1(np.zeros(2), 1.0), [0.0, 0.0])

    def test_soft_threshold_sign(self):
        np.testing.assert_allclose(prox_l1(np.array([-3.0]), 1.0), [-2.0])

    def test_l2_scaling(self):
        np.testing.assert_allclose(prox_l2(np.array([3.0, 4.0]), 2.5), [1.5, 2.0])

    def test_l2_axis_aligned(self):
        np.testing.assert_allclose(prox_l2(np.array([1.0, 0.0, 0.0]), 0.5),
                                   [0.5, 0.0, 0.0])

    def test_l2_shrinks_continuously_to_zero(self):
        out = prox_l2(np.array([3.0, 4.0]), 5.0 - 1e-9)
        np.testing.assert_allclose(out, [6e-10, 8e-10], rtol=1e-5)

    def test_linf_clip(self):
        np.testing.assert_allclose(prox_linf(np.array([3.0, 1.0]), 2.0), [1.0, 1.0])

    def test_linf_sign_decomposition(self):
        np.testing.assert_allclose(prox_linf(np.array([-3.0, 1.0]), 2.0), [-1.0, 1.0])

    def test_linf_scalar(self):
        np.testing.assert_allclose(prox_linf(np.array([5.0]), 2.0), [3.0])


PROJECTIONS = {
    "l1": (1.0, prox_l1),
    "l2": (2.0, prox_l2),
    "linf": (math.inf, prox_linf),
    "general_q1.5": (1.5, lambda v, lam: prox_lq_general(v, lam, 1.5)[0]),
    "general_q3": (3.0, lambda v, lam: prox_lq_general(v, lam, 3.0)[0]),
}


@pytest.mark.parametrize("name", sorted(PROJECTIONS))
def test_exact_zero_at_and_beyond_boundary(name):
    q, project = PROJECTIONS[name]
    v = np.array([3.0, -4.0, 1.0])
    dual = q_norm(v, dual_exponent(q))
    for lam in (dual, dual * (1.0 + 1e-9), 1.5 * dual, 1e3 * dual):
        assert np.all(project(v, lam) == 0.0), lam
    assert np.all(project(np.zeros(3), 0.7) == 0.0)


class TestCInterval:
    def test_equal_entries_collapse(self):
        lo, hi = c_interval(np.array([1.0, 1.0]), 0.5, 3.0)
        assert lo == pytest.approx(2.0)
        assert hi == pytest.approx(2.0)

    def test_q2_ratio(self):
        for v in (np.array([1.0]), np.array([0.3, 7.0])):
            lo, hi = c_interval(v, 0.5, 2.0)
            assert lo == pytest.approx(1.0)
            assert hi == pytest.approx(1.0)

    def test_spread_entries(self):
        lo, hi = c_interval(np.array([1.0, 2.0]), 0.5, 3.0)
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(2.0)

    def test_order(self):
        rng = np.random.default_rng(0)
        for q in GENERAL_QS:
            v = np.abs(rng.standard_normal(6)) + 0.1
            lo, hi = c_interval(v, rng.uniform(0.05, 0.95), q)
            assert 0.0 < lo <= hi

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            c_interval(np.array([1.0]), 1.5, 3.0)
        with pytest.raises(ValueError):
            c_interval(np.array([0.0, 1.0]), 0.5, 3.0)
        with pytest.raises(ValueError):
            c_interval(np.array([1.0]), 0.5, math.inf)


class TestPhi:
    def test_at_zero(self):
        assert phi(0.0, np.array([3.0, 4.0]), 2.5, 2.0) == pytest.approx(0.5)

    def test_q2_root_at_one(self):
        # q=2 gives psi(c) = (1+c)/||v||, so phi(1) = 2.5*2/5 - 1 = 0
        assert phi(1.0, np.array([3.0, 4.0]), 2.5, 2.0) == pytest.approx(0.0, abs=1e-10)

    def test_endpoint_signs_random(self):
        rng = np.random.default_rng(7)
        for q in GENERAL_QS:
            for _ in range(20):
                n = int(rng.integers(1, 12))
                v = np.exp(0.25 * rng.standard_normal(n))
                dual = q_norm(v, dual_exponent(q))
                lam = rng.uniform(0.2, 0.8) * dual
                eps = (dual - lam) / dual
                lo, hi = c_interval(v, eps, q)
                assert phi(lo, v, lam, q) >= -1e-10
                assert phi(hi, v, lam, q) <= 1e-10

    def test_negative_c_rejected(self):
        with pytest.raises(ValueError):
            phi(-1.0, np.array([1.0]), 0.5, 3.0)


class TestProxLqGeneral:
    def test_q2_matches_closed_form(self):
        x, diag = prox_lq_general(np.array([3.0, 4.0]), 2.5, 2.0)
        np.testing.assert_allclose(x, [1.5, 2.0], atol=1e-10)
        assert diag.c_star == pytest.approx(1.0, abs=1e-6)

    def test_q3_optimality(self):
        v = np.array([1.0, 3.0])
        x, diag = prox_lq_general(v, 0.5, 3.0)
        assert np.all(x > 0.0) and np.all(x < v)
        assert diag.residual <= 1e-8
        # optimality condition: x + lam*||x||^{1-q} x^{q-1} = v
        nrm = q_norm(x, 3.0)
        defect = x + 0.5 * nrm ** (-2.0) * x ** 2 - v
        assert np.abs(defect).max() <= 1e-8

    def test_sign_decomposition(self):
        x_pos, _ = prox_lq_general(np.array([1.0, 3.0]), 0.5, 3.0)
        x_mix, _ = prox_lq_general(np.array([-1.0, 3.0]), 0.5, 3.0)
        np.testing.assert_allclose(x_mix, [-x_pos[0], x_pos[1]], atol=1e-10)

    def test_zero_entries_stay_zero(self):
        x, _ = prox_lq_general(np.array([2.0, 0.0, -1.0]), 0.4, 2.5)
        assert x[1] == 0.0
        assert x[0] > 0.0 and x[2] < 0.0

    def test_boundary_returns_exact_zero(self):
        v = np.array([1.0, 2.0])
        lam = q_norm(v, dual_exponent(3.0))
        x, diag = prox_lq_general(v, lam, 3.0)
        assert np.all(x == 0.0)
        assert diag.c_star is None

    def test_lambda_zero_is_identity(self):
        v = np.array([1.0, -2.0])
        x, _ = prox_lq_general(v, 0.0, 3.0)
        np.testing.assert_array_equal(x, v)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(8)
        a, _ = prox_lq_general(v, 0.7, 2.33)
        b, _ = prox_lq_general(v, 0.7, 2.33)
        np.testing.assert_array_equal(a, b)

    def test_objective_certificate(self):
        # the output must beat 100 random perturbations of itself
        rng = np.random.default_rng(13)
        for q in (1.5, 3.0):
            v = rng.standard_normal(6)
            lam = 0.4 * q_norm(v, dual_exponent(q))
            x, _ = prox_lq_general(v, lam, q)
            f_star = prox_objective(x, v, lam, q)
            for _ in range(100):
                z = x + rng.standard_normal(6) * rng.choice([1e-3, 1e-2, 0.3])
                assert prox_objective(z, v, lam, q) >= f_star - 1e-10

    def test_strict_shrinkage(self):
        rng = np.random.default_rng(17)
        for q in GENERAL_QS:
            v, lam = random_instance(rng, q)
            x, _ = prox_lq_general(v, lam, q)
            if np.all(x == 0.0):
                continue
            nz = v != 0.0
            assert np.all(np.abs(x[nz]) < np.abs(v[nz]))
            assert np.all(np.sign(x[nz]) == np.sign(v[nz]))

    def test_residual_small_on_random_inputs(self):
        rng = np.random.default_rng(19)
        for q in GENERAL_QS:
            for _ in range(10):
                v, lam = random_instance(rng, q)
                x, diag = prox_lq_general(v, lam, q)
                if np.any(x != 0.0):
                    assert diag.residual <= 1e-6

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            prox_lq_general(np.array([1.0]), 0.5, 1.0)
        with pytest.raises(ValueError):
            prox_lq_general(np.array([1.0]), 0.5, math.inf)
        with pytest.raises(ValueError):
            prox_lq_general(np.array([1.0]), -0.5, 2.5)


class TestCrossFormConsistency:
    def test_q2_agreement(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            v = rng.standard_normal(int(rng.integers(1, 20)))
            lam = rng.uniform(0.05, 0.95) * q_norm(v, 2.0)
            x, _ = prox_lq_general(v, lam, 2.0)
            np.testing.assert_allclose(x, prox_l2(v, lam), atol=1e-6)

    def test_near_one_matches_soft_threshold(self):
        rng = np.random.default_rng(29)
        q = 1.0 + 1e-6
        for _ in range(20):
            v = rng.standard_normal(6)
            lam = 0.5 * np.abs(v).max()
            x, _ = prox_lq_general(v, lam, q)
            np.testing.assert_allclose(x, prox_l1(v, lam), atol=1e-3)

    def test_large_q_approaches_max_norm_prox(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            v = 0.1 * rng.standard_normal(6)
            lam = 0.5 * np.abs(v).sum()
            x, _ = prox_lq_general(v, lam, 64.0)
            np.testing.assert_allclose(x, prox_linf(v, lam), atol=1e-2)


class TestProxGrouped:
    def test_two_groups_one_zeroed(self):
        g = GroupedVector(np.array([3.0, 4.0, 0.1, 0.1]), [0, 2, 4])
        out = prox_grouped(g, 2.5, 2.0)
        np.testing.assert_allclose(out.values, [1.5, 2.0, 0.0, 0.0], atol=1e-10)

    def test_all_groups_zero_at_large_lambda(self):
        g = GroupedVector(np.array([3.0, 4.0, 0.1, 0.1]), [0, 2, 4])
        for q in (1.0, 1.5, 2.0, 3.0, math.inf):
            lam = max(q_norm(g.group(i), dual_exponent(q)) for i in range(2))
            out = prox_grouped(g, lam, q)
            assert np.all(out.values == 0.0)

    def test_q1_matches_flat_soft_threshold(self):
        v = np.array([2.0, -0.5, 1.2])
        g = GroupedVector(v, [0, 3])
        out = prox_grouped(g, 1.0, 1.0)
        np.testing.assert_array_equal(out.values, prox_l1(v, 1.0))

    def test_lambda_zero_copies(self):
        g = GroupedVector(np.array([1.0, 2.0]), [0, 2])
        out = prox_grouped(g, 0.0, 3.0)
        np.testing.assert_array_equal(out.values, g.values)
        out.values[0] = 9.0
        assert g.values[0] == 1.0

    def test_matches_per_group_general(self):
        rng = np.random.default_rng(37)
        v = rng.standard_normal(9)
        offsets = np.array([0, 2, 5, 9])
        g = GroupedVector(v, offsets)
        for q in GENERAL_QS:
            lam = 0.3 * max(
                q_norm(g.group(i), dual_exponent(q)) for i in range(3)
            )
            batched = prox_grouped(g, lam, q).values
            pieces = [prox_lq_general(g.group(i), lam, q)[0] for i in range(3)]
            np.testing.assert_allclose(batched, np.concatenate(pieces), atol=1e-7)

    def test_inf_groups(self):
        g = GroupedVector(np.array([3.0, 1.0, -3.0, 1.0]), [0, 2, 4])
        out = prox_grouped(g, 2.0, math.inf)
        np.testing.assert_allclose(out.values, [1.0, 1.0, -1.0, 1.0])

    def test_negative_lambda_rejected(self):
        g = GroupedVector(np.ones(2), [0, 2])
        with pytest.raises(ValueError):
            prox_grouped(g, -1.0, 2.0)

    def test_projection_error_names_callers_group(self):
        # group 0 projects to zero, so the bisection sees group 1 first
        g = GroupedVector(np.array([0.01, -0.01, 3.0, 1.0, 2.0]), [0, 2, 5])
        with pytest.raises(ProjectionError) as err:
            prox_grouped(g, 0.5, 3.0, RootConfig(max_iter=1))
        assert err.value.group == 1
        assert str(err.value).startswith("group 1:")

    @given(st.integers(0, 10_000), st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
    @settings(max_examples=60, deadline=None)
    def test_non_expansive(self, seed, q):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        cut = int(rng.integers(1, n))
        offsets = np.array([0, cut, n])
        v1 = rng.standard_normal(n)
        v2 = v1 + rng.standard_normal(n) * rng.choice([1e-4, 0.1, 2.0])
        lam = rng.uniform(0.05, 1.5)
        p1 = prox_grouped(GroupedVector(v1, offsets), lam, q).values
        p2 = prox_grouped(GroupedVector(v2, offsets), lam, q).values
        assert np.linalg.norm(p1 - p2) <= np.linalg.norm(v1 - v2) + 1e-10


def linf_loop(v, offsets, lam):
    """Per-group sort-and-scan reference for the batched q = inf kernel."""
    out = np.zeros_like(v)
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        a = np.abs(v[lo:hi])
        l1 = float(a.sum())
        if l1 - lam <= _BOUNDARY_RTOL * l1:
            continue
        u = np.sort(a)[::-1]
        t_cand = (np.cumsum(u) - lam) / np.arange(1, u.size + 1)
        # no entry is active when lam is below the rounding of max|v|
        active = np.nonzero(u > t_cand)[0]
        t = t_cand[active[-1] if active.size else 0]
        out[lo:hi] = np.sign(v[lo:hi]) * np.minimum(a, t)
    return out


@st.composite
def linf_layouts(draw):
    """Groups of mixed sizes and scales, with ties, zeros, all-zero groups,
    and lam near one group's l1 norm, inside or just outside the snap."""
    entries = st.sampled_from([0.0, 1.0, -1.0, 2.0, -0.5]) | st.floats(-1.0, 1.0)
    scales = st.just(0.0) | st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e)
    groups = []
    for _ in range(draw(st.integers(1, 6))):
        size = draw(st.integers(1, 8))
        base = draw(st.lists(entries, min_size=size, max_size=size))
        groups.append(draw(scales) * np.array(base))
    l1 = draw(st.sampled_from([float(np.abs(g).sum()) for g in groups]))
    near = [1.0 - 0.5 * _BOUNDARY_RTOL, 1.0 - 2.0 * _BOUNDARY_RTOL, 1.0 - 1e-9]
    rel = draw(st.sampled_from(near) | st.floats(0.01, 1.5))
    lam = rel * l1 if l1 > 0.0 else draw(st.floats(1e-3, 1.0))
    offsets = np.cumsum([0] + [g.size for g in groups])
    return np.concatenate(groups), offsets, lam


class TestProxLinfBatched:
    @given(linf_layouts())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_group_loop(self, layout):
        v, offsets, lam = layout
        batched = prox_grouped(GroupedVector(v, offsets), lam, math.inf).values
        l1 = np.array([np.abs(v[lo:hi]).sum()
                       for lo, hi in zip(offsets[:-1], offsets[1:])])
        tol = 64.0 * np.finfo(float).eps * np.repeat(l1, np.diff(offsets))
        assert np.all(np.abs(batched - linf_loop(v, offsets, lam)) <= tol)


class TestOptimalityResidual:
    def test_closed_form_solution(self):
        r = optimality_residual(np.array([1.5, 2.0]), np.array([3.0, 4.0]), 2.5, 2.0)
        assert r == pytest.approx(0.0, abs=1e-12)

    def test_unshrunk_point(self):
        v = np.array([1.0, 2.0])
        q = 3.0
        lam = 0.4
        r = optimality_residual(v, v, lam, q)
        expected = lam * q_norm(v, q) ** (1.0 - q) * np.abs(v).max() ** (q - 1.0)
        assert r == pytest.approx(expected, rel=1e-12)
        assert r > 0.0

    def test_zero_x_rejected(self):
        with pytest.raises(ValueError):
            optimality_residual(np.zeros(2), np.ones(2), 0.5, 2.0)


class TestProjectionErrorPayload:
    def test_fields_present(self):
        err = ProjectionError("boom", epsilon=0.5, c_low=1.0, c_high=2.0,
                              phi_low=-1.0, phi_high=1.0, group=3)
        assert err.epsilon == 0.5
        assert err.c_low == 1.0
        assert err.c_high == 2.0
        assert err.group == 3
        assert "group 3" in str(err)
