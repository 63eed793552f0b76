import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupprox import (
    GroupedVector,
    ProjectionError,
    c_interval,
    dual_exponent,
    group_norms,
    is_zero_solution,
    l1_ball_threshold,
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
import groupprox.prox as prox_module
from groupprox.oracle import OracleConfig, brute_prox
from groupprox.prox import _BLOCK, _BOUNDARY_RTOL, _roots_at

GENERAL_QS = (1.25, 1.5, 1.75, 2.33, 3.0, 5.0)
EPS = np.finfo(float).eps


def random_instance(rng, q, n_max=10, lam_lo=0.05, lam_hi=0.95):
    n = int(rng.integers(1, n_max + 1))
    v = rng.standard_normal(n)
    dual = q_norm(v, dual_exponent(q))
    if dual == 0.0:
        v[0] = 1.0
        dual = q_norm(v, dual_exponent(q))
    lam = rng.uniform(lam_lo, lam_hi) * dual
    return v, lam


SPLIT_KINDS = ("equal", "normal", "wide", "large")


def split_group(rng, kind, n):
    """A group of n entries whose outer solve, at a lam near 1, ends at once
    (equal magnitudes: the bracket is a point), after a few steps (large
    entries, so that lam is tiny beside them, or Gaussian spread over six
    decades) or after more (Gaussian)."""
    g = rng.standard_normal(n)
    if kind == "equal":
        return np.sign(g) * rng.uniform(0.5, 3.0)
    if kind == "wide":
        return g * 10.0 ** rng.uniform(-3.0, 3.0, n)
    return 1e8 * g if kind == "large" else g


@st.composite
def split_layouts(draw):
    """2 to 5 groups of mixed kinds, and a lam that leaves some of them
    nonzero: a fraction of one group's dual norm, for q = 3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(SPLIT_KINDS), min_size=2, max_size=5))
    groups = [split_group(rng, kind, int(rng.integers(2, 9))) for kind in kinds]
    dual = q_norm(groups[draw(st.integers(0, len(groups) - 1))],
                  dual_exponent(3.0))
    return groups, draw(st.floats(0.05, 0.95)) * dual


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

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("ratio", [1.0, 1.0 - 1e-13, 1.0 - 1e-9, 0.999])
    def test_agrees_with_the_kernels(self, q, ratio):
        # at q > 1 a lam within _BOUNDARY_RTOL below the dual norm projects
        # to zero; the soft threshold (q = 1) snaps nothing
        for v in (np.array([3.0, 4.0]), np.random.default_rng(0).standard_normal(7)):
            lam = ratio * q_norm(v, dual_exponent(q))
            x = prox_grouped(GroupedVector(v, [0, v.size]), lam, q).values
            assert is_zero_solution(v, lam, q) == (not x.any())

    @pytest.mark.parametrize("q, v, lam", [
        (1.5, [2.108, -0.349, -1.137], 2.215838225550515),
        (2.0, [-0.29, 0.143, -0.544, -0.133], 0.6466637456972236),
        (3.0, [1.814, 0.097, 0.893, 0.908, -0.692, -1.698, 0.031], 3.651012884117014),
        (math.inf, [-1.84, 1.049, 0.009], 2.8979999999971016),
    ])
    def test_agrees_with_the_kernel_at_the_snap_point(self, q, v, lam):
        # lam within a few ulps of (1 - _BOUNDARY_RTOL) times the dual norm,
        # where a dual norm rounded apart from the kernel's can fall on the
        # other side of the rule
        v = np.array(v)
        x = prox_grouped(GroupedVector(v, [0, v.size]), lam, q).values
        assert is_zero_solution(v, lam, q) == (not x.any())

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            is_zero_solution(np.array([1.0, math.inf]), 0.5, 3.0)

    @pytest.mark.parametrize("q", [1.5, 3.0])
    def test_answers_without_solving(self, q, monkeypatch):
        # the zero rule alone decides: the general-q kernel never runs
        def no_solve(*args):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(prox_module, "_solve_positive_groups", no_solve)
        v = np.array([2.0, -0.5, 1.25])
        dual = q_norm(v, dual_exponent(q))
        assert not is_zero_solution(v, 0.5 * dual, q)
        assert not is_zero_solution(v, (1.0 - 1e-9) * dual, q)
        assert is_zero_solution(v, dual, q)
        assert is_zero_solution(v, 2.0 * dual, q)


class TestClosedForms:
    def test_soft_threshold(self):
        np.testing.assert_allclose(prox_l1(np.array([2.0, -0.5]), 1.0), [1.0, 0.0])
        # elementwise over any shape
        np.testing.assert_array_equal(prox_l1(np.array([[2.0, -0.5], [-3.0, 1.5]]), 1.0),
                                      [[1.0, 0.0], [-2.0, 0.5]])

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

    def test_l2_entry_points_agree_bitwise(self):
        # q = 2 has one path: prox_l2, prox_grouped and prox_lq_general give
        # the same floats, group by group
        rng = np.random.default_rng(11)
        for _ in range(300):
            sizes = rng.integers(1, 9, size=int(rng.integers(1, 6)))
            offsets = np.concatenate(([0], np.cumsum(sizes)))
            v = rng.standard_normal(offsets[-1]) * 10.0 ** rng.uniform(-5, 5)
            v[rng.random(v.size) < 0.1] = 0.0
            lam = rng.uniform(0.1, 1.5) * float(np.median(
                group_norms(v, offsets, 2.0)))
            norms = np.empty(sizes.size)
            out = prox_grouped(GroupedVector(v, offsets), lam, 2.0, norms).values
            for g, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
                x = prox_l2(v[lo:hi], lam)
                assert out[lo:hi].tobytes() == x.tobytes()
                assert prox_lq_general(v[lo:hi], lam, 2.0)[0].tobytes() == x.tobytes()
                assert norms[g] == pytest.approx(np.linalg.norm(x), rel=1e-14)


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
    assert project(np.zeros(0), 0.7).shape == (0,)


@pytest.mark.parametrize("name", ["l2", "linf", "general_q1.5", "general_q3"])
def test_overflowing_dual_norm_is_not_zero(name):
    # the dual norm of v overflows a double, but lies far above lam: the
    # projection is about v
    q, project = PROJECTIONS[name]
    v = np.array([1.5e308, 1.5e308])
    assert not is_zero_solution(v, 1.0, q)
    x = project(v, 1.0)
    np.testing.assert_allclose(x, v, rtol=1e-14)


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0, math.inf])
def test_subnormal_group_projects_to_zero(q):
    # lam over the group's subnormal dual norm overflows a double; the
    # group is zeroed without forming that ratio, so nothing warns
    out = prox_grouped(GroupedVector([2.2e-313, 0.0], [0, 2]), 1.0, q)
    np.testing.assert_array_equal(out.values, 0.0)


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0, math.inf])
def test_norm_past_the_doubles_reads_inf(q):
    # the lq-norm of the result exceeds the largest double at q < inf: the
    # norms output holds inf, its correctly rounded value, without a warning
    v = np.array([1.5e308, 1.5e308])
    norms = np.empty(1)
    out = prox_grouped(GroupedVector(v, [0, 2]), 1.0, q, norms).values
    np.testing.assert_allclose(out, v, rtol=1e-14)
    assert norms[0] == (math.inf if q < math.inf else out[0])
    np.testing.assert_allclose(prox_l2(v, 1.0), v, rtol=1e-14)


@pytest.mark.parametrize("name", ["l1", "l2", "linf", "general_q1.5", "general_q3"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_input_rejected(name, bad):
    _, project = PROJECTIONS[name]
    with pytest.raises(ValueError, match="finite"):
        project(np.array([1.0, bad]), 0.5)


# the entry points that take one group's vector
ONE_GROUP = {
    "l2": lambda v: prox_l2(v, 0.5),
    "linf": lambda v: prox_linf(v, 0.5),
    "general_q1.5": lambda v: prox_lq_general(v, 0.5, 1.5),
    "general_q3": lambda v: prox_lq_general(v, 0.5, 3.0),
    "is_zero_q2": lambda v: is_zero_solution(v, 0.5, 2.0),
    "is_zero_q3": lambda v: is_zero_solution(v, 0.5, 3.0),
    "l1_ball_threshold": lambda v: l1_ball_threshold(np.abs(v), 0.5),
    "phi": lambda v: phi(0.5, np.abs(v), 0.5, 3.0),
    "c_interval": lambda v: c_interval(np.abs(v), 0.5, 3.0),
}


@pytest.mark.parametrize("name", sorted(ONE_GROUP))
def test_one_group_entry_points_reject_matrices(name):
    with pytest.raises(ValueError, match="one-dimensional"):
        ONE_GROUP[name](np.array([[1.0, 2.0], [3.0, 0.5]]))


GROUPED_PROJECTIONS = {
    f"grouped_q{q}": (q, lambda v, lam, q=q: prox_grouped(
        GroupedVector(v, [0, 1, v.size]), lam, q).values)
    for q in (1.0, 1.5, 2.0, 3.0, math.inf)
}


@pytest.mark.parametrize("name", sorted(PROJECTIONS) + sorted(GROUPED_PROJECTIONS))
def test_nan_lambda_rejected_inf_lambda_projects_to_zero(name):
    _, project = {**PROJECTIONS, **GROUPED_PROJECTIONS}[name]
    v = np.array([3.0, -4.0, 1.0])
    with pytest.raises(ValueError, match="lambda must be nonnegative"):
        project(v, math.nan)
    with pytest.raises(ValueError, match="lambda must be nonnegative"):
        project(v, -0.5)
    assert np.all(project(v, math.inf) == 0.0)


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

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_non_finite_c_rejected(self, c):
        with pytest.raises(ValueError, match="c must be"):
            phi(c, np.array([1.0, 2.0]), 0.5, 3.0)

    @pytest.mark.parametrize("q", [1.0, math.inf, 0.5, math.nan])
    def test_q_outside_open_interval_rejected(self, q):
        with pytest.raises(ValueError, match="1 < q < inf"):
            phi(1.0, np.array([1.0, 2.0]), 0.5, q)

    def test_nan_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda"):
            phi(1.0, np.array([1.0, 2.0]), math.nan, 3.0)

    @pytest.mark.parametrize("v", [[0.0, 1.0], [-1.0, 2.0]])
    def test_non_positive_entries_rejected(self, v):
        with pytest.raises(ValueError, match="strictly positive"):
            phi(1.0, np.array(v), 0.5, 3.0)

    @pytest.mark.parametrize("c, v, q", [
        (0.0, [1e-300, 2e-300], 3.0),
        (0.3, [1e-300, 2e-300], 3.0),
        (1e-10, [1e-200, 2e-200], 5.0),
    ])
    def test_past_the_doubles_is_inf(self, c, v, q):
        # lam*psi(c) is about ||v||**(1-q) here, past the largest double
        assert phi(c, np.array(v), 0.5, q) == math.inf

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_infinite_lambda_is_inf(self, c):
        # psi(0) = ||v||_5**-4, about 1e-1200, underflows to 0, yet psi > 0,
        # so lam*psi is inf and not inf*0 = nan
        assert phi(c, np.array([1e300, 2e300]), math.inf, 5.0) == math.inf

    def test_psi_past_the_doubles_scaled_back_by_lam(self):
        # psi(0) = ||v||_3**-2 = 9**(-2/3) * 1e600 lies past the doubles,
        # lam*psi(0) does not; at lam = 0, phi(c) = -c
        v = np.array([1e-300, 2e-300])
        assert phi(0.0, v, 1e-300, 3.0) == pytest.approx(9.0 ** (-2.0 / 3.0) * 1e300, rel=1e-12)
        assert phi(0.3, v, 0.0, 3.0) == -0.3


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

    @given(st.integers(0, 10_000), st.sampled_from([1.5, 3.0, 5.0]),
           st.floats(-8.0, 8.0))
    @settings(max_examples=150, deadline=None)
    def test_scale_equivariance(self, seed, q, log_s):
        # projecting (s*v, s*lam) gives s times the projection of (v, lam)
        v, lam = random_instance(np.random.default_rng(seed), q)
        s = 10.0 ** log_s
        x, _ = prox_lq_general(v, lam, q)
        xs, _ = prox_lq_general(s * v, s * lam, q)
        assert np.abs(xs / s - x).max() <= 1e-10 * np.abs(x).max()

    @pytest.mark.parametrize("v, q", [
        ([1.0, 5e-324], 3.0),
        ([1.0, 5e-324], 1.5),
        ([1e-310, 2.0, -3.0], 5.0),
        ([1e-300, 1e-100, 1.0, 1e100], 3.0),
        ([1.7e308, 1e-300, 5e-324], 3.0),
        (np.linspace(0.001, 1.0, 1000), 1.25),
        (np.linspace(0.001, 1.0, 1000), 1.0 + 1e-6),
        (np.linspace(0.001, 1.0, 1000), 64.0),
    ])
    def test_inner_sweeps_bounded_without_cap(self, v, q):
        # the passes that hold u while the roots catch up, between the
        # steps that move it, stay within 16 per step, plus one polishing
        # pass for q < 2 (here at most 18 passes in all, over 9 steps at
        # q = 1 + 1e-6)
        v = np.asarray(v)
        lam = 0.5 * q_norm(v, dual_exponent(q))
        x, diag = prox_lq_general(v, lam, q)
        assert np.all(np.isfinite(x)) and np.any(x != 0.0)
        assert diag.inner_iters_total <= 16 * (diag.outer_iters + 1) + 1

    @pytest.mark.parametrize("q", [6e5, 1e6])
    def test_huge_q_bracket_closes(self, q):
        # log c* is near 1e6, where floats lie about 1e-10 apart; the
        # bracket closes at that resolution, on an answer within about 1/q
        # of the q = inf clipping
        v = np.array([1.0, 0.5])
        lam = 0.5 * q_norm(v, dual_exponent(q))
        x, diag = prox_lq_general(v, lam, q)
        assert diag.outer_iters <= 100
        np.testing.assert_allclose(x, prox_linf(v, lam), atol=1e-5)

    @pytest.mark.parametrize("q", [1e8, 1e10, 1e12])
    def test_astronomical_q_gives_max_norm_prox(self, q):
        # log c* is near q here: the outer solve resolves x only to about
        # q*eps, coarser than the q = inf answer's distance from the exact
        # one (about lam*ln(2)/q), so that answer is returned, by the batched
        # kernel too
        v = np.array([1.0, 0.5])
        lam = 0.5 * q_norm(v, dual_exponent(q))
        x, _ = prox_lq_general(v, lam, q)
        assert np.abs(x - prox_linf(v, lam)).max() <= 1e-9 * np.abs(v).max()
        both = GroupedVector(np.concatenate((v, [3.0, -1.0, 0.2])), [0, 2, 5])
        alone = [prox_lq_general(both.group(i), lam, q)[0] for i in range(2)]
        np.testing.assert_array_equal(prox_grouped(both, lam, q).values,
                                      np.concatenate(alone))

    def test_underflowed_root_stays_zero(self):
        # for q = 1.5 the root at v = 5e-324 is about v**2, which underflows
        # to 0; the final Newton polish must not move it to v
        v = np.array([1.0, 5e-324])
        x, diag = prox_lq_general(v, 0.5 * q_norm(v, dual_exponent(1.5)), 1.5)
        assert x[1] == 0.0
        assert x[0] == pytest.approx(0.5, rel=1e-15)

    def test_root_below_unit_scale_is_kept(self):
        # the second root is about 1e-330 of max|v|, which a double holds
        # only in the caller's units; the reference is a 60-digit mpmath
        # solve of these float inputs
        v = 1e50 * np.array([1.0, 0.011289510664171094])
        q = 1.005
        x, diag = prox_lq_general(v, 0.5 * q_norm(v, dual_exponent(q)), q)
        assert x[1] == pytest.approx(2.7541828298407435e-280, rel=1e-9)
        assert diag.residual <= 1e-12 * np.abs(v).max()

    @pytest.mark.parametrize("q", [1.1, 1.5, 3.0, 5.0, 40.0])
    def test_point_brackets_in_closed_form(self, q):
        # equal nonzero magnitudes, or one nonzero entry: the bracket of c*
        # is a point and x = v*eps, eps = 1 - lam/||v||_qbar, with no step
        # and no pass
        rng = np.random.default_rng(5)
        for i in range(40):
            n = int(rng.integers(1, 9))
            k = 1 if i % 2 else int(rng.integers(1, n + 1))
            v = np.zeros(n)
            v[rng.choice(n, size=k, replace=False)] = (
                10.0 ** rng.uniform(-5, 5) * rng.choice([-1.0, 1.0], size=k))
            dual = q_norm(v, dual_exponent(q))
            lam = rng.uniform(0.05, 0.95) * dual
            x, diag = prox_lq_general(v, lam, q)
            top = np.abs(v).max()
            assert np.abs(x - v * (1.0 - lam / dual)).max() <= 4.0 * EPS * top
            assert (diag.outer_iters, diag.inner_iters_total) == (0, 0)
            # c* is the bracket's one point: the inner equation holds there
            assert diag.c_star == pytest.approx(
                (top - abs(x).max()) / abs(x).max() ** (q - 1.0), rel=1e-9)

    @pytest.mark.parametrize("v, q", [
        ([1.0, np.nextafter(1.0, 0.0)], 1.5),
        ([1.0, np.nextafter(1.0, 0.0)], 3.0),
        ([1.0, np.nextafter(1.0, 0.0)], 5.0),
        ([1.0, 1.0 - 1e-15, 0.9999999999999], 2.0 + 1e-12),
    ])
    def test_brackets_that_close_by_rounding(self, v, q):
        # magnitudes that differ, but whose bracket of c* is a point to
        # within rounding (its ends a float or so apart): the kernel solves
        # them (its near rule closes the bracket), and lands on the oracle's
        # answer
        v = np.array(v)
        lam = 0.5 * q_norm(v, dual_exponent(q))
        x, diag = prox_lq_general(v, lam, q)
        assert diag.inner_iters_total > 0
        np.testing.assert_allclose(
            x, brute_prox(v, lam, q, OracleConfig(tol=1e-9)), rtol=0.0, atol=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            prox_lq_general(np.array([1.0]), 0.5, 1.0)
        with pytest.raises(ValueError):
            prox_lq_general(np.array([1.0]), 0.5, math.inf)
        with pytest.raises(ValueError):
            prox_lq_general(np.array([1.0]), -0.5, 2.5)


def exact_pass(log_v, q, u):
    """The kernel's pass over one group at its exact roots at u: the roots
    log x, and the per-coordinate rows F, r, s and per-group sums."""
    return _roots_at(log_v, u, q)


def outer_g(log_v, lam, q, u):
    """G(u) = log(lam) + log(psi(u)) - u at the exact roots, one group."""
    log_x = exact_pass(log_v, q, u)[0]
    log_psi = (1.0 - q) * math.log(q_norm(np.exp(log_x), q))
    return math.log(lam) + log_psi - u


class TestNewtonOuterStep:
    @pytest.mark.parametrize("q", [1.01, 1.5, 3.0, 5.0, 64.0])
    def test_slope_matches_central_difference(self, q):
        # at exact roots the pass's fall = <1 - (q-1)*s>, the x**q-weighted
        # mean, is -dG/du: it agrees with a central difference of G across
        # the whole bracket, and lies in (0, 1]
        v = np.abs(np.random.default_rng(1).standard_normal(50))
        log_v = np.log(v / v.max())
        lam = 0.5 * q_norm(np.exp(log_v), dual_exponent(q))
        lo, hi = np.log(c_interval(np.exp(log_v), 0.5, q))
        h = 1e-5
        for u in np.linspace(lo, hi, 5):
            sums = exact_pass(log_v, q, u)[2]
            fall = sums[3] / sums[0]
            central = (outer_g(log_v, lam, q, u + h)
                       - outer_g(log_v, lam, q, u - h)) / (2.0 * h)
            assert 0.0 < fall <= 1.0
            assert abs(fall + central) <= 1e-8, (u, fall, central)

    @pytest.mark.parametrize("q", [1.01, 1.5, 3.0, 5.0, 64.0])
    def test_root_derivatives_match_central_differences(self, q):
        # the pass's s = F_u/F_t at exact roots is -d log x/du, with which
        # the joint step moves log x along with u
        v = np.abs(np.random.default_rng(2).standard_normal(50))
        log_v = np.log(v / v.max())
        lo, hi = np.log(c_interval(np.exp(log_v), 0.5, q))
        # near q = 1, log x varies on the scale q - 1 in u
        h = 1e-5 * min(1.0, q - 1.0)
        for u in np.linspace(lo, hi, 5):
            s = exact_pass(log_v, q, u)[1][2]
            central = (exact_pass(log_v, q, u + h)[0]
                       - exact_pass(log_v, q, u - h)[0]) / (2.0 * h)
            np.testing.assert_allclose(-s, central, rtol=1e-6,
                                       atol=1e-6 * np.abs(central).max())

    @pytest.mark.parametrize("q", [1.5, 3.0, 5.0])
    def test_steps_and_passes_bounded(self, q):
        # standard-normal v of 1e4 entries at half the dual norm: the joint
        # Newton loop takes 4-7 passes here (4-13 while it solved the roots
        # of a group at a fixed u apart), the nested Newton loop before it
        # 23-31 and the regula falsi loop before that 38-70
        for seed in range(3):
            v = np.random.default_rng(seed).standard_normal(10_000)
            _, diag = prox_lq_general(v, 0.5 * q_norm(v, dual_exponent(q)), q)
            assert diag.inner_iters_total <= 16

    def test_long_first_step_does_not_stop_the_next(self):
        # the first step from the left end covers about 718 in u and the
        # second 4.5e-4; read as quadratic convergence, they would stop the
        # loop with c* 6e-11 short of its root
        v = np.array([1.0, 0.1, 1e-312])
        q = 1.001
        x, diag = prox_lq_general(v, 0.3 * q_norm(v, dual_exponent(q)), q)
        assert x[0] == pytest.approx(0.7, rel=1e-14)
        assert diag.residual <= 1e-14


def test_seeded_sweep():
    # 1,000 groups of 2-60 entries spread over 1e+-3, at q = 1 + 10**U(-6, 2)
    # and lam 0.01-0.999 of the dual norm: none fails, the residual stays
    # at rounding, and no projection takes over 30 passes (here at most 15,
    # and 15 over 10,500 such groups; 26 and 33 while the roots of a group
    # at a fixed u were solved apart, 41 and 48 for the nested loop)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        q = 1.0 + 10.0 ** rng.uniform(-6.0, 2.0)
        n = int(rng.integers(2, 61))
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        lam = rng.uniform(0.01, 0.999) * q_norm(v, dual_exponent(q))
        _, diag = prox_lq_general(v, lam, q)
        assert diag.inner_iters_total <= 30, (q, n)
        assert diag.residual <= 1e-9 * np.abs(v).max(), (q, n)


class TestBlockedInnerSolve:
    @pytest.mark.parametrize("q", [1.5, 3.0, 5.0])
    def test_groups_straddling_blocks_match_per_group(self, q):
        # block edges at 16,384 and 32,768 fall inside the second and the
        # fourth group; each group alone fits in one block
        rng = np.random.default_rng(11)
        sizes = [10_000, 12_000, 9_000, 15_000]
        groups = [rng.standard_normal(k) * 10.0 ** rng.uniform(-2.0, 2.0)
                  for k in sizes]
        offsets = np.cumsum([0] + sizes)
        assert offsets[1] < _BLOCK < offsets[2] and offsets[3] < 2 * _BLOCK < offsets[4]
        lam = 0.5 * min(q_norm(g, dual_exponent(q)) for g in groups)
        out = prox_grouped(GroupedVector(np.concatenate(groups), offsets),
                           lam, q).values
        for g, lo, hi in zip(groups, offsets[:-1], offsets[1:]):
            alone, _ = prox_lq_general(g, lam, q)
            assert np.abs(out[lo:hi] - alone).max() <= 1e-12 * np.abs(g).max()


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

    def test_zero_group_past_the_q_inf_switch(self):
        # past q = 5.6e7 a kept group may take the q = inf projection; the
        # test counts each group's nonzero entries, and a zero group's
        # count of 0 must not warn
        g = GroupedVector(np.array([0.0, 0.0, 1.0, 0.5]), [0, 2, 4])
        out = prox_grouped(g, 0.5, 1e8).values
        np.testing.assert_array_equal(out[:2], 0.0)
        np.testing.assert_allclose(out[2:], prox_linf(g.values[2:], 0.5),
                                   rtol=1e-7)

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

    @pytest.mark.parametrize("lam", [0.8, 0.0])
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_norms_output_is_group_norms_of_result(self, q, lam):
        rng = np.random.default_rng(43)
        # dual norm at lam: projects to zero, or within rounding of it
        boundary = rng.standard_normal(4)
        boundary *= 0.8 / q_norm(boundary, dual_exponent(q))
        groups = [rng.standard_normal(5), np.zeros(3), boundary,
                  np.array([0.0, -2.5, 0.0]), rng.standard_normal(1),
                  3.0 * rng.standard_normal(7)]
        offsets = np.cumsum([0] + [len(grp) for grp in groups])
        g = GroupedVector(np.concatenate(groups), offsets)
        norms = np.full(len(groups), np.nan)
        out = prox_grouped(g, lam, q, norms)
        assert out.values.tobytes() == prox_grouped(g, lam, q).values.tobytes()
        if q in (1.5, 3.0):
            # the kernel takes the same reductions over each kept group
            np.testing.assert_array_equal(
                norms, group_norms(out.values, offsets, q))
        else:
            # at q = 1 and 2 the soft threshold and eps times the input
            # norm, at q = inf the l1-ball threshold
            np.testing.assert_allclose(
                norms, group_norms(out.values, offsets, q), rtol=1e-12, atol=0)
        assert norms[1] == 0.0 and norms[0] > 0.0

    @pytest.mark.parametrize("q", [1.5, 3.0, 5.0, 1e8])
    def test_padding_with_zeroed_groups_changes_no_kept_byte(self, q):
        # groups that project to zero, wherever they sit, leave the kept
        # groups' x and norms and the kernel's counts as they were
        rng = np.random.default_rng(47)
        qbar = dual_exponent(q)
        kept = [rng.standard_normal(n) for n in (5, 12, 3, 40)]
        kept[1][[2, 7]] = 0.0
        kept += [np.array([0.0, 2.0, -2.0, 0.0]),  # a point bracket
                 np.array([0.0, -1.5])]             # one nonzero entry
        lam = 0.5 * min(q_norm(g, qbar) for g in kept)

        def scaled(g, ratio):  # g at dual norm ratio*lam
            return g * (ratio * lam / q_norm(g, qbar))

        pads = [np.zeros(4), scaled(rng.standard_normal(9), 0.5), np.zeros(1),
                scaled(np.array([1.0, -1.0, 1.0]), 0.9),
                scaled(rng.standard_normal(6), 1.0 - 1e-13),
                scaled(rng.standard_normal(7), 1.0 + 1e-13),
                scaled(np.array([0.0, 3.0, 0.0]), 0.99)]
        padded = [h for pad, g in zip(pads, kept) for h in (pad, g)]
        padded += pads[len(kept):]
        is_pad = np.array([any(h is pad for pad in pads) for h in padded])

        def run(groups):
            offsets = np.cumsum([0] + [g.size for g in groups])
            g = GroupedVector(np.concatenate(groups), offsets)
            norms = np.full(len(groups), np.nan)
            x = prox_grouped(g, lam, q, norms).values
            steps, passes = prox_module._prox_lq_groups(
                g.values, g.offsets, lam, q)[-2:]
            return ([x[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])],
                    norms, steps, passes)

        x, norms, steps, passes = run(kept)
        x_pad, norms_pad, steps_pad, passes_pad = run(padded)
        assert np.all(norms > 0.0) and passes > 0
        assert (steps_pad, passes_pad) == (steps, passes)
        assert norms_pad[~is_pad].tobytes() == norms.tobytes()
        for a, b in zip(x, [xp for xp, pad in zip(x_pad, is_pad) if not pad]):
            assert a.tobytes() == b.tobytes()
        assert np.all(norms_pad[is_pad] == 0.0)
        for xp in (xp for xp, pad in zip(x_pad, is_pad) if pad):
            assert np.all(xp == 0.0)

    def test_norms_pass_over_the_kept_groups_alone(self, monkeypatch):
        # of 200 groups of 50, lam keeps 3: the norms output reads their
        # 150 coordinates, not all 10,000, and prox_lq_general, which
        # discards the norms, forms none
        rng = np.random.default_rng(53)
        offsets = np.arange(0, 10_001, 50)
        v = rng.standard_normal(10_000)
        kept = [17, 101, 188]
        for i in kept:
            v[offsets[i]:offsets[i + 1]] *= 10.0
        duals = group_norms(v, offsets, dual_exponent(3.0))
        lam = 1.5 * np.delete(duals, kept).max()
        seen = []
        real = prox_module.group_norms

        def recording(values, offsets, q):
            seen.append(np.size(values))
            return real(values, offsets, q)

        monkeypatch.setattr(prox_module, "group_norms", recording)
        norms = np.empty(200)
        prox_grouped(GroupedVector(v, offsets), lam, 3.0, norms)
        assert np.flatnonzero(norms).tolist() == kept
        assert seen == [150]
        seen.clear()
        prox_lq_general(v[:50], 0.5 * duals[0], 3.0)
        assert seen == []

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_q_below_one_rejected(self, lam):
        g = GroupedVector(np.ones(4), [0, 2, 4])
        with pytest.raises(ValueError, match="q >= 1"):
            prox_grouped(g, lam, 0.5)

    def test_norms_output_of_wrong_shape_rejected(self):
        g = GroupedVector(np.ones(4), [0, 2, 4])
        with pytest.raises(ValueError, match="norms"):
            prox_grouped(g, 0.5, 2.0, np.empty(3))

    def test_inf_groups(self):
        g = GroupedVector(np.array([3.0, 1.0, -3.0, 1.0]), [0, 2, 4])
        out = prox_grouped(g, 2.0, math.inf)
        np.testing.assert_allclose(out.values, [1.0, 1.0, -1.0, 1.0])

    def test_negative_lambda_rejected(self):
        g = GroupedVector(np.ones(2), [0, 2])
        with pytest.raises(ValueError):
            prox_grouped(g, -1.0, 2.0)

    def test_projection_error_names_callers_group(self, monkeypatch):
        # group 0 projects to zero, so the outer solve sees group 1 first; a
        # c bracket shifted far above the root fails the endpoint-sign check
        real = prox_module._log_c_candidates
        monkeypatch.setattr(prox_module, "_log_c_candidates",
                            lambda *args: real(*args) + 50.0)
        g = GroupedVector(np.array([0.01, -0.01, 3.0, 1.0, 2.0]), [0, 2, 5])
        with pytest.raises(ProjectionError) as err:
            prox_grouped(g, 0.5, 3.0)
        assert err.value.group == 1
        assert str(err.value).startswith("group 1: phi endpoint signs")

    @given(st.integers(0, 10_000), st.sampled_from([1.5, 2.0, 3.0, math.inf]))
    @settings(max_examples=100, deadline=None)
    def test_sign_flips_and_permutations_within_groups(self, seed, q):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        offsets = np.unique(np.concatenate(([0, n], rng.integers(1, n, size=2))))
        v = rng.standard_normal(n)
        lam = rng.uniform(0.05, 1.5)
        out = prox_grouped(GroupedVector(v, offsets), lam, q).values
        # the projection commutes with sign flips, coordinate by coordinate
        # (flipping all of v is one of them)
        signs = rng.choice([-1.0, 1.0], size=n)
        flipped = prox_grouped(GroupedVector(signs * v, offsets), lam, q).values
        np.testing.assert_array_equal(flipped, signs * out)
        # and with permutations inside each group, up to summation order
        perm = np.concatenate([lo + rng.permutation(hi - lo)
                               for lo, hi in zip(offsets[:-1], offsets[1:])])
        permuted = prox_grouped(GroupedVector(v[perm], offsets), lam, q).values
        np.testing.assert_allclose(permuted, out[perm], rtol=0.0,
                                   atol=1e-9 * np.abs(v).max())

    @given(split_layouts(), st.sampled_from([1.5, 3.0, 5.0]))
    @settings(max_examples=100, deadline=None)
    def test_splitting_groups(self, layout, q):
        # the batched kernel gives every group what it would get alone,
        # although groups leave the working set at very different steps
        groups, lam = layout
        offsets = np.cumsum([0] + [g.size for g in groups])
        out = prox_grouped(GroupedVector(np.concatenate(groups), offsets),
                           lam, q).values
        for g, lo, hi in zip(groups, offsets[:-1], offsets[1:]):
            alone, _ = prox_lq_general(g, lam, q)
            assert np.abs(out[lo:hi] - alone).max() <= 1e-12 * np.abs(g).max()

    def test_split_layouts_finish_at_different_steps(self):
        # the kinds of group that test_splitting_groups draws end their
        # outer solves at different steps under one lam
        rng = np.random.default_rng(3)
        groups = {kind: split_group(rng, kind, 6) for kind in SPLIT_KINDS}
        lam = 0.5 * q_norm(groups["normal"], dual_exponent(3.0))
        steps = {kind: prox_lq_general(g, lam, 3.0)[1].outer_iters
                 for kind, g in groups.items()}
        assert steps["equal"] < min(steps["large"], steps["wide"])
        assert max(steps["large"], steps["wide"]) < steps["normal"]

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
        size = draw(st.integers(1, 20))
        base = draw(st.lists(entries, min_size=size, max_size=size))
        groups.append(draw(scales) * np.array(base))
    l1 = draw(st.sampled_from([float(np.abs(g).sum()) for g in groups]))
    near = [1.0 - 0.5 * _BOUNDARY_RTOL, 1.0 - 2.0 * _BOUNDARY_RTOL, 1.0 - 1e-9]
    rel = draw(st.sampled_from(near) | st.floats(0.01, 1.5))
    lam = rel * l1 if l1 > 0.0 else draw(st.floats(1e-3, 1.0))
    offsets = np.cumsum([0] + [g.size for g in groups])
    return np.concatenate(groups), offsets, lam


def sizes_1_to_140():
    """Groups of every size from 1 to 140 and lam = 1, with every other
    group scaled to lie inside the l1 ball."""
    rng = np.random.default_rng(140)
    groups = []
    for size in range(1, 141):
        g = rng.standard_normal(size)
        l1 = rng.uniform(0.1, 0.9) if size % 2 else rng.uniform(1.1, 10.0)
        groups.append(g * (l1 / np.abs(g).sum()))
    offsets = np.cumsum([0] + [g.size for g in groups])
    return np.concatenate(groups), offsets, 1.0


class TestProxLinfBatched:
    @given(linf_layouts())
    @example(sizes_1_to_140())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_group_loop(self, layout):
        v, offsets, lam = layout
        batched = prox_grouped(GroupedVector(v, offsets), lam, math.inf).values
        l1 = np.array([np.abs(v[lo:hi]).sum()
                       for lo, hi in zip(offsets[:-1], offsets[1:])])
        tol = 64.0 * np.finfo(float).eps * np.repeat(l1, np.diff(offsets))
        assert np.all(np.abs(batched - linf_loop(v, offsets, lam)) <= tol)

    def test_l1_norm_past_the_doubles(self):
        # the first group's l1 norm overflows a double; its threshold is
        # found in units of its largest magnitude, so the answer is that of
        # the call on (v/1e308, lam/1e308) scaled back, and the other group
        # is thresholded as alone
        v = np.array([1.7e308, 1.7e308, 1e300, 3.0, -1.0])
        norms = np.empty(2)
        out = prox_grouped(GroupedVector(v, [0, 3, 5]), 1.0, math.inf, norms)
        scaled = prox_linf(v[:3] / 1e308, 1.0 / 1e308) * 1e308
        np.testing.assert_allclose(out.values[:3], scaled, rtol=1e-14)
        np.testing.assert_array_equal(out.values[3:], prox_linf(v[3:], 1.0))
        np.testing.assert_array_equal(norms, [out.values[0], 2.0])
        np.testing.assert_allclose(prox_linf(v[:3], 1e307),
                                   [1.65e308, 1.65e308, 1e300], rtol=1e-14)


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

    @pytest.mark.parametrize("q", [1.0, math.inf, 0.5, math.nan])
    def test_q_outside_open_interval_rejected(self, q):
        with pytest.raises(ValueError, match="1 < q < inf"):
            optimality_residual(np.ones(2), np.ones(2), 0.5, q)

    @pytest.mark.parametrize("q", [1.0 + 1e-6, 1.5, 3.0, 64.0])
    def test_matches_masked_form(self, q):
        # the same arithmetic as a form that applies the power only where
        # x_i != 0, so the two agree exactly
        def masked(x, v, lam, q):
            a = np.abs(x)
            pos = a > 0.0
            powed = np.zeros_like(a)
            powed[pos] = np.exp((q - 1.0) * np.log(a[pos])
                                + (1.0 - q) * math.log(q_norm(x, q)))
            defect = np.abs(x + lam * np.sign(x) * powed - v)
            tiny = math.nextafter(0.0, 1.0)
            at_tiny = tiny + lam * math.exp(
                (q - 1.0) * (math.log(tiny) - math.log(q_norm(x, q))))
            defect[~pos & (defect <= at_tiny)] = 0.0
            return float(defect.max())

        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 200))
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
            x[rng.random(n) < 0.3] = 0.0
            x[0] = 1.0
            v = x + rng.standard_normal(n) * rng.choice([0.0, 1e-12, 1.0], n)
            lam = rng.uniform(0.01, 2.0)
            assert optimality_residual(x, v, lam, q) == masked(x, v, lam, q)

    def test_underflowed_zero_counts_as_satisfied(self):
        # near q = 1 the smaller coordinates' roots lie below the smallest
        # subnormal and come back as exact zeros, which are correct
        v = np.linspace(0.001, 1.0, 1000)
        q = 1.0 + 1e-6
        lam = 0.5 * q_norm(v, dual_exponent(q))
        x, diag = prox_lq_general(v, lam, q)
        assert np.any(x == 0.0)
        assert diag.residual <= 1e-12

    @pytest.mark.parametrize("ratio", [0.51, 0.52, 0.53, 0.54])
    def test_subnormal_root_counts_as_satisfied(self, ratio):
        # the root of -0.2204 is a subnormal of a few bits, and one spacing
        # moves |x|**(q-1) by up to about 1e-2 of itself
        v = np.array([1000.0, -0.2204])
        q = 1.0104
        lam = ratio * q_norm(v, dual_exponent(q))
        x, diag = prox_lq_general(v, lam, q)
        assert 0.0 < -x[1] < np.finfo(float).tiny
        assert diag.residual <= 1e-12 * 1000.0
        # a root off by more than a spacing, of the wrong sign or zero is not
        for wrong in (3.0 * x[1], -x[1], 0.0):
            y = x.copy()
            y[1] = wrong
            assert optimality_residual(y, v, lam, q) >= 1e-3

    def test_wrong_zero_reports_its_defect(self):
        # at q = 3 the root of the first coordinate is far from zero
        v = np.array([1.0, 2.0])
        q = 3.0
        lam = 0.5 * q_norm(v, dual_exponent(q))
        x, _ = prox_lq_general(v, lam, q)
        x[0] = 0.0
        assert optimality_residual(x, v, lam, q) >= v[0]


class TestProjectionErrorPayload:
    def test_fields_present(self):
        err = ProjectionError("boom", epsilon=0.5, c_low=1.0, c_high=2.0,
                              phi_low=-1.0, group=3)
        assert err.epsilon == 0.5
        assert err.c_low == 1.0
        assert err.c_high == 2.0
        assert err.group == 3
        assert "group 3" in str(err)
