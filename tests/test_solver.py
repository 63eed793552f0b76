import math

import numpy as np
import pytest

import groupprox.grouped
import groupprox.prox
import groupprox.solver
from groupprox import (
    Dataset,
    GroupedVector,
    LossKind,
    Problem,
    SolverConfig,
    lambda_max,
    loss_gradient,
    loss_value,
    mixed_norm,
    model_value,
    prox_grouped,
    prox_step,
    reg_path,
    row_group_offsets,
    solve,
)


def small_problem(seed=0, m=12, d=6, k=2, lam_ratio=0.3, q=2.0,
                  kind=LossKind.LEAST_SQUARES, scale=1.0):
    rng = np.random.default_rng(seed)
    a = scale * rng.standard_normal((m, d))
    if kind is LossKind.LOGISTIC:
        y = np.sign(rng.standard_normal((m, k)))
    else:
        y = scale * rng.standard_normal((m, k))
    data = Dataset(a, y)
    offsets = row_group_offsets(d, k)
    lam = lam_ratio * lambda_max(data, kind, offsets, q)
    return Problem(data, kind, offsets, lam, q)


class TestProblem:
    def test_offsets_must_cover_flattened_matrix(self):
        data = Dataset(np.ones((3, 2)), np.ones((3, 2)))
        with pytest.raises(ValueError):
            Problem(data, LossKind.LEAST_SQUARES, [0, 3], 0.1, 2.0)

    def test_partition_validated_at_construction(self):
        data = Dataset(np.ones((3, 10)), np.ones((3, 4)))
        with pytest.raises(ValueError):
            Problem(data, LossKind.LEAST_SQUARES, [0, 24, 8, 40], 0.1, 2.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -0.1])
    def test_lambda_must_be_finite_and_nonnegative(self, lam):
        p = small_problem()
        with pytest.raises(ValueError, match="lambda"):
            Problem(p.data, p.kind, p.offsets, lam, p.q)

    def test_kind_must_be_a_loss_kind(self):
        p = small_problem()
        with pytest.raises(ValueError, match="loss kind"):
            Problem(p.data, "least_squares", p.offsets, p.lam, p.q)

    def test_logistic_targets_checked_at_construction(self):
        p = small_problem()  # real-valued targets
        with pytest.raises(ValueError, match="logistic targets"):
            Problem(p.data, LossKind.LOGISTIC, p.offsets, p.lam, p.q)

    def test_objective_composes_loss_and_penalty(self):
        p = small_problem()
        w = p.zero().with_values(np.ones(12))
        smooth = loss_value(p.matrix(w), p.data, p.kind)
        assert p.objective(w) == pytest.approx(
            smooth + p.lam * math.sqrt(2.0) * 6, rel=1e-12
        )


class TestModelValue:
    def test_taylor_point_recovers_objective(self):
        p = small_problem()
        w = p.zero().with_values(np.linspace(-1, 1, 12))
        assert model_value(w, w, 5.0, p) == pytest.approx(p.objective(w), rel=1e-12)

    def test_descent_lemma_at_true_lipschitz(self):
        # lam = 0 quadratic: L = largest eigenvalue of A^T A majorizes f
        rng = np.random.default_rng(7)
        a = rng.standard_normal((10, 4))
        data = Dataset(a, rng.standard_normal((10, 1)))
        p = Problem(data, LossKind.LEAST_SQUARES, row_group_offsets(4, 1), 0.0, 2.0)
        L = float(np.linalg.eigvalsh(a.T @ a).max())
        x = p.zero().with_values(rng.standard_normal(4))
        for _ in range(20):
            y = p.zero().with_values(rng.standard_normal(4))
            assert p.objective(y) <= model_value(y, x, L, p) + 1e-9

    def test_quadratic_term_linear_in_L(self):
        p = small_problem()
        x = p.zero().with_values(np.linspace(0, 1, 12))
        e = np.full(12, 0.1)
        y = x.with_values(x.values + e)
        m1 = model_value(y, x, 2.0, p)
        m2 = model_value(y, x, 4.0, p)
        assert m2 - m1 == pytest.approx(0.5 * 2.0 * float(e @ e), rel=1e-9)

    def test_nonpositive_L_rejected(self):
        p = small_problem()
        w = p.zero()
        with pytest.raises(ValueError):
            model_value(w, w, 0.0, p)


class TestProxStep:
    def test_lambda_zero_is_gradient_step(self):
        p = small_problem(lam_ratio=0.3)
        p = Problem(p.data, p.kind, p.offsets, 0.0, p.q)
        s = p.zero().with_values(np.linspace(-1, 1, 12))
        g = loss_gradient(p.matrix(s), p.data, p.kind).reshape(-1)
        out = prox_step(s, 3.0, p)
        np.testing.assert_allclose(out.values, s.values - g / 3.0, rtol=1e-12)

    def test_stationary_loss_reduces_to_projection(self):
        # perfect-fit data: gradient vanishes, the step is a pure prox
        rng = np.random.default_rng(9)
        a = rng.standard_normal((8, 4))
        w_true = rng.standard_normal((4, 2))
        data = Dataset(a, a @ w_true)
        p = Problem(data, LossKind.LEAST_SQUARES, row_group_offsets(4, 2), 0.4, 2.0)
        s = p.zero().with_values(w_true.reshape(-1))
        out = prox_step(s, 2.0, p)
        expected = prox_grouped(s, 0.4 / 2.0, 2.0)
        np.testing.assert_allclose(out.values, expected.values, atol=1e-10)

    def test_large_lambda_zeroes_step(self):
        p = small_problem()
        s = p.zero()
        lam_big = 10.0 * lambda_max(p.data, p.kind, p.offsets, p.q)
        p_big = Problem(p.data, p.kind, p.offsets, lam_big, p.q)
        out = prox_step(s, 1.0, p_big)
        assert np.all(out.values == 0.0)


class TestAlphaSequence:
    def recurrence(self, n):
        alphas = [1.0]
        for _ in range(n):
            alphas.append(0.5 * (1.0 + math.sqrt(1.0 + 4.0 * alphas[-1] ** 2)))
        return alphas

    def test_first_step_is_golden_ratio(self):
        assert self.recurrence(1)[1] == pytest.approx((1 + math.sqrt(5)) / 2)

    def test_identity_holds_exactly(self):
        # alpha_{i+1}**2 - alpha_{i+1} = alpha_i**2 by construction
        alphas = self.recurrence(50)
        for a, b in zip(alphas, alphas[1:]):
            assert b * b - b == pytest.approx(a * a, rel=1e-12)

    def test_growth_rate(self):
        alphas = self.recurrence(100)
        # alpha_k >= (k+2)/2, the bound behind the O(1/k^2) rate
        for k, a in enumerate(alphas):
            assert a >= (k + 2) / 2.0 - 1e-9


class TestSolve:
    def test_lambda_above_max_stays_zero(self):
        p = small_problem()
        lam_big = 1.5 * lambda_max(p.data, p.kind, p.offsets, p.q)
        big = Problem(p.data, p.kind, p.offsets, lam_big, p.q)
        res = solve(big, SolverConfig(max_iter=50))
        assert np.all(res.W.values == 0.0)
        assert res.iterations <= 2

    @pytest.mark.parametrize("kind", [LossKind.LEAST_SQUARES, LossKind.LOGISTIC])
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_certificate_and_descent(self, kind, q):
        p = small_problem(kind=kind, q=q, lam_ratio=0.2)
        res = solve(p, SolverConfig(max_iter=300, rel_tol=1e-12))
        assert np.all(res.cert_gaps <= 1e-10 * np.maximum(1.0, np.abs(res.objective_history)))
        # L never shrinks across iterations
        assert np.all(res.L_history[1:] >= res.L_history[:-1])
        # best-iterate contract
        assert p.objective(res.W) == pytest.approx(res.objective_history.min(), rel=1e-12)

    def test_matches_long_reference_run(self):
        p = small_problem(seed=21, q=2.0, lam_ratio=0.1)
        ref = solve(p, SolverConfig(max_iter=10_000, rel_tol=1e-15))
        short = solve(p, SolverConfig(max_iter=500, rel_tol=1e-15))
        f_ref = p.objective(ref.W)
        f_short = p.objective(short.W)
        assert abs(f_short - f_ref) <= 1e-8 * max(1.0, abs(f_ref))

    def test_zero_is_fixed_point_of_iteration(self):
        # at lambda > lambda_max, one iteration from X = 0 returns exactly 0
        p = small_problem()
        lam_big = 1.2 * lambda_max(p.data, p.kind, p.offsets, p.q)
        big = Problem(p.data, p.kind, p.offsets, lam_big, p.q)
        res = solve(big, SolverConfig(max_iter=1), x0=big.zero())
        assert np.all(res.W.values == 0.0)

    def test_near_fixed_point_stays_put(self):
        p = small_problem(seed=5, lam_ratio=0.3)
        ref = solve(p, SolverConfig(max_iter=3000, rel_tol=1e-15))
        stepped = prox_step(ref.W, float(ref.L_history[-1]), p)
        assert np.abs(stepped.values - ref.W.values).max() <= 1e-7

    def test_x0_must_have_problem_groups(self):
        p = small_problem()  # six groups of two
        with pytest.raises(ValueError):
            solve(p, SolverConfig(max_iter=5), x0=GroupedVector(np.zeros(12), [0, 12]))

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_one_iteration_is_prox_step_and_model(self, q):
        p = small_problem(q=q)
        x0 = p.zero().with_values(np.linspace(-0.5, 0.5, 12))
        res = solve(p, SolverConfig(max_iter=1), x0=x0)
        L = float(res.L_history[0])
        assert res.W.values.tobytes() == prox_step(x0, L, p).values.tobytes()
        model = res.objective_history[0] - res.cert_gaps[0]
        assert model == model_value(res.W, x0, L, p)

    @pytest.mark.parametrize("q, scale", [(2.0, 1.0), (3.0, 1.0), (math.inf, 1.0),
                                          (2.0, 1e5)],
                             ids=["2.0", "3.0", "inf", "2.0-scaled-1e5"])
    def test_tiny_L0_backtracks_past_non_finite_trials(self, q, scale):
        # the first trial points overflow (at scale 1e5 already the gradient
        # step does); the line search must reject them
        p = small_problem(q=q, scale=scale)
        cfg = dict(max_iter=2000, rel_tol=1e-12)
        ref = solve(p, SolverConfig(**cfg))
        with np.errstate(over="ignore", invalid="ignore"):
            tiny = solve(p, SolverConfig(L0=1e-300, **cfg))
        f_ref = p.objective(ref.W)
        assert abs(p.objective(tiny.W) - f_ref) <= 1e-8 * max(1.0, abs(f_ref))

    def test_history_lengths_consistent(self):
        p = small_problem()
        res = solve(p, SolverConfig(max_iter=40, rel_tol=1e-14))
        assert len(res.objective_history) == res.iterations
        assert len(res.L_history) == res.iterations
        assert len(res.cert_gaps) == res.iterations


class TestLambdaMax:
    def test_identity_design_singleton_groups(self):
        y = np.array([0.5, -2.0, 1.0])
        data = Dataset(np.eye(3), y)
        offsets = np.array([0, 1, 2, 3])
        assert lambda_max(data, LossKind.LEAST_SQUARES, offsets, 2.0) == pytest.approx(2.0)

    def test_zero_targets(self):
        data = Dataset(np.eye(3), np.zeros(3))
        offsets = np.array([0, 1, 2, 3])
        assert lambda_max(data, LossKind.LEAST_SQUARES, offsets, 2.0) == 0.0

    @pytest.mark.parametrize("kind", [LossKind.LEAST_SQUARES, LossKind.LOGISTIC])
    def test_bracketing(self, kind):
        p = small_problem(seed=33, kind=kind)
        lam_star = lambda_max(p.data, p.kind, p.offsets, p.q)
        above = Problem(p.data, p.kind, p.offsets, 1.001 * lam_star, p.q)
        below = Problem(p.data, p.kind, p.offsets, 0.99 * lam_star, p.q)
        cfg = SolverConfig(max_iter=300)
        assert np.all(solve(above, cfg).W.values == 0.0)
        assert np.any(solve(below, cfg).W.values != 0.0)

    @pytest.mark.parametrize("offsets", [[0, 4, 4, 12], [0, 5]],
                             ids=["empty-group", "short"])
    def test_offsets_must_partition_the_coefficients(self, offsets):
        p = small_problem()  # 6 features x 2 tasks
        with pytest.raises(ValueError, match="offsets"):
            lambda_max(p.data, p.kind, offsets, p.q)


class TestRegPath:
    def test_ratio_one_is_zero(self):
        p = small_problem()
        results = reg_path(p.data, p.kind, p.offsets, p.q, [1.0])
        assert len(results) == 1
        assert np.all(results[0].W.values == 0.0)

    def test_nondecreasing_ratios_rejected(self):
        p = small_problem()
        with pytest.raises(ValueError):
            reg_path(p.data, p.kind, p.offsets, p.q, [0.5, 0.5])
        with pytest.raises(ValueError):
            reg_path(p.data, p.kind, p.offsets, p.q, [0.5, 1.5])

    def test_warm_start_matches_cold_with_fewer_iterations(self):
        p = small_problem(seed=41)
        ratios = 0.9 ** np.arange(0, 51, 5)
        cfg = SolverConfig(max_iter=2000, rel_tol=1e-12)
        path = reg_path(p.data, p.kind, p.offsets, p.q, ratios, cfg)
        lam_last = ratios[-1] * lambda_max(p.data, p.kind, p.offsets, p.q)
        cold = solve(Problem(p.data, p.kind, p.offsets, lam_last, p.q), cfg)
        warm = path[-1]
        prob_last = Problem(p.data, p.kind, p.offsets, lam_last, p.q)
        f_warm = prob_last.objective(warm.W)
        f_cold = prob_last.objective(cold.W)
        assert abs(f_warm - f_cold) <= 1e-6 * max(1.0, abs(f_cold))
        assert warm.iterations < cold.iterations

    def test_numerical_failure_names_the_point(self, monkeypatch):
        p = small_problem()
        real, starts = groupprox.solver.solve, []

        def fail_second(problem, cfg, x0=None):
            starts.append(x0)
            if len(starts) == 2:
                raise groupprox.solver.NumericalFailure("line search diverged", 7)
            return real(problem, cfg, x0=x0)

        monkeypatch.setattr(groupprox.solver, "solve", fail_second)
        with pytest.raises(groupprox.solver.NumericalFailure,
                           match=r"path point 1: line search diverged") as err:
            reg_path(p.data, p.kind, p.offsets, p.q, [1.0, 0.5, 0.25])
        assert err.value.iteration == 7
        # the second point started from the first one's solution, and the
        # path stopped at the failure
        assert starts[0] is None and starts[1] is not None and len(starts) == 2

    def test_projection_error_propagates(self, monkeypatch):
        # a c bracket shifted far above the root fails the endpoint-sign
        # check of the q = 3 projection at the second point
        real = groupprox.prox._log_c_candidates
        monkeypatch.setattr(groupprox.prox, "_log_c_candidates",
                            lambda *args: real(*args) + 50.0)
        p = small_problem(q=3.0)
        with pytest.raises(groupprox.prox.ProjectionError,
                           match="phi endpoint signs inconsistent"):
            reg_path(p.data, p.kind, p.offsets, p.q, [1.0, 0.5])


def reference_solve(p, max_iter, rel_tol):
    """The accelerated loop written plainly: every product recomputed."""
    shape = (p.data.n_features, p.data.n_tasks)
    f = lambda v: loss_value(v.reshape(shape), p.data, p.kind)
    grad = lambda v: loss_gradient(v.reshape(shape), p.data, p.kind).reshape(-1)
    x = x_prev = np.zeros(p.offsets[-1])
    alpha_mm, alpha_m, L = 0.0, 1.0, 1.0
    objs, Ls = [], []
    for _ in range(max_iter):
        s = x + (alpha_mm - 1.0) / alpha_m * (x - x_prev)
        g, f_s = grad(s), f(s)
        while True:
            y = prox_grouped(GroupedVector(s - g / L, p.offsets), p.lam / L, p.q)
            penalty = p.lam * mixed_norm(y, p.q)
            d = y.values - s
            f_y = f(y.values) + penalty
            model = f_s + float(g @ d) + penalty + 0.5 * L * float(d @ d)
            if f_y <= model + 1e-12 * max(1.0, abs(model)):
                break
            L *= 2.0
        x_prev, x = x, y.values
        alpha_mm, alpha_m = alpha_m, 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * alpha_m**2))
        objs.append(f_y)
        Ls.append(L)
        if len(objs) > 1 and abs(f_y - objs[-2]) <= rel_tol * max(1.0, abs(objs[-2])):
            break
    return np.array(objs), np.array(Ls)


class TestSameAlgorithm:
    @pytest.mark.parametrize("kind", [LossKind.LEAST_SQUARES, LossKind.LOGISTIC])
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_matches_uncached_reference_loop(self, kind, q):
        p = small_problem(seed=7, m=20, d=8, k=3, kind=kind, q=q, lam_ratio=0.2)
        res = solve(p, SolverConfig(max_iter=400, rel_tol=1e-9))
        objs, Ls = reference_solve(p, max_iter=400, rel_tol=1e-9)
        assert res.iterations == len(objs)
        np.testing.assert_array_equal(res.L_history, Ls)
        np.testing.assert_allclose(res.objective_history, objs, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", [LossKind.LEAST_SQUARES, LossKind.LOGISTIC])
    def test_one_transpose_product_per_iteration_one_product_per_trial(
            self, kind, monkeypatch):
        p = small_problem(seed=3, kind=kind, lam_ratio=0.2)
        products = []

        class Counted(np.ndarray):
            def __matmul__(self, other):
                products.append("A" if self.shape == p.data.design.shape else "At")
                return np.asarray(self) @ other

        p.data.design = p.data.design.view(Counted)
        trials, partitions = [], []

        def counted_prox(*args):
            trials.append(1)
            return prox_grouped(*args)

        def counted_partition(*args):
            partitions.append(1)
            return partition(*args)

        partition = groupprox.grouped._partition
        monkeypatch.setattr(groupprox.solver, "prox_grouped", counted_prox)
        monkeypatch.setattr(groupprox.grouped, "_partition", counted_partition)
        res = solve(p, SolverConfig(L0=1e-3, max_iter=60, rel_tol=1e-14))
        assert len(trials) > res.iterations  # the line search backtracked
        assert products.count("At") == res.iterations
        assert products.count("A") == 1 + len(trials)  # A x0, then one per trial
        assert partitions == []


class TestMetamorphic:
    """The solver commutes with relabelling the features, and with scaling
    the targets and lam together (least squares is homogeneous in them)."""

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0, math.inf])
    def test_permuting_columns_permutes_w(self, q):
        p = small_problem(seed=3, m=40, d=30, k=5, q=q)
        perm = np.random.default_rng(4).permutation(30)
        data = Dataset(p.data.design[:, perm], p.data.targets)
        w = solve(p).W.values.reshape(30, 5)
        wp = solve(Problem(data, p.kind, p.offsets, p.lam, q)).W.values
        np.testing.assert_allclose(wp.reshape(30, 5), w[perm], rtol=0.0,
                                   atol=1e-12 * np.abs(w).max())

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0, math.inf])
    def test_scaling_targets_and_lambda_scales_w(self, q):
        s = 1e3
        p = small_problem(seed=3, m=40, d=30, k=5, q=q)
        data = Dataset(p.data.design, s * p.data.targets)
        w = solve(p).W.values
        ws = solve(Problem(data, p.kind, p.offsets, s * p.lam, q)).W.values
        np.testing.assert_allclose(ws / s, w, rtol=0.0,
                                   atol=1e-12 * np.abs(w).max())
