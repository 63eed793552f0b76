import math

import numpy as np
import pytest

from groupprox import Dataset, LossKind, loss_gradient, loss_value, row_group_offsets
from groupprox.losses import _loss_at_product


def fd_gradient(w, data, kind, step=1e-6):
    """Central-difference gradient, entry by entry."""
    g = np.zeros_like(w)
    it = np.nditer(w, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        wp = w.copy()
        wp[idx] += step
        wm = w.copy()
        wm[idx] -= step
        g[idx] = (loss_value(wp, data, kind) - loss_value(wm, data, kind)) / (2 * step)
    return g


class TestDataset:
    def test_shapes(self):
        d = Dataset(np.ones((4, 3)), np.ones((4, 2)))
        assert (d.n_samples, d.n_features, d.n_tasks) == (4, 3, 2)

    def test_vector_targets_promoted(self):
        d = Dataset(np.ones((4, 3)), np.ones(4))
        assert d.targets.shape == (4, 1)

    def test_sample_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((4, 3)), np.ones((5, 2)))

    @pytest.mark.parametrize("design, targets", [
        (np.ones(4), np.ones((4, 2))),
        (np.ones((4, 3, 1)), np.ones((4, 2))),
        (np.ones((4, 3)), np.ones((4, 2, 1))),
    ], ids=["vector-design", "3d-design", "3d-targets"])
    def test_non_matrix_rejected(self, design, targets):
        with pytest.raises(ValueError, match="matrices"):
            Dataset(design, targets)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[math.inf]]), np.array([[1.0]]))

    def test_logistic_targets_checked(self):
        d = Dataset(np.ones((2, 2)), np.array([[1.0], [0.5]]))
        with pytest.raises(ValueError):
            d.check_logistic_targets()


class TestRowGroupOffsets:
    def test_layout(self):
        np.testing.assert_array_equal(row_group_offsets(3, 2), [0, 2, 4, 6])

    def test_single_task(self):
        np.testing.assert_array_equal(row_group_offsets(2, 1), [0, 1, 2])


class TestLossValue:
    def test_least_squares_at_zero(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
        w0 = np.zeros((3, 2))
        expected = 0.5 * float(np.square(data.targets).sum())
        assert loss_value(w0, data, LossKind.LEAST_SQUARES) == pytest.approx(expected)

    def test_logistic_at_zero(self):
        rng = np.random.default_rng(1)
        labels = np.sign(rng.standard_normal((6, 2)))
        data = Dataset(rng.standard_normal((6, 3)), labels)
        expected = 6 * 2 * math.log(2.0)
        assert loss_value(np.zeros((3, 2)), data, LossKind.LOGISTIC) == pytest.approx(expected)

    def test_perfect_fit_is_zero(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        data = Dataset(np.eye(2), w)
        assert loss_value(w, data, LossKind.LEAST_SQUARES) == 0.0

    def test_unknown_kind_rejected(self):
        data = Dataset(np.eye(2), np.ones((2, 1)))
        with pytest.raises(ValueError, match="unknown loss kind"):
            loss_value(np.zeros((2, 1)), data, "hinge")

    def test_logistic_overflow_safe(self):
        data = Dataset(np.array([[1000.0]]), np.array([[-1.0]]))
        val = loss_value(np.array([[1.0]]), data, LossKind.LOGISTIC)
        assert val == pytest.approx(1000.0, rel=1e-9)

    def test_shape_mismatch_rejected(self):
        data = Dataset(np.ones((2, 2)), np.ones((2, 1)))
        with pytest.raises(ValueError):
            loss_value(np.ones((3, 1)), data, LossKind.LEAST_SQUARES)


class TestLossGradient:
    def test_least_squares_at_zero(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 3))
        y = rng.standard_normal((5, 2))
        data = Dataset(a, y)
        g = loss_gradient(np.zeros((3, 2)), data, LossKind.LEAST_SQUARES)
        np.testing.assert_allclose(g, -a.T @ y, rtol=1e-12)

    def test_stationary_at_perfect_fit(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 3))
        w = rng.standard_normal((3, 2))
        data = Dataset(a, a @ w)
        g = loss_gradient(w, data, LossKind.LEAST_SQUARES)
        np.testing.assert_allclose(g, np.zeros((3, 2)), atol=1e-10)

    @pytest.mark.parametrize("w, expected", [
        (0.0, 0.0),
        (36.7, 1.0 - 3 * 2.0**-53),  # each weight still a few ulps off 0 or 1
        (37.5, 1.0),
        (709.0, 1.0),
        (710.0, 1.0),  # exp of the margin overflows to inf: weight 0
        (745.0, 1.0),
        (1e308, 1.0),
        (-1e308, -1.0),
    ])
    def test_logistic_weight_at_extremes(self, w, expected):
        # margins w and -w: the gradient is 1/(1 + exp(-w)) - 1/(1 + exp(w))
        data = Dataset(np.array([[1.0], [1.0]]), np.array([[1.0], [-1.0]]))
        g = loss_gradient(np.array([w]), data, LossKind.LOGISTIC)
        assert g.tolist() == [[expected]]

    @pytest.mark.parametrize("kind", [LossKind.LEAST_SQUARES, LossKind.LOGISTIC])
    def test_finite_difference_match(self, kind):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((7, 4))
        if kind is LossKind.LOGISTIC:
            y = np.sign(rng.standard_normal((7, 2)))
        else:
            y = rng.standard_normal((7, 2))
        data = Dataset(a, y)
        w = 0.3 * rng.standard_normal((4, 2))
        g = loss_gradient(w, data, kind)
        fd = fd_gradient(w, data, kind)
        rel = np.abs(g - fd).max() / max(1.0, np.abs(fd).max())
        assert rel <= 1e-5

    @pytest.mark.parametrize("kind", [LossKind.LEAST_SQUARES, LossKind.LOGISTIC])
    def test_convexity_along_segments(self, kind):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 3))
        if kind is LossKind.LOGISTIC:
            y = np.sign(rng.standard_normal((6, 2)))
        else:
            y = rng.standard_normal((6, 2))
        data = Dataset(a, y)
        for _ in range(10):
            w1 = rng.standard_normal((3, 2))
            w2 = rng.standard_normal((3, 2))
            mid = loss_value(0.5 * (w1 + w2), data, kind)
            avg = 0.5 * (loss_value(w1, data, kind) + loss_value(w2, data, kind))
            assert mid <= avg + 1e-10 * max(1.0, abs(avg))


def _dataset(kind, seed=6, m=7, d=4, k=3):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, d))
    y = np.sign(rng.standard_normal((m, k))) if kind is LossKind.LOGISTIC \
        else rng.standard_normal((m, k))
    return Dataset(a, y), rng.standard_normal((d, k))


class TestLossAtProduct:
    @pytest.mark.parametrize("kind", [LossKind.LEAST_SQUARES, LossKind.LOGISTIC])
    def test_matches_public_functions_bitwise(self, kind):
        data, w = _dataset(kind)
        z = data.design @ w
        value, grad = _loss_at_product(z, data, kind, gradient=True)
        assert value == loss_value(w, data, kind)
        assert grad.tobytes() == loss_gradient(w, data, kind).tobytes()
        assert _loss_at_product(z, data, kind) == (value, None)

    @pytest.mark.parametrize("fn", [loss_value, loss_gradient])
    def test_public_functions_check_logistic_targets(self, fn):
        data, w = _dataset(LossKind.LEAST_SQUARES)  # real-valued targets
        with pytest.raises(ValueError, match="logistic targets"):
            fn(w, data, LossKind.LOGISTIC)

    @pytest.mark.parametrize("kind", [LossKind.LEAST_SQUARES, LossKind.LOGISTIC])
    @pytest.mark.parametrize("fn", [loss_value, loss_gradient])
    def test_public_functions_check_shape(self, fn, kind):
        data, w = _dataset(kind)
        with pytest.raises(ValueError, match="W must be"):
            fn(w[:-1], data, kind)
        with pytest.raises(ValueError, match="W must be"):
            fn(w.T, data, kind)
