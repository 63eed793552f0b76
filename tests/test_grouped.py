import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from groupprox import (
    GroupedVector,
    dual_exponent,
    group_norms,
    mixed_norm,
    q_norm,
)

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
small_vectors = arrays(float, st.integers(1, 12), elements=finite_floats)
exponents = st.one_of(st.just(1.0), st.just(2.0), st.just(math.inf),
                      st.floats(1.0, 16.0))


class TestDualExponent:
    def test_self_dual(self):
        assert dual_exponent(2.0) == 2.0

    def test_inf_maps_to_one(self):
        assert dual_exponent(math.inf) == 1.0

    def test_one_maps_to_inf(self):
        assert dual_exponent(1.0) == math.inf

    def test_four_thirds(self):
        assert dual_exponent(4.0 / 3.0) == pytest.approx(4.0, rel=1e-12)

    def test_near_one_snaps_to_inf(self):
        # q this close to 1 would give an astronomically large conjugate
        assert dual_exponent(1.0 + 1e-13) == math.inf

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            dual_exponent(0.5)

    @given(st.floats(1.001, 100.0))
    def test_involution(self, q):
        assert dual_exponent(dual_exponent(q)) == pytest.approx(q, rel=1e-9)


class TestQNorm:
    def test_three_four_five(self):
        assert q_norm(np.array([3.0, 4.0]), 2.0) == pytest.approx(5.0)

    def test_max_norm(self):
        assert q_norm(np.array([1.0, -2.0]), math.inf) == 2.0

    def test_l1(self):
        assert q_norm(np.array([1.0, -2.0]), 1.0) == 3.0

    def test_l1_past_the_doubles_is_inf(self):
        # summed in units of the largest magnitude, the norm overflows only
        # in the final rescaling, which warns nothing
        assert q_norm(np.array([1.5e308, 1.5e308]), 1.0) == math.inf

    def test_zero_vector(self):
        for q in (1.0, 1.5, 2.0, 7.0, math.inf):
            assert q_norm(np.zeros(4), q) == 0.0

    def test_empty_vector_is_zero(self):
        assert q_norm(np.zeros(0), 3.0) == 0.0

    @pytest.mark.parametrize("q", [0.0, 0.5, math.nan])
    def test_below_one_rejected(self, q):
        with pytest.raises(ValueError, match="q >= 1"):
            q_norm(np.ones(2), q)

    def test_huge_exponent_no_overflow(self):
        v = np.array([1e150, 2e150])
        assert q_norm(v, 64.0) == pytest.approx(2e150, rel=1e-6)

    @given(small_vectors, exponents)
    @settings(max_examples=150, deadline=None)
    def test_homogeneity(self, v, q):
        n = q_norm(v, q)
        assert q_norm(3.0 * v, q) == pytest.approx(3.0 * n, rel=1e-9, abs=1e-9)

    @given(small_vectors)
    @settings(max_examples=150, deadline=None)
    def test_monotone_decreasing_in_q(self, v):
        qs = [1.0, 1.5, 2.0, 3.0, 8.0, math.inf]
        norms = [q_norm(v, q) for q in qs]
        for a, b in zip(norms, norms[1:]):
            assert b <= a * (1 + 1e-10) + 1e-12

    @given(small_vectors, st.floats(1.0, 16.0))
    @settings(max_examples=150, deadline=None)
    def test_hoelder(self, v, q):
        # |<v, w>| <= ||v||_q ||w||_qbar with w = ones
        w = np.ones_like(v)
        lhs = abs(float(v @ w))
        rhs = q_norm(v, q) * q_norm(w, dual_exponent(q))
        assert lhs <= rhs * (1 + 1e-10) + 1e-9


class TestGroupedVector:
    def test_valid_partition(self):
        g = GroupedVector(np.arange(4.0), [0, 2, 4])
        assert g.n_groups == 2
        np.testing.assert_array_equal(g.group(1), [2.0, 3.0])
        np.testing.assert_array_equal(g.group_sizes(), [2, 2])

    def test_offsets_must_start_at_zero(self):
        with pytest.raises(ValueError):
            GroupedVector(np.arange(4.0), [1, 4])

    def test_offsets_must_end_at_length(self):
        with pytest.raises(ValueError):
            GroupedVector(np.arange(4.0), [0, 3])

    def test_no_empty_groups(self):
        with pytest.raises(ValueError):
            GroupedVector(np.arange(4.0), [0, 2, 2, 4])

    @pytest.mark.parametrize("offsets", [[0], [], [[0, 4]]], ids=["one", "none", "matrix"])
    def test_offsets_need_two_indices(self, offsets):
        with pytest.raises(ValueError, match="at least two indices"):
            GroupedVector(np.arange(4.0), offsets)

    def test_values_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            GroupedVector(np.ones((2, 2)), [0, 4])

    def test_values_must_be_finite(self):
        with pytest.raises(ValueError):
            GroupedVector(np.array([1.0, math.nan]), [0, 2])

    def test_with_values_keeps_partition(self):
        g = GroupedVector(np.arange(4.0), [0, 2, 4])
        h = g.with_values(np.ones(4))
        assert h.n_groups == 2
        np.testing.assert_array_equal(h.values, np.ones(4))

    @pytest.mark.parametrize("bad", [[1.0, math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0, 0.0],
                                     [1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0, 5.0],
                                     [[1.0, 2.0], [3.0, 4.0]]],
                             ids=["nan", "inf", "short", "long", "matrix"])
    def test_with_values_rejects_bad_values(self, bad):
        g = GroupedVector(np.arange(4.0), [0, 2, 4])
        with pytest.raises(ValueError):
            g.with_values(np.array(bad))

    def test_with_values_leaves_source_unchanged(self):
        g = GroupedVector(np.arange(4.0), [0, 2, 4])
        h = g.with_values(np.ones(4))
        np.testing.assert_array_equal(g.values, np.arange(4.0))
        np.testing.assert_array_equal(g.offsets, [0, 2, 4])
        np.testing.assert_array_equal(h.offsets, [0, 2, 4])
        assert h.values is not g.values

    def test_copy_is_independent(self):
        g = GroupedVector(np.arange(4.0), [0, 4])
        h = g.copy()
        h.values[0] = 99.0
        assert g.values[0] == 0.0


class TestGroupNorms:
    def test_two_groups(self):
        n = group_norms(np.array([3.0, 4.0, 0.0, 5.0]), np.array([0, 2, 4]), 2.0)
        np.testing.assert_allclose(n, [5.0, 5.0])

    def test_matches_scalar_q_norm(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(10)
        offsets = np.array([0, 3, 7, 10])
        for q in (1.0, 1.5, 2.0, 4.0, math.inf):
            fast = group_norms(v, offsets, q)
            slow = [q_norm(v[a:b], q) for a, b in zip(offsets, offsets[1:])]
            np.testing.assert_allclose(fast, slow, rtol=1e-12)

    @pytest.mark.parametrize("q", [0.0, 0.5, math.nan])
    def test_below_one_rejected(self, q):
        g = GroupedVector(np.array([1.0, 2.0]), [0, 2])
        with pytest.raises(ValueError, match="q >= 1"):
            group_norms(g.values, g.offsets, q)
        with pytest.raises(ValueError, match="q >= 1"):
            mixed_norm(g, q)


class TestMixedNorm:
    def test_sums_group_norms(self):
        g = GroupedVector(np.array([3.0, 4.0, 0.0, 5.0]), [0, 2, 4])
        assert mixed_norm(g, 2.0) == pytest.approx(10.0)

    def test_zero_vector(self):
        g = GroupedVector(np.zeros(3), [0, 3])
        assert mixed_norm(g, 1.5) == 0.0

    def test_l1_of_ones(self):
        g = GroupedVector(np.ones(3), [0, 3])
        assert mixed_norm(g, 1.0) == 3.0
