import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cglb import kernels, linalg
from cglb.errors import DimensionMismatch
from cglb.kernels import HyperParams

SQRT3 = np.sqrt(3.0)


class TestTransform:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-9, max_value=1e6),
           st.sampled_from([1e-6, 1e-4, 1e-2]))
    def test_roundtrip_and_floor(self, offset, floor):
        # transform(inverse(value)) == value to 1e-12 for any value above the floor
        value = floor + offset
        raw = kernels.positive_inv(value, floor)
        back = kernels.positive(raw, floor)
        assert abs(back - value) <= 1e-12 * value
        assert back > floor
        assert kernels.softplus_grad(raw) > 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-12.0, max_value=30.0))
    def test_raw_roundtrip(self, raw):
        # the opposite composition is well conditioned away from deep saturation
        back = kernels.positive_inv(kernels.positive(raw, 1e-6), 1e-6)
        assert abs(back - raw) <= 1e-9 * max(1.0, abs(raw))

    def test_monotone(self):
        xs = np.linspace(-20, 20, 500)
        vals = kernels.positive(xs, 1e-6)
        assert np.all(np.diff(vals) > 0)

    def test_from_constrained_roundtrip(self):
        p = HyperParams.from_constrained(1.7, [0.3, 2.0], 0.05, -0.4, ndim=2)
        assert abs(p.variance - 1.7) < 1e-12
        np.testing.assert_allclose(p.lengthscales, [0.3, 2.0], rtol=1e-12)
        assert abs(p.noise - 0.05) < 1e-12
        assert p.mean == -0.4

    def test_vector_roundtrip(self):
        p = HyperParams.from_constrained(2.0, [0.5, 1.5, 3.0], 0.1, 0.7, ndim=3)
        q = p.with_vector(p.to_vector())
        np.testing.assert_array_equal(p.to_vector(), q.to_vector())


def k_point(x, x2, p) -> float:
    """The Matern 3/2 covariance of two points, via one-row kernel matrices."""
    return float(kernels.kernel_matrix(np.atleast_2d(x), np.atleast_2d(x2), p)[0, 0])


class TestMatern32:
    def test_zero_distance(self):
        p = HyperParams.from_constrained(1.9, 0.7, 1.0, 0.0, ndim=1)
        assert k_point([0.4], [0.4], p) == p.variance

    def test_unit_distance_closed_form(self):
        p = HyperParams.from_constrained(1.0, 1.0, 1.0, 0.0, ndim=1)
        expected = (1.0 + SQRT3) * np.exp(-SQRT3)  # 0.48335772...
        assert abs(k_point([0.0], [1.0], p) - expected) < 1e-12
        assert abs(expected - 0.48335772) < 1e-8

    def test_monotone_decay_to_zero(self):
        p = HyperParams.from_constrained(1.0, 1.0, 1.0, 0.0, ndim=1)
        dists = np.linspace(0.0, 40.0, 200)
        vals = np.array([k_point([0.0], [t], p) for t in dists])
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 1e-12

    def test_dimension_mismatch(self):
        p = HyperParams.from_constrained(1.0, [1.0, 1.0], 1.0, 0.0, ndim=2)
        with pytest.raises(DimensionMismatch):
            k_point([0.0], [0.0], p)
        with pytest.raises(DimensionMismatch):
            k_point([0.0, 0.0], [0.0], p)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_bounded_by_variance(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        p = HyperParams.from_constrained(
            float(np.exp(rng.uniform(-1, 1))), np.exp(rng.uniform(-1, 1, d)),
            1.0, 0.0, ndim=d)
        x, x2 = rng.normal(size=d), rng.normal(size=d)
        k = k_point(x, x2, p)
        assert 0.0 < k <= p.variance + 1e-15
        assert abs(k - k_point(x2, x, p)) < 1e-15


class TestKernelMatrix:
    def test_single_point(self):
        p = HyperParams.from_constrained(2.5, 1.0, 1.0, 0.0, ndim=1)
        k = kernels.kernel_matrix(np.zeros((1, 1)), None, p)
        np.testing.assert_allclose(k, [[2.5]])

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-2, 2, (50, 3))
        p = HyperParams.from_constrained(1.2, [0.6, 1.0, 1.7], 1.0, 0.0, ndim=3)
        k = kernels.kernel_matrix(X, None, p)
        np.testing.assert_array_equal(k, k.T)
        linalg.cholesky(k + 1e-10 * np.eye(50), jitter_ladder=(0.0,))  # succeeds

    def test_diag_matches_dense(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, (20, 2))
        p = HyperParams.from_constrained(1.8, [0.5, 0.9], 1.0, 0.0, ndim=2)
        np.testing.assert_array_equal(
            kernels.kernel_diag(X, p), np.diag(kernels.kernel_matrix(X, None, p)))


class TestParamGradients:
    """Kernel partials: d k / d sigma_f^2 = k / sigma_f^2 and ``lengthscale_grad``."""

    def test_zero_distance_lengthscale_free(self):
        p = HyperParams.from_constrained(1.3, [0.7], 1.0, 0.0, ndim=1)
        x = np.array([[0.2]])
        k, decay = kernels.kernel_with_decay(x, x, p)
        # at x == x2 the variance partial is the transform factor itself
        variance_partial = k[0, 0] / p.variance * p.transform_jacobian()[0]
        assert abs(variance_partial - kernels.softplus_grad(p.raw_variance)) < 1e-14
        assert kernels.lengthscale_grad(x, x, p, 0, decay=decay)[0, 0] == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_finite_difference_oracle(self, seed):
        rng = np.random.default_rng(seed)
        p = HyperParams.from_constrained(
            float(np.exp(rng.uniform(-0.5, 0.5))),
            float(np.exp(rng.uniform(-0.5, 0.5))),
            1.0, 0.0, ndim=1)
        x = rng.normal(size=(1, 1))
        x2 = x + rng.uniform(0.1, 2.0, size=(1, 1))
        k, decay = kernels.kernel_with_decay(x, x2, p)
        jac = p.transform_jacobian()
        grads = [k / p.variance * jac[0],
                 kernels.lengthscale_grad(x, x2, p, 0, decay=decay) * jac[1]]
        vec = p.to_vector()
        h = 1e-6
        for i in range(2):  # variance and the single lengthscale
            e = np.zeros_like(vec)
            e[i] = h
            kp = kernels.kernel_matrix(x, x2, p.with_vector(vec + e))[0, 0]
            km = kernels.kernel_matrix(x, x2, p.with_vector(vec - e))[0, 0]
            fd = (kp - km) / (2 * h)
            assert abs(fd - grads[i][0, 0]) <= 1e-5 * max(abs(fd), abs(grads[i][0, 0]), 1e-10)
