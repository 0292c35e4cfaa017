import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latomo.core import MU_PER_HU
from latomo.tv import (
    LineSearchParams,
    backtracking_line_search,
    descent_steps,
    forward_diff_op,
    normalize_direction,
    tv_gradient,
    tv_value,
    update_weights,
)

# smoothing floor tied to the default 5 HU reweighting floor, as in the driver
DELTA_MU = MU_PER_HU * 5.0


def iso_value(f, w, delta_mu=0.0):
    return tv_value(f, w, forward_diff_op(f.shape[0]), delta_mu)


def iso_gradient(f, w, delta_mu=DELTA_MU):
    return tv_gradient(f, w, forward_diff_op(f.shape[0]), delta_mu)


def wtv_pass(f, eps_hu, steps, params):
    """The driver's wtv phase: weights from ``f``, then the descent loop."""
    out, _ = descent_steps(f, update_weights(f, eps_hu), forward_diff_op(f.shape[0]),
                           steps, params, MU_PER_HU * eps_hu)
    return out


def oracle_grad(f):
    """Elementwise clamped backward differences, written independently."""
    h, w = f.shape
    gx = np.zeros_like(f)
    gy = np.zeros_like(f)
    for y in range(h):
        for x in range(w):
            if x > 0:
                gx[y, x] = f[y, x] - f[y, x - 1]
            if y > 0:
                gy[y, x] = f[y, x] - f[y - 1, x]
    return gx, gy


class TestGrad:
    """The image gradient: Y differences through :func:`forward_diff_op`,
    its magnitude through the weights 1 / (|grad f| + eps)."""

    EPS_MU = MU_PER_HU * 5.0

    def test_constant_image(self):
        f = np.full((5, 7), 3.2)
        npt.assert_array_equal(forward_diff_op(5).apply(f), 0.0)
        npt.assert_array_equal(update_weights(f, 5.0), 1.0 / self.EPS_MU)

    def test_linear_ramp_along_x(self):
        c = 0.7
        f = c * np.arange(6.0)[None, :].repeat(4, axis=0)
        w = update_weights(f, 5.0)
        npt.assert_allclose(w[:, 1:], 1.0 / (c + self.EPS_MU))
        npt.assert_array_equal(w[:, 0], 1.0 / self.EPS_MU)
        npt.assert_array_equal(forward_diff_op(4).apply(f), 0.0)

    def test_random_matches_oracle(self):
        rng = np.random.default_rng(21)
        f = rng.standard_normal((3, 3))
        ox, oy = oracle_grad(f)
        npt.assert_array_equal(forward_diff_op(3).apply(f), oy)
        npt.assert_array_equal(update_weights(f, 5.0),
                               1.0 / (np.sqrt(ox * ox + oy * oy) + self.EPS_MU))


class TestWtvValue:
    def test_constant_image_is_zero(self):
        w = np.ones((4, 4))
        assert iso_value(np.full((4, 4), 2.0), w) == 0.0

    def test_step_edge(self):
        # unit weights, vertical step of height delta spanning n rows
        n, delta = 5, 0.3
        f = np.zeros((n, 6))
        f[:, 3:] = delta
        assert iso_value(f, np.ones_like(f)) == pytest.approx(n * delta, rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(22)
        f = rng.standard_normal((4, 4))
        w = rng.uniform(0.5, 2.0, (4, 4))
        gx, gy = oracle_grad(f)
        expected = sum(
            w[y, x] * np.sqrt(gx[y, x] ** 2 + gy[y, x] ** 2)
            for y in range(4)
            for x in range(4)
        )
        assert iso_value(f, w) == pytest.approx(expected, rel=1e-12)

    def test_positive_scaling_is_exact(self):
        rng = np.random.default_rng(23)
        f = rng.standard_normal((6, 6))
        w = np.ones_like(f)
        assert iso_value(2.0 * f, w) == iso_value(f, w) * 2.0
        assert iso_value(3.7 * f, w) == pytest.approx(3.7 * iso_value(f, w), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            iso_value(np.zeros((3, 3)), np.ones((2, 3)))


class TestUpdateWeights:
    def test_constant_image_hits_cap(self):
        w = update_weights(np.full((3, 3), 0.01), eps_hu=5.0)
        npt.assert_allclose(w, 1e4, rtol=1e-12)

    def test_gradient_equal_to_eps(self):
        eps_mu = MU_PER_HU * 5.0
        f = np.array([[0.0, eps_mu]])
        w = update_weights(f, eps_hu=5.0)
        assert w[0, 1] == pytest.approx(1.0 / (2 * eps_mu), rel=1e-12)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(24)
        f = rng.uniform(0, 0.04, (5, 5))
        eps_mu = MU_PER_HU * 5.0
        gx, gy = oracle_grad(f)
        expected = 1.0 / (np.sqrt(gx**2 + gy**2) + eps_mu)
        npt.assert_allclose(update_weights(f, 5.0), expected, rtol=1e-12)

    def test_weights_bounded_by_cap(self):
        rng = np.random.default_rng(25)
        f = rng.uniform(0, 0.04, (6, 6))
        w = update_weights(f, 5.0)
        assert np.all(w > 0)
        assert np.all(w <= 1.0 / (MU_PER_HU * 5.0) + 1e-9)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            update_weights(np.zeros((2, 2)), 0.0)


def central_fd(objective, f, step=1e-7):
    out = np.zeros_like(f)
    for idx in np.ndindex(f.shape):
        fp = f.copy()
        fp[idx] += step
        fm = f.copy()
        fm[idx] -= step
        out[idx] = (objective(fp) - objective(fm)) / (2 * step)
    return out


class TestWtvGradient:
    def test_constant_image_is_zero(self):
        w = np.ones((4, 4))
        npt.assert_array_equal(iso_gradient(np.full((4, 4), 1.0), w), 0.0)

    @pytest.mark.parametrize("delta_mu", [1e-8, DELTA_MU])
    def test_matches_finite_differences(self, delta_mu):
        # the gradient differentiates the delta-smoothed value exactly
        rng = np.random.default_rng(26)
        for _ in range(10):
            f = rng.uniform(0.0, 0.04, (8, 8))
            w = update_weights(f, 5.0)
            g = iso_gradient(f, w, delta_mu)
            fd = central_fd(lambda arr: iso_value(arr, w, delta_mu), f)
            assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-4

    def test_tiny_floor_matches_plain_value_differences(self):
        # with a floor far below actual gradient magnitudes, finite
        # differences of the unsmoothed value agree as well
        rng = np.random.default_rng(261)
        f = rng.uniform(0.0, 0.04, (8, 8))
        w = update_weights(f, 5.0)
        g = iso_gradient(f, w, 1e-8)
        fd = central_fd(lambda arr: iso_value(arr, w), f)
        assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-4

    def test_two_pixel_closed_form(self):
        a, b = 0.01, 0.025
        f = np.array([[a, b]])
        w = np.ones_like(f)
        g = iso_gradient(f, w)
        d = b - a
        slope = d / np.sqrt(d * d + DELTA_MU**2)
        npt.assert_allclose(g, [[-slope, slope]], rtol=1e-12)


class TestNormalize:
    def test_zero_gradient_flags_converged(self):
        direction, converged = normalize_direction(np.zeros((3, 3)))
        assert converged
        npt.assert_array_equal(direction, 0.0)

    def test_scales_by_max_abs(self):
        g = np.array([[1.0, -5.0], [2.0, 0.0]])
        direction, converged = normalize_direction(g)
        assert not converged
        assert np.max(np.abs(direction)) == 1.0
        npt.assert_allclose(direction, g / 5.0)

    @settings(derandomize=True, max_examples=50)
    @given(arrays(np.float64, (3, 4), elements=st.floats(-1e3, 1e3)))
    def test_preserves_argmax_and_signs(self, g):
        direction, converged = normalize_direction(g)
        if converged:
            return
        assert np.argmax(np.abs(direction)) == np.argmax(np.abs(g))
        npt.assert_array_equal(np.sign(direction), np.sign(g))


class TestLineSearch:
    PARAMS = LineSearchParams(alpha=0.3, beta=0.6, t0=1e-3, max_shrinks=30)

    def test_quadratic_accepts_first_trial(self):
        target = 5.0
        f = np.array([[0.0]])
        objective = lambda arr: float((arr[0, 0] - target) ** 2)
        g = np.array([[2 * (f[0, 0] - target)]])
        ghat, _ = normalize_direction(g)
        t = backtracking_line_search(f, g, ghat, objective, self.PARAMS)
        assert t == self.PARAMS.t0

    def test_flat_objective_returns_zero(self):
        f = np.zeros((2, 2))
        g = np.ones((2, 2))
        ghat, _ = normalize_direction(g)
        t = backtracking_line_search(f, g, ghat, lambda arr: 1.0, self.PARAMS)
        assert t == 0.0

    def test_step_decreases_wtv_objective(self):
        rng = np.random.default_rng(27)
        f = rng.uniform(0.0, 0.04, (8, 8))
        w = update_weights(f, 5.0)
        objective = lambda arr: iso_value(arr, w)
        g = iso_gradient(f, w)
        ghat, _ = normalize_direction(g)
        t = backtracking_line_search(f, g, ghat, objective, LineSearchParams())
        assert t > 0
        assert objective(f - t * ghat) < objective(f)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LineSearchParams(alpha=0.7)
        with pytest.raises(ValueError):
            LineSearchParams(beta=1.0)
        with pytest.raises(ValueError):
            LineSearchParams(t0=0.0)
        with pytest.raises(ValueError, match="max_shrinks"):
            LineSearchParams(max_shrinks=-1)
        assert LineSearchParams(max_shrinks=0).max_shrinks == 0


class TestWtvRegularize:
    def test_constant_image_unchanged(self):
        f = np.full((6, 6), 0.02)
        out = wtv_pass(f, 5.0, 10, LineSearchParams())
        npt.assert_array_equal(out, f)

    def test_objective_never_increases(self):
        rng = np.random.default_rng(28)
        f = rng.uniform(0.0, 0.04, (12, 12))
        w = update_weights(f, 5.0)
        out = wtv_pass(f, 5.0, 10, LineSearchParams())
        assert iso_value(out, w) <= iso_value(f, w)

    def test_monotone_within_each_step(self):
        rng = np.random.default_rng(29)
        f = rng.uniform(0.0, 0.04, (10, 10))
        w = update_weights(f, 5.0)
        yop = forward_diff_op(10)
        params = LineSearchParams()
        previous = iso_value(f, w)
        for _ in range(10):
            f, _ = descent_steps(f, w, yop, 1, params, DELTA_MU)
            current = iso_value(f, w)
            assert current <= previous
            previous = current

    def test_denoises_step_edge(self):
        rng = np.random.default_rng(30)
        f = np.where(np.arange(16)[None, :] < 8, 0.01, 0.03).repeat(16, axis=0)
        f = f + rng.normal(0.0, 5e-4, f.shape)
        out = wtv_pass(f, 5.0, 10, LineSearchParams())
        off_edge = (slice(None), slice(0, 6))
        assert out[off_edge].var() < f[off_edge].var()
