import logging

import numpy as np
import numpy.testing as npt
import pytest

from latomo.core import MU_PER_HU
from latomo.ssatv1 import binomial_kernel
from latomo.ssatv2 import (
    PyramidLevel,
    delta_kernel,
    down_height,
    downsample_y,
    make_pyramid_level,
    ssatv2_pass,
    upsample_adjoint_y,
)
from latomo.tv import (
    LineSearchParams,
    descent_steps,
    forward_diff_op,
    tv_gradient,
    tv_value,
    update_weights,
)

# smoothing floor tied to the default 5 HU reweighting floor, as in the driver
DELTA_MU = MU_PER_HU * 5.0


def coarse_value(f_d, w_d, delta_mu=0.0):
    return tv_value(f_d, w_d, forward_diff_op(f_d.shape[0]), delta_mu)


def oracle_downsample(f, s, lowpass):
    """Filter along Y with clamped indices, then keep every s-th row."""
    taps = lowpass.taps_array()
    L = lowpass.half_length
    h = f.shape[0]
    filtered = np.zeros_like(f)
    for y in range(h):
        for j in range(-L, L + 1):
            yy = min(max(y + j, 0), h - 1)
            filtered[y] += taps[L - j] * f[yy]
    return filtered[::s]


class TestDownsample:
    def test_identity_at_scale_one_with_delta(self):
        rng = np.random.default_rng(41)
        f = rng.standard_normal((9, 5))
        out = downsample_y(f, 1, delta_kernel())
        npt.assert_array_equal(out, f)

    @pytest.mark.parametrize("s", (2, 4))
    def test_constant_stays_constant(self, s):
        f = np.full((16, 3), 1.75)
        out = downsample_y(f, s, binomial_kernel(s))
        assert out.shape == (down_height(16, s), 3)
        npt.assert_allclose(out, 1.75, rtol=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        f = rng.standard_normal((8, 8))
        lp = binomial_kernel(2)
        npt.assert_allclose(
            downsample_y(f, 2, lp), oracle_downsample(f, 2, lp), rtol=1e-12, atol=1e-14
        )

    @pytest.mark.parametrize("height,s", [(8, 2), (13, 4), (9, 8)])
    def test_output_height_is_ceiling(self, height, s):
        f = np.zeros((height, 4))
        out = downsample_y(f, s, binomial_kernel(s))
        assert out.shape[0] == -(-height // s)


class TestUpsampleAdjoint:
    def test_zero_maps_to_zero(self):
        out = upsample_adjoint_y(np.zeros((4, 6)), 2, binomial_kernel(2), 8)
        npt.assert_array_equal(out, 0.0)

    def test_identity_at_scale_one_with_delta(self):
        rng = np.random.default_rng(43)
        g = rng.standard_normal((7, 3))
        npt.assert_array_equal(upsample_adjoint_y(g, 1, delta_kernel(), 7), g)

    @pytest.mark.parametrize("s", (1, 2, 4, 8))
    @pytest.mark.parametrize("height", (8, 13, 21))
    def test_exact_adjoint(self, s, height):
        rng = np.random.default_rng(100 * s + height)
        lp = delta_kernel() if s == 1 else binomial_kernel(s)
        f = rng.standard_normal((height, 5))
        g = rng.standard_normal((down_height(height, s), 5))
        lhs = float((downsample_y(f, s, lp) * g).sum())
        rhs = float((f * upsample_adjoint_y(g, s, lp, height)).sum())
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_adjoint_matches_dense_matrix(self):
        # dense oracle built column-by-column from unit vectors
        s, height, width = 2, 8, 4
        lp = binomial_kernel(s)
        cols = []
        for k in range(height):
            unit = np.zeros((height, 1))
            unit[k] = 1.0
            cols.append(downsample_y(unit, s, lp)[:, 0])
        dense = np.stack(cols, axis=1)  # (h_d, height)
        rng = np.random.default_rng(44)
        g = rng.standard_normal((down_height(height, s), width))
        npt.assert_allclose(
            upsample_adjoint_y(g, s, lp, height), dense.T @ g, rtol=1e-13, atol=1e-14
        )

    def test_height_mismatch_rejected(self):
        with pytest.raises(ValueError):
            upsample_adjoint_y(np.zeros((3, 4)), 2, binomial_kernel(2), 8)


def central_fd(objective, f, step=1e-7):
    out = np.zeros_like(f)
    for idx in np.ndindex(f.shape):
        fp = f.copy()
        fp[idx] += step
        fm = f.copy()
        fm[idx] -= step
        out[idx] = (objective(fp) - objective(fm)) / (2 * step)
    return out


class TestSubstep:
    def test_constant_image_unchanged(self):
        f = np.full((16, 8), 0.02)
        level = make_pyramid_level(f, 2, 5.0)
        out, accepted = ssatv2_pass(f, level, 5.0, 5, LineSearchParams())
        npt.assert_array_equal(out, f)
        assert accepted == []

    def test_scale_one_delta_is_bitwise_wtv(self):
        rng = np.random.default_rng(45)
        f = rng.uniform(0.0, 0.04, (16, 16))
        params = LineSearchParams()
        level = make_pyramid_level(f, 1, 5.0)
        a, _ = ssatv2_pass(f.copy(), level, 5.0, 10, params)
        b, _ = descent_steps(f, update_weights(f, 5.0), forward_diff_op(16), 10,
                             params, DELTA_MU)
        npt.assert_array_equal(a, b)

    @pytest.mark.parametrize("s", (2, 4))
    def test_composite_gradient_matches_finite_differences(self, s):
        rng = np.random.default_rng(46 + s)
        lp = binomial_kernel(s)
        for _ in range(10):
            f = rng.uniform(0.0, 0.04, (8, 8))
            f_d = downsample_y(f, s, lp)
            w_d = update_weights(f_d, 5.0)
            yop = forward_diff_op(f_d.shape[0])
            composite = upsample_adjoint_y(
                tv_gradient(f_d, w_d, yop, DELTA_MU), s, lp, f.shape[0]
            )
            objective = lambda arr: coarse_value(
                downsample_y(arr, s, lp), w_d, DELTA_MU
            )
            fd = central_fd(objective, f)
            assert np.linalg.norm(composite - fd) / np.linalg.norm(fd) < 1e-4

    def test_descends_the_coarse_objective(self):
        rng = np.random.default_rng(47)
        f = rng.uniform(0.0, 0.04, (32, 16))
        level = make_pyramid_level(f, 2, 5.0)
        lp = level.lowpass
        out, _ = ssatv2_pass(f, level, 5.0, 5, LineSearchParams())
        before = coarse_value(downsample_y(f, 2, lp), level.weights)
        after = coarse_value(downsample_y(out, 2, lp), level.weights)
        assert after < before

    def test_debug_log_reports_rise_after_pull_back(self, caplog):
        # on a noisy image the re-sampled fine update overshoots the coarse
        # step's prediction; the check runs only when DEBUG is enabled and
        # leaves the result unchanged
        rng = np.random.default_rng(48)
        f = rng.uniform(0.0, 0.04, (32, 16))
        level = make_pyramid_level(f, 2, 5.0)
        params = LineSearchParams()
        with caplog.at_level(logging.INFO, logger="latomo.ssatv2"):
            quiet, _ = ssatv2_pass(f, level, 5.0, 5, params)
        assert caplog.records == []
        with caplog.at_level(logging.DEBUG, logger="latomo.ssatv2"):
            traced, accepted = ssatv2_pass(f, level, 5.0, 5, params)
        rises = [r for r in caplog.records if "rose after pull-back" in r.getMessage()]
        assert rises and len(rises) <= len(accepted)
        assert all(r.name == "latomo.ssatv2" for r in rises)
        npt.assert_array_equal(traced, quiet)


class TestPyramidLevel:
    def test_rejects_tiny_down_height(self):
        with pytest.raises(ValueError):
            PyramidLevel(8, binomial_kernel(8), 1, np.ones((1, 4)))

    def test_rejects_mismatched_weights(self):
        with pytest.raises(ValueError):
            PyramidLevel(2, binomial_kernel(2), 4, np.ones((3, 4)))

    def test_make_level_uniform_weights_on_zero_image(self):
        level = make_pyramid_level(np.zeros((16, 4)), 2, 5.0)
        npt.assert_allclose(level.weights, 1e4, rtol=1e-12)
