import logging

import numpy as np
import numpy.testing as npt
import pytest

from latomo.core import MU_PER_HU
from latomo.ssatv1 import binomial_kernel
from latomo.ssatv2 import PyramidLevel, down_sampler, make_pyramid_level, ssatv2_pass
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


def coarse_height(height, s):
    return -(-height // s)


class TestDownsample:
    def test_identity_at_scale_one_with_delta(self):
        rng = np.random.default_rng(41)
        f = rng.standard_normal((9, 5))
        out = down_sampler(9, 1).apply(f)
        npt.assert_array_equal(out, f)

    @pytest.mark.parametrize("s", (2, 4))
    def test_constant_stays_constant(self, s):
        f = np.full((16, 3), 1.75)
        out = down_sampler(16, s).apply(f)
        assert out.shape == (coarse_height(16, s), 3)
        npt.assert_allclose(out, 1.75, rtol=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        f = rng.standard_normal((8, 8))
        npt.assert_allclose(
            down_sampler(8, 2).apply(f), oracle_downsample(f, 2, binomial_kernel(2)),
            rtol=1e-12, atol=1e-14,
        )

    @pytest.mark.parametrize("height,s", [(8, 2), (13, 4), (9, 8)])
    def test_output_height_is_ceiling(self, height, s):
        f = np.zeros((height, 4))
        out = down_sampler(height, s).apply(f)
        assert out.shape[0] == -(-height // s)
        assert down_sampler(height, s).shape == (out.shape[0], height)

    def test_rejects_scale_zero(self):
        with pytest.raises(ValueError, match="scale"):
            down_sampler(8, 0)

    def test_cached_per_height_and_scale(self):
        assert down_sampler(16, 2) is down_sampler(16, 2)
        assert down_sampler(16, 2) is not down_sampler(17, 2)
        assert down_sampler(16, 2) is not down_sampler(16, 4)


class TestUpsampleAdjoint:
    def test_zero_maps_to_zero(self):
        out = down_sampler(8, 2).apply_t(np.zeros((4, 6)))
        npt.assert_array_equal(out, 0.0)

    def test_identity_at_scale_one_with_delta(self):
        rng = np.random.default_rng(43)
        g = rng.standard_normal((7, 3))
        npt.assert_array_equal(down_sampler(7, 1).apply_t(g), g)

    @pytest.mark.parametrize("s", (1, 2, 4, 8))
    @pytest.mark.parametrize("height", (8, 13, 21))
    def test_exact_adjoint(self, s, height):
        rng = np.random.default_rng(100 * s + height)
        down = down_sampler(height, s)
        f = rng.standard_normal((height, 5))
        g = rng.standard_normal((coarse_height(height, s), 5))
        lhs = float((down.apply(f) * g).sum())
        rhs = float((f * down.apply_t(g)).sum())
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_adjoint_matches_dense_matrix(self):
        # dense oracle built column-by-column from unit vectors
        s, height, width = 2, 8, 4
        down = down_sampler(height, s)
        cols = []
        for k in range(height):
            unit = np.zeros((height, 1))
            unit[k] = 1.0
            cols.append(down.apply(unit)[:, 0])
        dense = np.stack(cols, axis=1)  # (h_d, height)
        rng = np.random.default_rng(44)
        g = rng.standard_normal((coarse_height(height, s), width))
        npt.assert_allclose(down.apply_t(g), dense.T @ g, rtol=1e-13, atol=1e-14)

    def test_height_mismatch_rejected(self):
        with pytest.raises(ValueError):
            down_sampler(8, 2).apply_t(np.zeros((3, 4)))


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
        down = down_sampler(8, s)
        for _ in range(10):
            f = rng.uniform(0.0, 0.04, (8, 8))
            f_d = down.apply(f)
            w_d = update_weights(f_d, 5.0)
            yop = forward_diff_op(f_d.shape[0])
            composite = down.apply_t(tv_gradient(f_d, w_d, yop, DELTA_MU))
            objective = lambda arr: coarse_value(down.apply(arr), w_d, DELTA_MU)
            fd = central_fd(objective, f)
            assert np.linalg.norm(composite - fd) / np.linalg.norm(fd) < 1e-4

    def test_descends_the_coarse_objective(self):
        rng = np.random.default_rng(47)
        f = rng.uniform(0.0, 0.04, (32, 16))
        level = make_pyramid_level(f, 2, 5.0)
        down = level.sampler
        out, _ = ssatv2_pass(f, level, 5.0, 5, LineSearchParams())
        before = coarse_value(down.apply(f), level.weights)
        after = coarse_value(down.apply(out), level.weights)
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
            PyramidLevel(8, down_sampler(8, 8), np.ones((1, 4)))

    def test_rejects_mismatched_weights(self):
        with pytest.raises(ValueError):
            PyramidLevel(2, down_sampler(8, 2), np.ones((3, 4)))

    def test_make_level_uniform_weights_on_zero_image(self):
        level = make_pyramid_level(np.zeros((16, 4)), 2, 5.0)
        npt.assert_allclose(level.weights, 1e4, rtol=1e-12)
