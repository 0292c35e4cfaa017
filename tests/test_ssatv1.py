import numpy as np
import numpy.testing as npt
import pytest

from latomo.core import MU_PER_HU
from latomo.ssatv1 import (
    DerivKernel,
    LowPassKernel,
    binomial_kernel,
    derivative_kernel,
    ssatv1_pass,
    y_operator,
)
from latomo.tv import (
    LineSearchParams,
    descent_steps,
    forward_diff_op,
    tv_gradient,
    tv_value,
    tv_weights,
    update_weights,
)

# smoothing floor tied to the default 5 HU reweighting floor, as in the driver
DELTA_MU = MU_PER_HU * 5.0


def yop(f, kernel):
    return y_operator(kernel, f.shape[0])


def aniso_value(f, w, kernel, delta_mu=0.0):
    return tv_value(f, w, yop(f, kernel), delta_mu)


def aniso_weights(f, kernel):
    return tv_weights(f, MU_PER_HU * 5.0, yop(f, kernel))


def aniso_gradient(f, w, kernel, delta_mu=DELTA_MU):
    return tv_gradient(f, w, yop(f, kernel), delta_mu)


def tap_offsets(kernel):
    """Row offsets multiplied by each tap (descending)."""
    return kernel.anchor - np.arange(len(kernel.taps))


SCALES = (1, 2, 4, 8, 16)


class TestBinomialKernel:
    def test_scale_one(self):
        npt.assert_array_equal(binomial_kernel(1).taps, [0.25, 0.5, 0.25])

    def test_scale_two(self):
        npt.assert_array_equal(
            binomial_kernel(2).taps, np.array([1, 4, 6, 4, 1]) / 16.0
        )

    @pytest.mark.parametrize("s", SCALES)
    def test_sums_to_one_exactly(self, s):
        assert sum(binomial_kernel(s).taps) == 1.0

    @pytest.mark.parametrize("s", SCALES)
    def test_symmetric(self, s):
        taps = binomial_kernel(s).taps_array()
        npt.assert_array_equal(taps, taps[::-1])

    @pytest.mark.parametrize("s", SCALES)
    def test_variance_is_half_scale(self, s):
        kernel = binomial_kernel(s)
        taps = kernel.taps_array()
        j = np.arange(taps.size)
        variance = float((taps * (j - s) ** 2).sum())
        assert variance == s / 2.0

    def test_rejects_scale_zero(self):
        with pytest.raises(ValueError):
            binomial_kernel(0)

    def test_validation_catches_bad_taps(self):
        with pytest.raises(ValueError):
            LowPassKernel((0.5, 0.6), 0)  # wrong length
        with pytest.raises(ValueError):
            LowPassKernel((0.2, 0.5, 0.2), 1)  # sums to 0.9


class TestDerivativeKernel:
    def test_scale_one_is_plain_difference(self):
        kernel = derivative_kernel(1)
        npt.assert_array_equal(kernel.taps, [1.0, -1.0])
        assert kernel.anchor == 0

    def test_scale_two_matches_rescaled_convolution(self):
        # oracle: convolve the binomial taps with [1, -1], rescale l1 to 2
        raw = np.convolve(np.array([1, 4, 6, 4, 1]) / 16.0, [1.0, -1.0])
        expected = raw * (2.0 / np.abs(raw).sum())
        kernel = derivative_kernel(2)
        npt.assert_allclose(kernel.taps, expected, atol=1e-15)
        npt.assert_allclose(kernel.taps, np.array([1, 3, 2, -2, -3, -1]) / 6.0,
                            atol=1e-15)
        assert kernel.anchor == 2

    @pytest.mark.parametrize("s", SCALES)
    def test_zero_sum_and_l1_norm(self, s):
        taps = derivative_kernel(s).taps_array()
        assert abs(taps.sum()) <= 1e-12
        assert abs(np.abs(taps).sum() - 2.0) <= 1e-12

    @pytest.mark.parametrize("s", SCALES)
    def test_antisymmetric(self, s):
        taps = derivative_kernel(s).taps_array()
        npt.assert_allclose(taps, -taps[::-1], atol=1e-15)

    @pytest.mark.parametrize("s", (2, 4))
    def test_length_and_half_pixel_anchor(self, s):
        kernel = derivative_kernel(s)
        assert len(kernel.taps) == 2 * s + 2
        offsets = tap_offsets(kernel)
        assert offsets.max() == s and offsets.min() == -s - 1
        assert (offsets.max() + offsets.min()) / 2.0 == -0.5

    def test_validation_rejects_nonzero_sum(self):
        with pytest.raises(ValueError):
            DerivKernel((1.0, -0.5), 0)


def oracle_correlation(f, kernel):
    """Brute-force clamped correlation along Y, independent implementation."""
    taps = kernel.taps_array()
    h = f.shape[0]
    out = np.zeros_like(f)
    for y in range(h):
        for k, tap in enumerate(taps):
            yy = min(max(y + kernel.anchor - k, 0), h - 1)
            out[y] += tap * f[yy]
    return out


class TestAnisotropicGrad:
    """The scale-s Y operator; X derivatives are plain backward differences."""

    def test_constant_image_is_zero(self):
        f = np.full((8, 8), 1.5)
        npt.assert_allclose(yop(f, derivative_kernel(2)).apply(f), 0.0, atol=1e-15)

    @pytest.mark.parametrize("s", (1, 2, 4))
    def test_linear_ramp_response(self, s):
        # oracle: the ramp response is c * sum(tap * offset)
        kernel = derivative_kernel(s)
        c = 0.3
        f = c * np.arange(32.0)[:, None].repeat(4, axis=1)
        expected = c * float((kernel.taps_array() * tap_offsets(kernel)).sum())
        gy = yop(f, kernel).apply(f)
        interior = gy[s + 2 : 32 - s - 2]
        npt.assert_allclose(interior, expected, rtol=1e-12)
        # no X variation: the weights see the Y response alone
        npt.assert_array_equal(tv_weights(f, 1.0, yop(f, kernel)), 1.0 / (np.abs(gy) + 1.0))

    def test_random_matches_brute_force(self):
        rng = np.random.default_rng(31)
        f = rng.standard_normal((8, 8))
        kernel = derivative_kernel(2)
        gy = yop(f, kernel).apply(f)
        npt.assert_allclose(gy, oracle_correlation(f, kernel), rtol=1e-12, atol=1e-14)

    def test_x_only_image_has_zero_y_component(self):
        f = np.arange(6.0)[None, :].repeat(9, axis=0) ** 2
        gy = yop(f, derivative_kernel(2)).apply(f)
        npt.assert_allclose(gy, 0.0, atol=1e-13)


def central_fd(objective, f, step=1e-7):
    out = np.zeros_like(f)
    for idx in np.ndindex(f.shape):
        fp = f.copy()
        fp[idx] += step
        fm = f.copy()
        fm[idx] -= step
        out[idx] = (objective(fp) - objective(fm)) / (2 * step)
    return out


class TestSsatv1Gradient:
    def test_constant_image_is_zero(self):
        # rescaled taps are not exactly representable, and the smoothing
        # floor divides the ~1e-18 residue by 1e-8; anything below 1e-8 is a
        # vanished gradient (typical magnitudes are ~1)
        w = np.ones((8, 8))
        g = aniso_gradient(np.full((8, 8), 0.02), w, derivative_kernel(2))
        npt.assert_allclose(g, 0.0, atol=1e-8)

    @pytest.mark.parametrize("s", (2, 4))
    def test_matches_finite_differences(self, s):
        rng = np.random.default_rng(32 + s)
        kernel = derivative_kernel(s)
        for _ in range(10):
            f = rng.uniform(0.0, 0.04, (8, 8))
            w = aniso_weights(f, kernel)
            g = aniso_gradient(f, w, kernel)
            fd = central_fd(lambda arr: aniso_value(arr, w, kernel, DELTA_MU), f)
            assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-4

    def test_scale_one_equals_isotropic_gradient(self):
        rng = np.random.default_rng(33)
        f = rng.uniform(0.0, 0.04, (8, 8))
        w = update_weights(f, 5.0)
        npt.assert_array_equal(
            aniso_gradient(f, w, derivative_kernel(1)),
            tv_gradient(f, w, forward_diff_op(8), DELTA_MU),
        )

    def test_x_only_image_reduces_to_x_terms(self):
        f = np.arange(7.0)[None, :].repeat(8, axis=0) * 0.01
        kernel = derivative_kernel(2)
        w = aniso_weights(f, kernel)
        g = aniso_gradient(f, w, kernel)
        # with no Y variation the gradient is the pure-X expression
        delta = DELTA_MU
        gx = np.zeros_like(f)
        gx[:, 1:] = f[:, 1:] - f[:, :-1]
        ratio = w * gx / np.sqrt(gx * gx + delta * delta)
        expected = ratio.copy()
        expected[:, :-1] -= ratio[:, 1:]
        npt.assert_allclose(g, expected, rtol=1e-12, atol=1e-8)


def wtv_pass(f, steps, params):
    """The driver's wtv phase at 5 HU: weights from ``f``, then the loop."""
    out, _ = descent_steps(f, update_weights(f, 5.0), forward_diff_op(f.shape[0]),
                           steps, params, DELTA_MU)
    return out


class TestSsatv1Regularize:
    def test_scale_one_is_bitwise_wtv(self):
        rng = np.random.default_rng(34)
        f = rng.uniform(0.0, 0.04, (16, 16))
        params = LineSearchParams()
        a, _ = ssatv1_pass(f, 5.0, 1, 10, params)
        npt.assert_array_equal(a, wtv_pass(f, 10, params))

    def test_value_never_increases(self):
        rng = np.random.default_rng(35)
        f = rng.uniform(0.0, 0.04, (16, 16))
        kernel = derivative_kernel(2)
        w = aniso_weights(f, kernel)
        out, _ = ssatv1_pass(f, 5.0, 2, 10, LineSearchParams())
        assert aniso_value(out, w, kernel) <= aniso_value(f, w, kernel)

    def test_wide_stencil_damps_long_y_waves_faster(self):
        # horizontal streak surrogate: sinusoid along Y with an 8 px period;
        # band energy measured at that frequency after one pass
        height = 64
        y = np.arange(height)
        f = 0.02 + 4e-4 * np.sin(2 * np.pi * y / 8.0)[:, None].repeat(64, axis=1)

        def band_energy(img):
            spectrum = np.fft.rfft(img - img.mean(axis=0), axis=0)
            k = height // 8
            return float(np.sum(np.abs(spectrum[k - 1 : k + 2]) ** 2))

        params = LineSearchParams()
        wide, _ = ssatv1_pass(f, 5.0, 4, 10, params)
        plain = wtv_pass(f, 10, params)
        assert band_energy(wide) < band_energy(plain)
