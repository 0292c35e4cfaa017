import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latomo import tv
from latomo.core import MU_PER_HU
from latomo.ssatv1 import derivative_kernel, ssatv1_pass
from latomo.ssatv2 import make_pyramid_level, ssatv2_pass
from latomo.tv import (
    LineSearchParams,
    backtracking_line_search,
    descent_steps,
    forward_diff_op,
    normalize_direction,
    row_operator,
    tv_gradient,
    tv_value,
    tv_weights,
)

# smoothing floor tied to the default 5 HU reweighting floor, as in the driver
DELTA_MU = MU_PER_HU * 5.0


def iso_value(f, w, delta_mu=0.0):
    return tv_value(f, w, forward_diff_op(f.shape[0]), delta_mu)


def iso_gradient(f, w, delta_mu=DELTA_MU):
    return tv_gradient(f, w, forward_diff_op(f.shape[0]), delta_mu)


def iso_weights(f, eps_hu=5.0):
    return tv_weights(f, eps_hu, forward_diff_op(f.shape[0]))


def wtv_pass(f, eps_hu, steps, params):
    """The driver's wtv phase: weights from ``f``, then the descent loop."""
    out, _ = descent_steps(f, iso_weights(f, eps_hu), forward_diff_op(f.shape[0]),
                           steps, params, eps_hu)
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
        npt.assert_array_equal(iso_weights(f), 1.0 / self.EPS_MU)

    def test_linear_ramp_along_x(self):
        c = 0.7
        f = c * np.arange(6.0)[None, :].repeat(4, axis=0)
        w = iso_weights(f)
        npt.assert_allclose(w[:, 1:], 1.0 / (c + self.EPS_MU))
        npt.assert_array_equal(w[:, 0], 1.0 / self.EPS_MU)
        npt.assert_array_equal(forward_diff_op(4).apply(f), 0.0)

    def test_random_matches_oracle(self):
        rng = np.random.default_rng(21)
        f = rng.standard_normal((3, 3))
        ox, oy = oracle_grad(f)
        npt.assert_array_equal(forward_diff_op(3).apply(f), oy)
        npt.assert_array_equal(iso_weights(f),
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
    """The reweighting step: :func:`tv_weights` with the plain difference
    and the floor given in HU."""

    def test_constant_image_hits_cap(self):
        w = iso_weights(np.full((3, 3), 0.01))
        npt.assert_allclose(w, 1e4, rtol=1e-12)

    def test_gradient_equal_to_eps(self):
        eps_mu = MU_PER_HU * 5.0
        f = np.array([[0.0, eps_mu]])
        w = iso_weights(f)
        assert w[0, 1] == pytest.approx(1.0 / (2 * eps_mu), rel=1e-12)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(24)
        f = rng.uniform(0, 0.04, (5, 5))
        eps_mu = MU_PER_HU * 5.0
        gx, gy = oracle_grad(f)
        expected = 1.0 / (np.sqrt(gx**2 + gy**2) + eps_mu)
        npt.assert_allclose(iso_weights(f), expected, rtol=1e-12)

    def test_weights_bounded_by_cap(self):
        rng = np.random.default_rng(25)
        f = rng.uniform(0, 0.04, (6, 6))
        w = iso_weights(f)
        assert np.all(w > 0)
        assert np.all(w <= 1.0 / (MU_PER_HU * 5.0) + 1e-9)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            iso_weights(np.zeros((2, 2)), 0.0)


def _level_pass(f, eps_hu):
    return ssatv2_pass(f, make_pyramid_level(f, 2, 5.0), eps_hu, 1, LineSearchParams())


EPS_ENTRY_POINTS = {
    "tv_weights": lambda f, eps: tv_weights(f, eps, forward_diff_op(f.shape[0])),
    "descent_steps": lambda f, eps: descent_steps(
        f, iso_weights(f), forward_diff_op(f.shape[0]), 1, LineSearchParams(), eps),
    "ssatv1_pass": lambda f, eps: ssatv1_pass(f, eps, 2, 1, LineSearchParams()),
    "make_pyramid_level": lambda f, eps: make_pyramid_level(f, 2, eps),
    "ssatv2_pass": _level_pass,
}


@pytest.mark.parametrize("eps_hu", [0.0, -5.0, np.nan, np.inf], ids=repr)
@pytest.mark.parametrize("entry", sorted(EPS_ENTRY_POINTS))
def test_every_eps_entry_point_rejects_a_bad_floor(entry, eps_hu):
    # 0 and nan once returned the image unchanged after 0 steps, -5 ran
    f = np.random.default_rng(20).uniform(0.0, 0.04, (8, 8))
    with pytest.raises(ValueError, match="eps_hu"):
        EPS_ENTRY_POINTS[entry](f, eps_hu)


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
            w = iso_weights(f)
            g = iso_gradient(f, w, delta_mu)
            fd = central_fd(lambda arr: iso_value(arr, w, delta_mu), f)
            assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-4

    def test_tiny_floor_matches_plain_value_differences(self):
        # with a floor far below actual gradient magnitudes, finite
        # differences of the unsmoothed value agree as well
        rng = np.random.default_rng(261)
        f = rng.uniform(0.0, 0.04, (8, 8))
        w = iso_weights(f)
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
        w = iso_weights(f)
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

    @pytest.mark.parametrize("t0", [np.inf, np.nan], ids=repr)
    def test_rejects_non_finite_t0(self, t0):
        with pytest.raises(ValueError, match="t0"):
            LineSearchParams(t0=t0)

    @pytest.mark.parametrize("max_shrinks", [2.5, 3.0, True], ids=repr)
    def test_rejects_max_shrinks_that_is_not_an_integer(self, max_shrinks):
        with pytest.raises(ValueError, match="max_shrinks"):
            LineSearchParams(max_shrinks=max_shrinks)
        assert LineSearchParams(max_shrinks=np.int64(3)).max_shrinks == 3


class TestWtvRegularize:
    def test_constant_image_unchanged(self):
        f = np.full((6, 6), 0.02)
        out = wtv_pass(f, 5.0, 10, LineSearchParams())
        npt.assert_array_equal(out, f)

    def test_objective_never_increases(self):
        rng = np.random.default_rng(28)
        f = rng.uniform(0.0, 0.04, (12, 12))
        w = iso_weights(f)
        out = wtv_pass(f, 5.0, 10, LineSearchParams())
        assert iso_value(out, w) <= iso_value(f, w)

    def test_monotone_within_each_step(self):
        rng = np.random.default_rng(29)
        f = rng.uniform(0.0, 0.04, (10, 10))
        w = iso_weights(f)
        yop = forward_diff_op(10)
        params = LineSearchParams()
        previous = iso_value(f, w)
        for _ in range(10):
            f, _ = descent_steps(f, w, yop, 1, params, 5.0)
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


def cold_search(f, g, ghat, objective, params):
    """The line search as a plain scan down from t0, every search afresh."""
    slope = float(np.vdot(g, ghat))
    f0 = objective(f)
    t = params.t0
    for _ in range(params.max_shrinks + 1):
        if objective(f - t * ghat) <= f0 - params.alpha * t * slope:
            return t
        t *= params.beta
    return 0.0


def cold_descent(f, w, yop, steps, params, delta_mu, down=None):
    """The descent loop with every search a cold scan and every iterate and
    starting value recomputed."""
    objective = lambda arr: tv_value(arr, w, yop)
    accepted = []
    for _ in range(steps):
        f_s = f if down is None else down.apply(f)
        g = tv_gradient(f_s, w, yop, delta_mu)
        ghat, converged = normalize_direction(g)
        if converged:
            break
        t = cold_search(f_s, g, ghat, objective, params)
        if t == 0.0:
            break
        f = f - t * (ghat if down is None else down.apply_t(ghat))
        accepted.append(t)
    return f, accepted


def rung_of(t, params):
    """k with t == t0*beta^k, the product taken one factor at a time."""
    k, rung = 0, params.t0
    while rung != t:
        assert k < params.max_shrinks, t
        rung *= params.beta
        k += 1
    return k


def descent_case(name, n=32):
    """(image, weights, Y operator, down-sampler) of one regularizer's
    frozen-weight descent on a noisy disk above a step."""
    rng = np.random.default_rng(31)
    y, x = np.mgrid[:n, :n]
    f = np.where((x - n / 2) ** 2 + (y - n / 2) ** 2 < (n / 3) ** 2, 0.021, 0.0)
    f = f + np.where(y > 2 * n // 3, 0.005, 0.0) + rng.normal(0.0, 5e-4, f.shape)
    variant, _, scale = name.partition("-s")
    if variant == "wtv":
        return f, iso_weights(f), forward_diff_op(n), None
    if variant == "ssatv1":
        yop = row_operator(*derivative_kernel(int(scale)), n)
        return f, tv_weights(f, 5.0, yop), yop, None
    level = make_pyramid_level(f, int(scale), 5.0)
    return f, level.weights, forward_diff_op(level.sampler.shape[0]), level.sampler


DESCENT_CASES = ["wtv", "ssatv1-s2", "ssatv1-s8", "ssatv2-s2", "ssatv2-s4"]


class TestWarmStartedSearch:
    """Each search of a descent starts at the previous accepted rung and
    still returns the cold scan's step, bit for bit."""

    # f = 0 towards 1 along a unit direction: (t - 1)^2 passes the test with
    # alpha 0.3 for t <= 1.4, i.e. from rung 4 (10 * 0.6^4 = 1.296) on
    PARAMS = LineSearchParams(alpha=0.3, beta=0.6, t0=10.0, max_shrinks=30)

    @staticmethod
    def quadratic(evaluations):
        def objective(arr):
            evaluations.append(arr)
            return float((arr[0, 0] - 1.0) ** 2)
        f = np.array([[0.0]])
        g = np.array([[-2.0]])
        return f, g, normalize_direction(g)[0], objective

    @pytest.mark.parametrize("start", range(9))
    def test_every_start_finds_the_cold_rung(self, start):
        f, g, ghat, objective = self.quadratic([])
        step = backtracking_line_search(f, g, ghat, objective, self.PARAMS, start)
        assert step == cold_search(f, g, ghat, objective, self.PARAMS)
        assert step.rung == 4
        npt.assert_array_equal(step.trial, f - float(step) * ghat)
        assert step.value == objective(step.trial)

    def test_growing_four_rungs(self):
        evaluations = []
        f, g, ghat, objective = self.quadratic(evaluations)
        step = backtracking_line_search(f, g, ghat, objective, self.PARAMS, 8)
        assert step.rung == 4
        # f0, rungs 8..4 passing, rung 3 failing
        assert len(evaluations) == 1 + 5 + 1

    @pytest.mark.parametrize("start", [1, 5])
    def test_grown_rung_has_the_scan_bits(self, start):
        # 4e-4 * 0.7 / 0.7 != 4e-4: a rung grown by division would differ
        params = LineSearchParams(alpha=0.3, beta=0.7, t0=4e-4, max_shrinks=30)
        f, g, ghat, objective = self.quadratic([])
        step = backtracking_line_search(f, g, ghat, objective, params, start)
        assert float(step) == params.t0 and step.rung == 0

    @pytest.mark.parametrize("start", range(4))
    def test_failed_search_from_any_start(self, start):
        evaluations = []
        f, g, ghat, objective = self.quadratic(evaluations)
        params = LineSearchParams(alpha=0.3, beta=0.6, t0=10.0, max_shrinks=3)
        step = backtracking_line_search(f, g, ghat, objective, params, start, f0=1.0)
        # given f0, only rungs start..3 are evaluated
        assert len(evaluations) == 4 - start
        assert step == 0.0 == cold_search(f, g, ghat, objective, params)

    @pytest.mark.parametrize("case", DESCENT_CASES)
    @pytest.mark.parametrize("max_shrinks", [30, 1])
    def test_descent_matches_cold_scan(self, case, max_shrinks):
        f, w, yop, down = descent_case(case)
        params = LineSearchParams(max_shrinks=max_shrinks)
        got, got_steps = descent_steps(f, w, yop, 20, params, 5.0, down)
        want, want_steps = cold_descent(f, w, yop, 20, params, DELTA_MU, down)
        assert got_steps == want_steps
        npt.assert_array_equal(got, want)
        # with one shrink allowed, every case ends on a failed search
        assert (len(want_steps) < 20) == (max_shrinks == 1)

    def test_a_descent_step_grows_two_rungs(self):
        f, w, yop, down = descent_case("ssatv2-s4")
        params = LineSearchParams()
        _, accepted = descent_steps(f, w, yop, 20, params, 5.0, down)
        rungs = [rung_of(t, params) for t in accepted]
        assert any(a - b >= 2 for a, b in zip(rungs, rungs[1:])), rungs

    @pytest.mark.parametrize("case", DESCENT_CASES)
    def test_evaluations_per_search(self, case, monkeypatch):
        """A search costs one TV value per rung it tries, plus f0 when the
        iterate is not the previous accepted trial: a repeated rung costs 2
        values without a down-sampler and 3 with one."""
        per_search = []
        real_value, real_search = tv.tv_value, tv.backtracking_line_search

        def value(*args, **kwargs):
            per_search[-1] += 1
            return real_value(*args, **kwargs)

        def search(*args, **kwargs):
            per_search.append(0)
            return real_search(*args, **kwargs)

        monkeypatch.setattr(tv, "tv_value", value)
        monkeypatch.setattr(tv, "backtracking_line_search", search)
        f, w, yop, down = descent_case(case)
        params = LineSearchParams()
        _, accepted = descent_steps(f, w, yop, 20, params, 5.0, down)
        assert len(per_search) == len(accepted) == 20
        start, repeated = 0, []
        for i, (t, evaluations) in enumerate(zip(accepted, per_search)):
            k = rung_of(t, params)
            tried = k - start + 1 if k > start else start - k + 1 + (k > 0)
            assert evaluations == (i == 0 or down is not None) + tried
            if i and k == start > 0:
                repeated.append(evaluations)
            start = k
        assert repeated and set(repeated) == {2 if down is None else 3}
        cold = sum(2 + rung_of(t, params) for t in accepted)
        assert sum(per_search) < cold
