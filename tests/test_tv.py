import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latomo import tv
from latomo.core import MU_PER_HU, FanBeamGeometry, Sinogram
from latomo.driver import ReconConfig, run_reconstruction
from latomo.phantom import builtin_head_phantom, rasterize
from latomo.projector import Projector
from latomo.tv import (
    Buffers,
    Differences,
    LineSearchParams,
    _rung,
    backtracking_line_search,
    derivative_kernel,
    descent_steps,
    down_sampler,
    forward_diff_op,
    make_pyramid_level,
    normalize_direction,
    reweighted_value,
    row_operator,
    ssatv1_pass,
    ssatv2_pass,
    tv_gradient,
    tv_value,
    tv_weights,
)

from oracles import DELTA_MU, central_fd


def iso_value(f, w, delta_mu=0.0):
    return tv_value(f, w, forward_diff_op(f.shape[0]), delta_mu)


def iso_gradient(f, w, delta_mu=DELTA_MU):
    return tv_gradient(f, w, forward_diff_op(f.shape[0]), delta_mu)


def iso_weights(f, eps_hu=5.0):
    return tv_weights(f, eps_hu, forward_diff_op(f.shape[0]))


def wtv_pass(f, eps_hu, steps, params):
    """The driver's wtv phase: weights from ``f``, then the descent loop."""
    out, _ = descent_steps(f, forward_diff_op(f.shape[0]), steps, params, eps_hu)
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
        f, forward_diff_op(f.shape[0]), 1, LineSearchParams(), eps),
    "ssatv1_pass": lambda f, eps: ssatv1_pass(f, eps, 2, 1, LineSearchParams()),
    "make_pyramid_level": lambda f, eps: make_pyramid_level(f, 2, eps),
    "ssatv2_pass": _level_pass,
}


@pytest.mark.parametrize("eps_hu", [0.0, -5.0, np.nan, np.inf, 1e-200], ids=repr)
@pytest.mark.parametrize("entry", sorted(EPS_ENTRY_POINTS))
def test_every_eps_entry_point_rejects_a_bad_floor(entry, eps_hu):
    # 0 and nan once returned the image unchanged after 0 steps, -5 ran;
    # 1e-200's floor squares to 0.0, which once made every flat pixel 0/0
    f = np.random.default_rng(20).uniform(0.0, 0.04, (8, 8))
    with pytest.raises(ValueError, match="eps_hu"):
        EPS_ENTRY_POINTS[entry](f, eps_hu)


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
        out, steps = descent_steps(f, forward_diff_op(10), 10, LineSearchParams(), 5.0)
        assert len(steps) == 10
        values = [iso_value(f, w)] + [step.value for step in steps]
        assert all(b <= a for a, b in zip(values, values[1:])), values
        assert steps[-1].value == iso_value(out, w)

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
    down = down_sampler(n, int(scale))
    yop = forward_diff_op(down.shape[0])
    return f, tv_weights(down.apply(f), 5.0, yop), yop, down


DESCENT_CASES = ["wtv", "ssatv1-s2", "ssatv1-s8", "ssatv2-s2", "ssatv2-s4"]


class TestWarmStartedSearch:
    """Each search of a descent starts at a carried rung and still returns
    the cold scan's step, bit for bit."""

    # f = 0 towards 1 along a unit direction: (t - 1)^2 passes the test with
    # alpha 0.3 for t <= 1.4, i.e. from rung 4 (10 * 0.6^4 = 1.296) on
    PARAMS = LineSearchParams(alpha=0.3, beta=0.6, t0=10.0, max_shrinks=30)

    @staticmethod
    def quadratic(evaluations):
        def objective(arr):
            evaluations.append(arr.copy())
            return float((arr[0, 0] - 1.0) ** 2)
        f = np.array([[0.0]])
        g = np.array([[-2.0]])
        return f, g, normalize_direction(g)[0], objective

    @pytest.mark.parametrize("start", range(9))
    def test_every_start_finds_the_cold_rung(self, start):
        evaluations = []
        f, g, ghat, objective = self.quadratic(evaluations)
        step = backtracking_line_search(f, g, ghat, objective, self.PARAMS, start)
        assert step == cold_search(f, g, ghat, objective, self.PARAMS)
        assert step.rung == 4
        assert step.value == objective(f - float(step) * ghat)
        # evaluations[0] is f0; index counts the trials from 0
        npt.assert_array_equal(evaluations[1 + step.index], f - float(step) * ghat)

    def test_growing_four_rungs(self):
        evaluations = []
        f, g, ghat, objective = self.quadratic(evaluations)
        step = backtracking_line_search(f, g, ghat, objective, self.PARAMS, 8)
        assert step.rung == 4
        # f0, rungs 8..4 passing, rung 3 failing: the second-last trial
        assert len(evaluations) == 1 + 5 + 1
        assert step.index == 4

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
        # given f0, a failed search tries every rung once, rungs start..3
        # first and then the rungs above start from t0
        assert len(evaluations) == 4
        rungs = [round(np.log(float(e[0, 0]) / 10.0) / np.log(0.6)) for e in evaluations]
        assert rungs == [*range(start, 4), *range(start)]
        assert step == 0.0 == cold_search(f, g, ghat, objective, params)

    @pytest.mark.parametrize("start", [2, 3])
    def test_failed_start_rescans_from_t0(self, start):
        # only rung 1 passes: not convex, so no search from below it can
        # grow to it; it scans from t0 before giving up, as a cold scan does
        params = LineSearchParams(alpha=0.3, beta=0.5, t0=1.0, max_shrinks=4)
        passing = _rung(params, 1)
        objective = lambda arr: 0.0 if float(-arr[0, 0]) == passing else 1.0
        f, g = np.array([[0.0]]), np.array([[1.0]])
        step = backtracking_line_search(f, g, g, objective, params, start, f0=0.5)
        assert step.rung == 1 and float(step) == passing
        assert step.index == params.max_shrinks - start + 2
        assert float(step) == cold_search(f, g, g, lambda arr: (
            0.5 if arr is f else objective(arr)), params)

    def test_trials_written_into_the_given_buffer(self):
        # the buffer may be g itself: g is read only before the first trial
        f, g, ghat, objective = self.quadratic([])
        buffer, seen = g.copy(), []

        def tracked(arr):
            seen.append(arr is buffer)
            return objective(arr)

        step = backtracking_line_search(f, buffer, ghat, tracked, self.PARAMS, 6,
                                        f0=1.0, trial=buffer)
        assert step.rung == 4
        assert seen and all(seen)

    @pytest.mark.parametrize("start", [-1, 31])
    def test_start_outside_the_rungs_rejected(self, start):
        f, g, ghat, objective = self.quadratic([])
        with pytest.raises(ValueError, match="start must be in 0..30"):
            backtracking_line_search(f, g, ghat, objective, self.PARAMS, start)

    @pytest.mark.parametrize("case", DESCENT_CASES)
    @pytest.mark.parametrize("max_shrinks", [30, 1])
    def test_descent_matches_cold_scan(self, case, max_shrinks):
        f, w, yop, down = descent_case(case)
        params = LineSearchParams(max_shrinks=max_shrinks)
        want, want_steps = cold_descent(f, w, yop, 20, params, DELTA_MU, down)
        # with one shrink allowed, every case ends on a failed search
        assert (len(want_steps) < 20) == (max_shrinks == 1)
        for start in range(max_shrinks + 1):  # every rung a pass may carry
            got, got_steps = descent_steps(f, yop, 20, params, 5.0, down, start)
            assert got_steps == want_steps, start
            npt.assert_array_equal(got, want, err_msg=f"start {start}")

    @pytest.mark.parametrize("case", ["wtv", "ssatv1-s8"])
    def test_weights_taken_from_the_first_iterate(self, case):
        f, w, yop, down = descent_case(case)
        params = LineSearchParams()
        got = descent_steps(f, yop, 20, params, 5.0, down, 3)
        want = cold_descent(f, w, yop, 20, params, DELTA_MU, down)
        assert got[1] == want[1]
        npt.assert_array_equal(got[0], want[0])

    def test_a_descent_step_grows_two_rungs(self):
        f, w, yop, down = descent_case("ssatv2-s4")
        params = LineSearchParams()
        _, accepted = descent_steps(f, yop, 20, params, 5.0, down)
        rungs = [t.rung for t in accepted]
        assert any(a - b >= 2 for a, b in zip(rungs, rungs[1:])), rungs

    @pytest.mark.parametrize("case", DESCENT_CASES)
    def test_evaluations_per_search(self, case, monkeypatch):
        """A search costs one TV value per rung it tries, and nothing more:
        every starting value is shared, with the weights and the gradient of
        the first iterate, with the accepted trial or with the gradient of
        the re-sampled iterate.  The first search starts at the carried
        rung, each later one at the rung the step before accepted."""
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
        for carried in (0, 3, 9):
            per_search.clear()
            _, accepted = descent_steps(f, yop, 20, params, 5.0, down, carried)
            assert len(per_search) == len(accepted) == 20
            start = carried
            for t, evaluations in zip(accepted, per_search):
                k = t.rung
                assert t == _rung(params, k)
                tried = k - start + 1 if k > start else start - k + 1 + (k > 0)
                assert evaluations == tried, (carried, per_search)
                start = k
            cold = sum(2 + t.rung for t in accepted)
            assert sum(per_search) < cold

    def test_descent_leaves_its_input_alone(self):
        for case in DESCENT_CASES:
            f, w, yop, down = descent_case(case)
            kept = f.copy()
            out, accepted = descent_steps(f, yop, 5, LineSearchParams(), 5.0, down)
            assert accepted and not np.shares_memory(out, f)
            npt.assert_array_equal(f, kept)


class TestSharedDifferences:
    """The buffered forms give the bits of the allocating ones."""

    @pytest.mark.parametrize("width", [1, 2, 17])
    @pytest.mark.parametrize("operator", ["diff", "ssatv1-s4", "down-s4"])
    def test_product_into_a_buffer(self, operator, width):
        rng = np.random.default_rng(32)
        f = rng.normal(size=(19, width))
        f[3, 0] = -0.0
        if operator == "diff":
            op = forward_diff_op(19)
        elif operator == "ssatv1-s4":
            op = row_operator(*derivative_kernel(4), 19)
        else:
            op = down_sampler(19, 4)
        # scipy's own products of the operator's matrix and its transpose
        # are the reference
        want, want_back = op._mat @ f, op._mat.T @ (op._mat @ f)
        out = np.full((op.shape[0], width), np.nan)
        assert op.apply(f, out=out) is out
        back = np.full((op.shape[1], width), np.nan)
        assert op.apply_t(out, out=back) is back
        for got in (out, op.apply(f)):
            assert got.tobytes() == want.tobytes()  # sign bits included
        for got in (back, op.apply_t(out)):
            assert got.tobytes() == want_back.tobytes()

    def test_product_rejects_a_wrong_buffer(self):
        op = forward_diff_op(8)
        f = np.ones((8, 5))
        for out in (np.empty((8, 4)), np.empty((8, 5), dtype=np.float32),
                    np.empty((5, 8)).T):
            with pytest.raises(ValueError, match="out must be"):
                op.apply(f, out=out)

    @pytest.mark.parametrize("delta_mu", [0.0, DELTA_MU])
    def test_value_and_gradient_from_shared_differences(self, delta_mu):
        f, w, yop, _ = descent_case("ssatv1-s8")
        diffs = Differences(f.shape)
        trial = f.copy()
        assert (tv_value(trial, w, yop, delta_mu, diffs=diffs, scratch=np.empty_like(f))
                == tv_value(f, w, yop, delta_mu))
        out = np.empty_like(f)
        got = tv_gradient(f, w, yop, delta_mu, diffs=diffs, out=out)
        assert got is out
        npt.assert_array_equal(got, tv_gradient(f, w, yop, delta_mu))

    def test_reweighted_value(self):
        for case in ("wtv", "ssatv1-s2"):
            f, _, yop, _ = descent_case(case)
            for eps_hu in (5.0, 20.0):
                assert (reweighted_value(f, eps_hu, yop)
                        == tv_value(f, tv_weights(f, eps_hu, yop), yop))
        with pytest.raises(ValueError, match="eps_hu"):
            reweighted_value(f, 0.0, yop)

    def test_normalize_into_a_buffer(self):
        g = np.random.default_rng(33).normal(size=(6, 7))
        out = np.empty_like(g)
        got, converged = normalize_direction(g, out=out)
        assert got is out and not converged
        npt.assert_array_equal(got, g / np.max(np.abs(g)))
        zero = np.array([[0.0, -0.0]])
        got, converged = normalize_direction(zero, out=np.empty_like(zero))
        assert converged and not np.signbit(got).any()


# -- the buffer budget -----------------------------------------------------

def _peak_in_images(call, f):
    call()  # row operators are cached once per process; measure a warm call
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / f.nbytes


# Peaks in image-size arrays at 256^2.  An ssatv1 pass owns 11 (the iterate,
# gradient, direction, weights, the trials' scratch and two sets of three
# differences) and an ssatv2 pass at s = 4 owns 2 fine plus 6 quarter-size
# ones; the budgets leave room for numpy's small internal buffers, not for
# another image.
@pytest.mark.parametrize("scale", [1, 16])
def test_ssatv1_pass_buffer_budget(scale):
    f, *_ = descent_case("wtv", 256)
    kept = f.copy()
    peak = _peak_in_images(lambda: ssatv1_pass(f, 5.0, scale, 10, LineSearchParams()), f)
    assert peak <= 11.4
    npt.assert_array_equal(f, kept)


def test_ssatv2_pass_buffer_budget():
    f, *_ = descent_case("wtv", 256)
    kept = f.copy()
    level = make_pyramid_level(f, 4, 5.0)
    peak = _peak_in_images(lambda: ssatv2_pass(f, level, 5.0, 10, LineSearchParams()), f)
    assert peak <= 4.3
    npt.assert_array_equal(f, kept)


# -- run-owned buffers ------------------------------------------------------

def buffer_arrays(buffers):
    """Every array a :class:`Buffers` holds."""
    for made in buffers._made.values():
        if isinstance(made, Differences):
            yield from (made.dx, made.dy, made.sq)
        else:
            yield made


def schedule_passes(f, buffers=None):
    """An ssatv1 l5 schedule, an ssatv2 l3 schedule (coarse shapes 16, 32 and
    64 rows) and a wtv pass, each on the last one's image: every (image,
    accepted steps) pair in turn.  ``buffers`` goes to every call."""
    kw = {} if buffers is None else {"buffers": buffers}
    params, out = LineSearchParams(), []
    for scale, steps in ((16, 2), (8, 2), (4, 2), (2, 2), (1, 2)):
        f, accepted = ssatv1_pass(f, 5.0, scale, steps, params, 1, **kw)
        out.append((f, accepted))
    for scale, steps in ((4, 4), (2, 3), (1, 3)):
        level = make_pyramid_level(f, scale, 5.0)
        f, accepted = ssatv2_pass(f, level, 5.0, steps, params, 2, **kw)
        out.append((f, accepted))
    f, accepted = descent_steps(f, forward_diff_op(f.shape[0]), 10, params, 5.0,
                                start=3, **kw)
    out.append((f, accepted))
    return out


def test_one_set_of_buffers_serves_every_pass():
    """Passes given one set of buffers, reused down whole schedules of all
    three regularizers and again for a second round, return the bytes and
    steps of passes that make their own, and never return a buffer."""
    f, *_ = descent_case("wtv", 64)
    buffers = Buffers()
    for _ in range(2):
        want = schedule_passes(f)
        got = schedule_passes(f, buffers)
        for (image, accepted), (expected, expected_steps) in zip(got, want):
            assert image.tobytes() == expected.tobytes()
            assert accepted == expected_steps
            assert ([(t.rung, t.value, t.index) for t in accepted]
                    == [(t.rung, t.value, t.index) for t in expected_steps])
            assert not any(np.shares_memory(image, a) for a in buffer_arrays(buffers))
        f = got[-1][0]
    # one set per shape: 16, 32 and 64 rows of the sampled descents, and the
    # fine image's ``pulled``; nothing else was made
    shapes = {shape for _, shape in buffers._made}
    assert shapes == {(16, 64), (32, 64), (64, 64)}
    assert ("pulled", (16, 64)) not in buffers._made


def test_objective_in_the_run_buffers():
    f, *_ = descent_case("ssatv1-s2", 64)
    yop, buffers = forward_diff_op(64), Buffers()
    for eps_hu in (5.0, 20.0):
        assert (reweighted_value(f, eps_hu, yop, buffers=buffers)
                == reweighted_value(f, eps_hu, yop))
        npt.assert_array_equal(tv_weights(f, eps_hu, yop, buffers=buffers),
                               tv_weights(f, eps_hu, yop))
    assert len(buffers._made) == 2  # one set of differences and the weights


@pytest.mark.parametrize("case", ["ssatv1", "ssatv2"])
def test_a_pass_in_warm_buffers_allocates_only_its_result(case):
    """With the run's buffers already made, a pass allocates the image it
    returns and nothing else image-sized."""
    f, *_ = descent_case("wtv", 256)
    buffers = Buffers()
    if case == "ssatv1":
        call = lambda: ssatv1_pass(f, 5.0, 4, 10, LineSearchParams(), buffers=buffers)
    else:
        call = lambda: ssatv2_pass(f, make_pyramid_level(f, 4, 5.0), 5.0, 10,
                                   LineSearchParams(), buffers=buffers)
    assert _peak_in_images(call, f) <= 1.4


# -- whole runs against the cold reference --------------------------------

RUN_GEOMETRY = FanBeamGeometry(400.0, 200.0, 96, 1.6, 10.0, 170.0, 4.0)


@pytest.fixture(scope="module")
def run_scene():
    truth = rasterize(builtin_head_phantom(), 64, 64, 2.0)
    projector = Projector(RUN_GEOMETRY, 64, 64, 2.0)
    sino = Sinogram(RUN_GEOMETRY.num_views, RUN_GEOMETRY.detector_channels,
                    RUN_GEOMETRY.view_angles_deg(), projector.forward(truth.data))
    return projector, sino


def reference_run(config, sino, projector):
    """``run_reconstruction``'s loop, written with :func:`cold_descent`: every
    search a scan from t0, every weight, starting value and logged objective
    computed afresh."""
    f = np.zeros((config.height, config.width))
    yop1 = forward_diff_op(config.height)
    entries = ([(1, config.tv_steps)] if config.algorithm == "wtv"
               else config.schedule().entries)
    objectives = []
    for _ in range(config.iterations):
        for view in range(RUN_GEOMETRY.num_views):
            f = projector.sart_update_view(f, sino.data[view], view, config.relaxation)
        f = np.maximum(f, 0.0)
        for scale, steps in entries:
            if config.algorithm == "ssatv2":
                sampler = down_sampler(f.shape[0], scale)
                yop = forward_diff_op(sampler.shape[0])
                w = tv_weights(sampler.apply(f), config.eps_hu, yop)
                down = sampler if scale > 1 else None
            else:
                yop, down = row_operator(*derivative_kernel(scale), f.shape[0]), None
                w = tv_weights(f, config.eps_hu, yop)
            f, _ = cold_descent(f, w, yop, steps, config.line_search, DELTA_MU, down)
        f = np.maximum(f, 0.0)
        objectives.append(tv_value(f, tv_weights(f, config.eps_hu, yop1), yop1))
    return f, objectives


@pytest.mark.parametrize("algorithm, levels", [("wtv", 1), ("ssatv1", 3), ("ssatv2", 3)])
def test_run_matches_the_cold_reference(run_scene, algorithm, levels):
    projector, sino = run_scene
    config = ReconConfig(algorithm, RUN_GEOMETRY, 64, 64, 2.0, levels=levels,
                         iterations=6)
    image, log = run_reconstruction(config, sino, projector=projector)
    want, objectives = reference_run(config, sino, projector)
    npt.assert_array_equal(image.data, want)
    assert [row.objective for row in log.rows] == objectives


@pytest.mark.parametrize("algorithm, levels", [("wtv", 1), ("ssatv1", 3), ("ssatv2", 3)])
def test_run_carries_each_entry_first_rung(run_scene, algorithm, levels, monkeypatch):
    """The first search of each pass starts at the rung the same schedule
    entry's first search accepted one outer iteration before, and a new run
    starts again at rung 0."""
    projector, sino = run_scene
    searches, real_search = [], tv.backtracking_line_search

    def search(*args, **kwargs):
        step = real_search(*args, **kwargs)
        searches.append((args[5], step.rung))
        return step

    monkeypatch.setattr(tv, "backtracking_line_search", search)
    # a t0 ten times the default puts the first rungs at 3..6 on this scene
    config = ReconConfig(algorithm, RUN_GEOMETRY, 64, 64, 2.0, levels=levels,
                         iterations=4, line_search=LineSearchParams(t0=4e-3))
    entries = 1 if algorithm == "wtv" else levels
    for _ in range(2):
        searches.clear()
        _, log = run_reconstruction(config, sino, projector=projector)
        sizes = [row.step_sizes for row in log.rows]
        assert all(len(s) == config.tv_steps for s in sizes)
        budgets = ([config.tv_steps] if algorithm == "wtv"
                   else [m for _, m in config.schedule().entries])
        firsts = np.cumsum([0] + budgets[:-1])
        for n in range(config.iterations):
            done = n * config.tv_steps
            for entry in range(entries):
                start, _ = searches[done + firsts[entry]]
                want = 0 if n == 0 else searches[done - config.tv_steps + firsts[entry]][1]
                assert start == want
        assert all(start > 0 for start, _ in searches[config.tv_steps::config.tv_steps])
