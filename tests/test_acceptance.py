"""Acceptance suite: one test per criterion, each printing a PASS line.

The desk-scale reconstruction fixtures (criteria 5-7, marked ``desk``)
dominate the runtime at roughly 15-25 minutes total; run them with

    pytest tests/test_acceptance.py -v -s

and skip them with ``-m "not desk"``.
"""

import numpy as np
import numpy.testing as npt
import pytest

from latomo.core import FanBeamGeometry, MU_PER_HU, Sinogram
from latomo.driver import ReconConfig, run_reconstruction
from latomo.phantom import (
    NoiseSpec,
    add_poisson_noise,
    builtin_head_phantom,
    rasterize,
    roi_rect_for_grid,
)
from latomo.projector import Projector
from latomo.ssatv1 import binomial_kernel, derivative_kernel, y_operator
from latomo.ssatv2 import down_sampler
from latomo.tv import forward_diff_op, tv_gradient, tv_value, tv_weights, update_weights

DESK_SIZE = 256
DESK_PIXEL = 1.0
DESK_ITERATIONS = 200
NOISE_PHOTONS = 5e6
NOISE_SEED = 42
# gradient smoothing floor tied to the default 5 HU reweighting floor
DELTA_MU = MU_PER_HU * 5.0


def ok(message):
    print(f"\nACCEPTANCE PASS: {message}")


# ---------------------------------------------------------------------------
# criterion 1: operator correctness
# ---------------------------------------------------------------------------

class TestCriterion1Operators:
    def test_projector_adjoint(self):
        geom = FanBeamGeometry(400.0, 200.0, 16, 8.0, 0.0, 180.0, 12.0)
        proj = Projector(geom, 32, 32, 4.0)
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(20):
            view = int(rng.integers(0, geom.num_views))
            f = rng.standard_normal((32, 32))
            q = rng.standard_normal(16)
            af = proj.forward_view(f, view)
            atq = proj.backproject_view(q, view)
            gap = abs(float(af @ q) - float((f * atq).sum()))
            worst = max(worst, gap / (np.linalg.norm(af) * np.linalg.norm(q)))
        assert worst < 1e-5
        ok(f"projector adjoint, 20 trials, worst rel discrepancy {worst:.2e} < 1e-5")

    def test_sampler_adjoint_exact(self):
        rng = np.random.default_rng(102)
        worst = 0.0
        for s in (1, 2, 4, 8):
            for height in (16, 27):
                down = down_sampler(height, s)
                f = rng.standard_normal((height, 6))
                g = rng.standard_normal((-(-height // s), 6))
                lhs = float((down.apply(f) * g).sum())
                rhs = float((f * down.apply_t(g)).sum())
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-30))
        assert worst < 1e-12
        ok(f"sampler adjoint exact for s in {{1,2,4,8}}, worst rel gap {worst:.2e} < 1e-12")

    def test_sart_matches_dense_oracle(self):
        geom = FanBeamGeometry(400.0, 200.0, 16, 8.0, 0.0, 180.0, 12.0)
        proj = Projector(geom, 8, 8, 16.0)
        view = 7
        mat = np.stack(
            [
                proj.forward_view(np.eye(64)[k].reshape(8, 8), view)
                for k in range(64)
            ],
            axis=1,
        )
        rng = np.random.default_rng(103)
        f = rng.uniform(0.0, 0.04, (8, 8))
        p_view = proj.forward_view(f, view) * rng.uniform(0.9, 1.1, 16)
        row_sums = mat.sum(axis=1)
        col_sums = mat.sum(axis=0)
        scaled = np.divide(p_view - mat @ f.ravel(), row_sums,
                           out=np.zeros(16), where=row_sums > 0)
        expected = f.ravel() + 0.8 * np.divide(
            mat.T @ scaled, col_sums, out=np.zeros(64), where=col_sums > 0
        )
        got = proj.sart_update_view(f, p_view, view, 0.8).ravel()
        npt.assert_allclose(got, expected, rtol=1e-10, atol=1e-16)
        ok("single-view SART equals dense-matrix evaluation to 1e-10")


# ---------------------------------------------------------------------------
# criterion 2: gradient suite
# ---------------------------------------------------------------------------

def central_fd(objective, f, step=1e-7):
    out = np.zeros_like(f)
    for idx in np.ndindex(f.shape):
        fp = f.copy()
        fp[idx] += step
        fm = f.copy()
        fm[idx] -= step
        out[idx] = (objective(fp) - objective(fm)) / (2 * step)
    return out


class TestCriterion2Gradients:
    def test_wtv_gradient(self):
        rng = np.random.default_rng(201)
        worst = 0.0
        for _ in range(10):
            f = rng.uniform(0.0, 0.04, (8, 8))
            w = update_weights(f, 5.0)
            yop = forward_diff_op(8)
            g = tv_gradient(f, w, yop, DELTA_MU)
            fd = central_fd(lambda arr: tv_value(arr, w, yop, DELTA_MU), f)
            worst = max(worst, np.linalg.norm(g - fd) / np.linalg.norm(fd))
        assert worst < 1e-4
        ok(f"wtv gradient vs finite differences, worst rel L2 {worst:.2e} < 1e-4")

    @pytest.mark.parametrize("s", (2, 4))
    def test_ssatv1_gradient(self, s):
        rng = np.random.default_rng(202 + s)
        yop = y_operator(derivative_kernel(s), 8)
        worst = 0.0
        for _ in range(10):
            f = rng.uniform(0.0, 0.04, (8, 8))
            w = tv_weights(f, MU_PER_HU * 5.0, yop)
            g = tv_gradient(f, w, yop, DELTA_MU)
            fd = central_fd(lambda arr: tv_value(arr, w, yop, DELTA_MU), f)
            worst = max(worst, np.linalg.norm(g - fd) / np.linalg.norm(fd))
        assert worst < 1e-4
        ok(f"scale-{s} anisotropic gradient vs finite differences, "
           f"worst rel L2 {worst:.2e} < 1e-4")

    @pytest.mark.parametrize("s", (2, 4))
    def test_composite_downsampled_gradient(self, s):
        rng = np.random.default_rng(205 + s)
        down = down_sampler(8, s)
        worst = 0.0
        for _ in range(10):
            f = rng.uniform(0.0, 0.04, (8, 8))
            f_d = down.apply(f)
            w_d = update_weights(f_d, 5.0)
            yop = forward_diff_op(f_d.shape[0])
            composite = down.apply_t(tv_gradient(f_d, w_d, yop, DELTA_MU))
            fd = central_fd(
                lambda arr: tv_value(down.apply(arr), w_d, yop, DELTA_MU), f
            )
            worst = max(worst, np.linalg.norm(composite - fd) / np.linalg.norm(fd))
        assert worst < 1e-4
        ok(f"pull-back composite gradient (s={s}) vs finite differences, "
           f"worst rel L2 {worst:.2e} < 1e-4")


# ---------------------------------------------------------------------------
# criterion 3: kernel suite
# ---------------------------------------------------------------------------

class TestCriterion3Kernels:
    def test_binomial_family(self):
        for s in (1, 2, 4, 8, 16):
            kernel = binomial_kernel(s)
            taps = kernel.taps_array()
            assert taps.sum() == 1.0
            npt.assert_array_equal(taps, taps[::-1])
            j = np.arange(taps.size)
            assert float((taps * (j - s) ** 2).sum()) == s / 2.0
        ok("binomial kernels s in {1,2,4,8,16}: unit sum, symmetric, variance s/2")

    def test_derivative_family(self):
        for s in (1, 2, 4, 8, 16):
            taps = derivative_kernel(s).taps_array()
            assert abs(taps.sum()) <= 1e-12
            assert abs(np.abs(taps).sum() - 2.0) <= 1e-12
        npt.assert_allclose(
            derivative_kernel(2).taps,
            np.array([1, 3, 2, -2, -3, -1]) / 6.0,
            atol=1e-15,
        )
        ok("derivative kernels: zero sum, l1 norm 2; s=2 equals [1,3,2,-2,-3,-1]/6")


# ---------------------------------------------------------------------------
# desk-scale scene shared by criteria 4-7
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_scene():
    geom = FanBeamGeometry(1088.0, 544.0, 384, 1.0, 10.0, 170.0, 1.0)
    spec = builtin_head_phantom()
    truth = rasterize(spec, DESK_SIZE, DESK_SIZE, DESK_PIXEL)
    roi = roi_rect_for_grid(spec.roi_mm, DESK_SIZE, DESK_SIZE, DESK_PIXEL)
    projector = Projector(geom, DESK_SIZE, DESK_SIZE, DESK_PIXEL)
    clean = Sinogram(geom.num_views, geom.detector_channels,
                     geom.view_angles_deg(), projector.forward(truth.data))
    return geom, truth, roi, projector, clean


def desk_config(geom, algorithm, levels=1, iterations=DESK_ITERATIONS):
    return ReconConfig(algorithm=algorithm, geometry=geom, width=DESK_SIZE,
                       height=DESK_SIZE, pixel_size=DESK_PIXEL, levels=levels,
                       iterations=iterations)


@pytest.fixture(scope="module")
def desk_runs(desk_scene):
    """Noiseless 200-iteration runs: wtv plus both variants at levels 2-5."""
    geom, truth, roi, projector, clean = desk_scene
    runs = {}
    for algorithm, levels in [("wtv", 1)] + [
        (alg, lv) for alg in ("ssatv1", "ssatv2") for lv in (2, 3, 4, 5)
    ]:
        key = "wtv" if algorithm == "wtv" else f"{algorithm}_l{levels}"
        cfg = desk_config(geom, algorithm, levels)
        _, log = run_reconstruction(cfg, clean, reference=truth, roi=roi,
                                    projector=projector)
        runs[key] = log.roi_rmse_series()
    return runs


@pytest.fixture(scope="module")
def noisy_runs(desk_scene):
    """Seed-fixed Poisson runs for every algorithm, with per-iteration minima."""
    geom, truth, roi, projector, clean = desk_scene
    noisy = add_poisson_noise(clean, NoiseSpec(NOISE_PHOTONS, NOISE_SEED))
    runs = {}
    for algorithm, levels in (("sart", 1), ("wtv", 1), ("ssatv1", 3), ("ssatv2", 3)):
        minima = []
        cfg = desk_config(geom, algorithm, levels)
        _, log = run_reconstruction(
            cfg, noisy, reference=truth, roi=roi, projector=projector,
            on_iteration=lambda n, f: minima.append(float(f.min())),
        )
        runs[algorithm] = (log.roi_rmse_series(), minima)
    return runs


# ---------------------------------------------------------------------------
# criterion 4: degeneracy chain
# ---------------------------------------------------------------------------

class TestCriterion4Degeneracy:
    def test_bitwise_equivalence_64(self):
        geom = FanBeamGeometry(400.0, 200.0, 96, 1.6, 10.0, 170.0, 4.0)
        truth = rasterize(builtin_head_phantom(), 64, 64, 2.0)
        projector = Projector(geom, 64, 64, 2.0)
        sino = Sinogram(geom.num_views, geom.detector_channels,
                        geom.view_angles_deg(), projector.forward(truth.data))
        for eps_hu in (5.0, 20.0):
            images = {}
            for algorithm in ("wtv", "ssatv1", "ssatv2"):
                cfg = ReconConfig(algorithm=algorithm, geometry=geom, width=64,
                                  height=64, pixel_size=2.0, eps_hu=eps_hu,
                                  levels=1, iterations=10)
                img, _ = run_reconstruction(cfg, sino, projector=projector)
                images[algorithm] = img.data
            npt.assert_array_equal(images["wtv"], images["ssatv1"])
            npt.assert_array_equal(images["wtv"], images["ssatv2"])
        ok("wtv = ssatv1(l=1) = ssatv2(s=1, delta kernel) bit for bit, "
           "64x64, 10 iterations, eps 5 and 20 HU")


# ---------------------------------------------------------------------------
# criterion 5: desk-scale convergence ordering
# ---------------------------------------------------------------------------

@pytest.mark.desk
class TestCriterion5Ordering:
    def test_a_ssatv2_l3_beats_wtv_by_ten_percent(self, desk_runs):
        wtv_final = desk_runs["wtv"][-1]
        ss2_final = desk_runs["ssatv2_l3"][-1]
        assert ss2_final < 0.9 * wtv_final
        ok(f"final ROI RMSE ssatv2(l=3) {ss2_final:.3f} HU < 90% of "
           f"wtv {wtv_final:.3f} HU")

    def test_b_ssatv1_no_slower_than_wtv_at_100(self, desk_runs):
        wtv_100 = desk_runs["wtv"][99]
        values = {}
        for levels in (2, 3, 4, 5):
            values[levels] = desk_runs[f"ssatv1_l{levels}"][99]
            assert values[levels] <= wtv_100, f"l_max={levels}"
        summary = ", ".join(f"l{lv}={v:.2f}" for lv, v in values.items())
        ok(f"ssatv1 at iteration 100 ({summary}) all <= wtv {wtv_100:.2f} HU")

    def test_c_ssatv2_final_monotone_in_levels(self, desk_runs):
        finals = [desk_runs[f"ssatv2_l{lv}"][-1] for lv in (2, 3, 4, 5)]
        for a, b in zip(finals, finals[1:]):
            assert b <= a * (1 + 1e-9)
        ok("ssatv2 final ROI RMSE non-increasing in l_max: "
           + " >= ".join(f"{v:.3f}" for v in finals))


# ---------------------------------------------------------------------------
# criterion 6: noise robustness
# ---------------------------------------------------------------------------

@pytest.mark.desk
class TestCriterion6Noise:
    def test_a_ordering_holds_under_poisson(self, noisy_runs):
        wtv_final = noisy_runs["wtv"][0][-1]
        ss2_final = noisy_runs["ssatv2"][0][-1]
        assert ss2_final < 0.9 * wtv_final
        ok(f"with Poisson noise (5e6 photons): ssatv2(l=3) {ss2_final:.3f} HU "
           f"< 90% of wtv {wtv_final:.3f} HU")

    def test_b_nonnegativity_every_iteration(self, noisy_runs):
        for algorithm, (_, minima) in noisy_runs.items():
            assert len(minima) == DESK_ITERATIONS
            assert min(minima) >= 0.0, algorithm
        ok("min(f) >= 0 after every iteration for sart, wtv, ssatv1, ssatv2")


# ---------------------------------------------------------------------------
# criterion 7: SART sanity
# ---------------------------------------------------------------------------

@pytest.mark.desk
class TestCriterion7Sart:
    def test_residual_below_ten_percent(self, desk_scene):
        geom, truth, roi, projector, clean = desk_scene
        cfg = desk_config(geom, "sart", iterations=50)
        img, _ = run_reconstruction(cfg, clean, projector=projector)
        residual = np.linalg.norm(projector.forward(img.data) - clean.data)
        rel = residual / np.linalg.norm(clean.data)
        assert rel < 0.10
        ok(f"SART 50-iteration sinogram residual {rel:.4f} < 0.10")
