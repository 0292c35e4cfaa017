from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from latomo.core import FanBeamGeometry, Sinogram
from latomo.driver import (
    CSV_HEADER,
    ConvergenceLog,
    ReconConfig,
    ScaleSchedule,
    make_scale_schedule,
    run_reconstruction,
)
from latomo.phantom import builtin_head_phantom, rasterize, roi_rect_for_grid
from latomo.projector import Projector

GEOM = FanBeamGeometry(400.0, 200.0, 96, 1.6, 10.0, 170.0, 4.0)


@pytest.fixture(scope="module")
def small_scene():
    truth = rasterize(builtin_head_phantom(), 64, 64, 2.0)
    projector = Projector(GEOM, 64, 64, 2.0)
    sino = Sinogram(GEOM.num_views, GEOM.detector_channels,
                    GEOM.view_angles_deg(), projector.forward(truth.data))
    roi = roi_rect_for_grid(builtin_head_phantom().roi_mm, 64, 64, 2.0)
    return truth, projector, sino, roi


def config(algorithm, iterations=5, levels=1, **kw):
    return ReconConfig(algorithm=algorithm, geometry=GEOM, width=64, height=64,
                       pixel_size=2.0, iterations=iterations, levels=levels, **kw)


class TestScaleSchedule:
    def test_builtin_budgets(self):
        assert make_scale_schedule(1).entries == ((1, 10),)
        assert make_scale_schedule(2).entries == ((2, 5), (1, 5))
        assert make_scale_schedule(3).entries == ((4, 4), (2, 3), (1, 3))
        assert make_scale_schedule(4).entries == ((8, 2), (4, 2), (2, 3), (1, 3))
        assert make_scale_schedule(5).entries == ((16, 2), (8, 2), (4, 2), (2, 2), (1, 2))

    def test_one_level_takes_any_step_count(self):
        for steps in (1, 7, 10, 23):
            assert make_scale_schedule(1, steps).entries == ((1, steps),)
        with pytest.raises(ValueError, match="total_steps=10"):
            make_scale_schedule(2, 7)

    def test_budgets_sum_to_total(self):
        for l_max in range(1, 6):
            assert make_scale_schedule(l_max).total_steps == 10

    def test_custom_budget_must_sum(self):
        with pytest.raises(ValueError, match="budgets"):
            make_scale_schedule(3, total_steps=10, budgets=(4, 3, 2))
        schedule = make_scale_schedule(3, total_steps=9, budgets=(4, 3, 2))
        assert schedule.entries == ((4, 4), (2, 3), (1, 2))

    def test_custom_budget_length_checked(self):
        with pytest.raises(ValueError, match="budgets"):
            make_scale_schedule(2, budgets=(10,))

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            make_scale_schedule(6)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ScaleSchedule(((3, 5), (1, 5)))  # not a power of two
        with pytest.raises(ValueError):
            ScaleSchedule(((2, 5),))  # does not end at scale 1
        with pytest.raises(ValueError):
            ScaleSchedule(((2, 5), (2, 5), (1, 2)))  # not strictly decreasing


class TestReconConfig:
    def test_algorithm_checked(self):
        with pytest.raises(ValueError):
            config("fbp")

    def test_relaxation_checked(self):
        with pytest.raises(ValueError):
            config("sart", relaxation=1.5)

    def test_eps_checked(self):
        with pytest.raises(ValueError):
            config("wtv", eps_hu=0.0)

    @pytest.mark.parametrize("algorithm", ["wtv", "ssatv1", "ssatv2"])
    @pytest.mark.parametrize("steps", [0, -3])
    def test_tv_steps_checked(self, algorithm, steps):
        # a zero or negative budget used to run wtv as plain SART
        with pytest.raises(ValueError, match="tv_steps"):
            config(algorithm, tv_steps=steps)
        assert config("sart", tv_steps=steps).tv_steps == steps

    def test_schedule_checked_at_construction(self):
        with pytest.raises(ValueError, match="budgets"):
            config("ssatv1", levels=3, budgets=(5, 5))
        with pytest.raises(ValueError, match="budgets"):
            config("ssatv2", levels=2, tv_steps=9)
        with pytest.raises(ValueError, match="l_max"):
            config("ssatv2", levels=6)

    def test_ssatv2_pyramid_height_checked(self):
        # the coarsest scale must keep at least 2 rows: ceil(16 / 16) = 1
        with pytest.raises(ValueError, match=r"levels = 5 .*height = 16"):
            replace(config("ssatv2"), height=16, levels=5)
        with pytest.raises(ValueError, match=r"levels = 3 .*height = 4"):
            replace(config("ssatv2"), height=4, levels=3)
        assert replace(config("ssatv2"), height=17, levels=5).height == 17
        assert replace(config("ssatv2"), height=5, levels=3).height == 5
        assert replace(config("ssatv1"), height=16, levels=5).height == 16


class TestRunReconstruction:
    def test_deterministic(self, small_scene):
        truth, projector, sino, roi = small_scene
        cfg = config("ssatv2", iterations=3, levels=2)
        img_a, log_a = run_reconstruction(cfg, sino, projector=projector)
        img_b, log_b = run_reconstruction(cfg, sino, projector=projector)
        npt.assert_array_equal(img_a.data, img_b.data)
        assert [r.objective for r in log_a.rows] == [r.objective for r in log_b.rows]

    def test_degeneracy_chain_bitwise(self, small_scene):
        truth, projector, sino, roi = small_scene
        for eps_hu, tv_steps in ((5.0, 10), (20.0, 10), (5.0, 7)):
            images = {}
            for algorithm in ("wtv", "ssatv1", "ssatv2"):
                cfg = config(algorithm, iterations=4, levels=1, eps_hu=eps_hu,
                             tv_steps=tv_steps)
                images[algorithm], _ = run_reconstruction(cfg, sino, projector=projector)
            npt.assert_array_equal(images["wtv"].data, images["ssatv1"].data)
            npt.assert_array_equal(images["wtv"].data, images["ssatv2"].data)

    def test_nonnegative_after_every_iteration(self, small_scene):
        truth, projector, sino, roi = small_scene
        minima = []
        cfg = config("wtv", iterations=4)
        run_reconstruction(cfg, sino, projector=projector,
                           on_iteration=lambda n, f: minima.append(f.min()))
        assert len(minima) == 4
        assert min(minima) >= 0.0

    def test_error_decreases_from_start(self, small_scene):
        truth, projector, sino, roi = small_scene
        cfg = config("wtv", iterations=8)
        _, log = run_reconstruction(cfg, sino, reference=truth, roi=roi,
                                    projector=projector)
        series = log.roi_rmse_series()
        assert series[-1] < series[0]

    def test_sart_reaches_small_residual_on_full_coverage(self):
        # ample angular coverage and consistent data: the data term alone
        # must fit the sinogram closely
        geom = FanBeamGeometry(400.0, 200.0, 48, 3.2, 0.0, 200.0, 5.0)
        truth = rasterize(builtin_head_phantom(), 32, 32, 4.0)
        projector = Projector(geom, 32, 32, 4.0)
        p = projector.forward(truth.data)
        sino = Sinogram(geom.num_views, geom.detector_channels,
                        geom.view_angles_deg(), p)
        cfg = ReconConfig(algorithm="sart", geometry=geom, width=32, height=32,
                          pixel_size=4.0, iterations=50)
        img, _ = run_reconstruction(cfg, sino, projector=projector)
        residual = np.linalg.norm(projector.forward(img.data) - p)
        assert residual / np.linalg.norm(p) < 0.10

    def test_reference_enables_rmse_columns(self, small_scene):
        truth, projector, sino, roi = small_scene
        cfg = config("sart", iterations=2)
        _, log_bare = run_reconstruction(cfg, sino, projector=projector)
        assert log_bare.rows[0].roi_rmse_hu is None
        assert log_bare.rows[0].full_rmse_hu is None
        _, log_full = run_reconstruction(cfg, sino, reference=truth, roi=roi,
                                         projector=projector)
        assert log_full.rows[0].roi_rmse_hu is not None

    def test_sinogram_mismatch_rejected(self, small_scene):
        truth, projector, sino, roi = small_scene
        bad = Sinogram(2, GEOM.detector_channels, np.array([0.0, 1.0]),
                       np.zeros((2, GEOM.detector_channels)))
        with pytest.raises(ValueError, match="views"):
            run_reconstruction(config("sart"), bad, projector=projector)
        # 1e-4 degrees is inside allclose's default rtol at 170 degrees
        shifted = Sinogram(sino.num_views, sino.num_channels, sino.view_angles + 1e-4,
                           sino.data)
        with pytest.raises(ValueError, match="view angles"):
            run_reconstruction(config("sart"), shifted, projector=projector)

    def test_mismatched_prebuilt_projector_rejected(self, small_scene):
        truth, projector, sino, roi = small_scene
        # a 2 mm projector under a 4 mm config once returned mu up to 1 mm^-1
        cfg = ReconConfig(algorithm="sart", geometry=GEOM, width=64, height=64,
                          pixel_size=4.0, iterations=5)
        with pytest.raises(ValueError, match="pixel_size"):
            run_reconstruction(cfg, sino, projector=projector)
        with pytest.raises(ValueError, match="origin"):
            run_reconstruction(config("sart", origin=(2.0, 0.0)), sino,
                               projector=projector)
        for field, geom in (
            ("detector_channels", replace(GEOM, detector_channels=95)),
            ("view angles", replace(GEOM, angle_start=12.0, angle_end=172.0)),
        ):
            cfg = ReconConfig(algorithm="sart", geometry=geom, width=64, height=64,
                              pixel_size=2.0, iterations=5)
            data = Sinogram(geom.num_views, geom.detector_channels,
                            geom.view_angles_deg(),
                            np.zeros((geom.num_views, geom.detector_channels)))
            with pytest.raises(ValueError, match=field):
                run_reconstruction(cfg, data, projector=projector)

    def test_non_finite_sinogram_rejected(self, small_scene):
        truth, projector, sino, roi = small_scene
        data = sino.data.copy()
        data[3, 40] = np.nan
        bad = Sinogram(sino.num_views, sino.num_channels, sino.view_angles, data)
        with pytest.raises(ValueError, match="non-finite"):
            run_reconstruction(config("sart"), bad, projector=projector)

    def test_budget_flows_into_schedule(self, small_scene):
        truth, projector, sino, roi = small_scene
        cfg = config("ssatv1", iterations=1, levels=2, tv_steps=6, budgets=(3, 3))
        _, log = run_reconstruction(cfg, sino, projector=projector)
        assert len(log.rows[0].step_sizes) <= 6


class TestConvergenceLog:
    def test_csv_header_and_rows(self, small_scene, tmp_path):
        truth, projector, sino, roi = small_scene
        cfg = config("wtv", iterations=3)
        _, log = run_reconstruction(cfg, sino, reference=truth, roi=roi,
                                    projector=projector)
        path = tmp_path / "log.csv"
        log.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) > 0  # roi rmse
        assert first[4] == str(len(log.rows[0].step_sizes))

    def test_empty_rmse_cells_without_reference(self, small_scene, tmp_path):
        truth, projector, sino, roi = small_scene
        cfg = config("sart", iterations=2)
        _, log = run_reconstruction(cfg, sino, projector=projector)
        text = log.to_csv()
        assert text.splitlines()[1].split(",")[1] == ""
