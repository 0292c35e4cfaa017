from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latomo import driver, tv
from latomo.core import FanBeamGeometry, ParameterError, Sinogram
from latomo.driver import (
    CSV_HEADER,
    ConvergenceLog,
    ReconConfig,
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
            assert sum(m for _, m in make_scale_schedule(l_max).entries) == 10

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

    def test_budgets_must_be_positive(self):
        with pytest.raises(ValueError, match="budgets: inner step counts"):
            make_scale_schedule(2, budgets=(0, 10))
        with pytest.raises(ValueError, match="budgets: inner step counts"):
            make_scale_schedule(1, 0)

    @settings(derandomize=True, max_examples=300)
    @given(budgets=st.none() | st.lists(st.integers(-2, 12), max_size=6),
           levels=st.none() | st.integers(-1, 7),
           total=st.none() | st.integers(-3, 25))
    def test_every_schedule_is_valid_or_rejected(self, budgets, levels, total):
        # None draws the value that matches the budgets
        if levels is None:
            levels = 1 if budgets is None else len(budgets)
        if total is None:
            total = 10 if budgets is None else sum(budgets)
        # oracle: which (levels, total, budgets) describe a runnable schedule
        if budgets is None:
            valid = (levels == 1 and total >= 1) or (2 <= levels <= 5 and total == 10)
        else:
            valid = (1 <= levels <= 5 and len(budgets) == levels
                     and min(budgets) >= 1 and sum(budgets) == total)
        if not valid:
            with pytest.raises(ValueError):
                make_scale_schedule(levels, total, budgets)
            return
        entries = make_scale_schedule(levels, total, budgets).entries
        scales = [s for s, _ in entries]
        steps = [m for _, m in entries]
        assert len(entries) == levels and scales[-1] == 1
        assert all(s & (s - 1) == 0 for s in scales)
        assert all(a > b for a, b in zip(scales, scales[1:]))
        assert min(steps) >= 1 and sum(steps) == total


class TestReconConfig:
    def test_algorithm_checked(self):
        with pytest.raises(ValueError):
            config("fbp")

    def test_relaxation_checked(self):
        with pytest.raises(ValueError):
            config("sart", relaxation=1.5)

    def test_eps_checked(self):
        # eps_hu = inf once ran 0 TV steps: the image equalled the sart run
        for eps_hu in (0.0, -5.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="eps_hu must be > 0 and finite"):
                config("wtv", eps_hu=eps_hu)

    def test_grid_checked(self):
        for field, value in (("width", 0), ("height", -2)):
            with pytest.raises(ValueError, match=f"{field} must be >= 1"):
                replace(config("sart"), **{field: value})
        for pixel_size in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="pixel_size must be > 0"):
                replace(config("sart"), pixel_size=pixel_size)

    @pytest.mark.parametrize("algorithm", ["wtv", "ssatv1", "ssatv2", "sart"])
    @pytest.mark.parametrize("steps", [0, -3])
    def test_tv_steps_checked(self, algorithm, steps):
        # a zero or negative budget used to run wtv as plain SART, and sart
        # once accepted it as a field it ignores
        with pytest.raises(ParameterError, match="tv_steps must be >= 1") as info:
            config(algorithm, tv_steps=steps)
        assert info.value.name == "tv_steps"

    @pytest.mark.parametrize("field, value, message", [
        ("levels", 4, "levels must be 1 for sart, got 4"),
        ("levels", 2, "levels must be 1 for sart, got 2"),
        ("budgets", (10,), r"budgets must be unset for sart, got \(10,\)"),
        ("budgets", (1, 2, 3, 4), "budgets must be unset for sart"),
    ])
    def test_sart_takes_no_schedule(self, field, value, message):
        # once accepted and ignored: sart ran no schedule whatever was set
        with pytest.raises(ParameterError, match=message) as info:
            config("sart", **{field: value})
        assert info.value.name == field
        assert config("sart").schedule().entries == ((1, 10),)

    def test_schedule_checked_at_construction(self):
        with pytest.raises(ValueError, match="budgets"):
            config("ssatv1", levels=3, budgets=(5, 5))
        with pytest.raises(ValueError, match="budgets"):
            config("ssatv2", levels=2, tv_steps=9)
        with pytest.raises(ValueError, match="levels"):
            config("ssatv2", levels=6)
        with pytest.raises(ValueError, match="budgets"):
            config("wtv", budgets=(5, 5))
        assert config("wtv", tv_steps=7, budgets=(7,)).schedule().entries == ((1, 7),)

    @pytest.mark.parametrize("levels, budgets", [(2, None), (4, (1, 2, 3, 4))])
    def test_wtv_takes_one_level(self, levels, budgets):
        # once accepted and ignored: wtv ran one entry of tv_steps regardless
        with pytest.raises(ParameterError, match="levels must be 1 for wtv") as info:
            config("wtv", levels=levels, budgets=budgets)
        assert info.value.name == "levels"
        assert config("wtv").schedule().entries == ((1, 10),)

    def test_ssatv2_pyramid_height_checked(self):
        # the coarsest scale must keep at least 2 rows: ceil(16 / 16) = 1
        with pytest.raises(ValueError, match=r"levels = 5 .*height = 16"):
            replace(config("ssatv2"), height=16, levels=5)
        with pytest.raises(ValueError, match=r"levels = 3 .*height = 4"):
            replace(config("ssatv2"), height=4, levels=3)
        assert replace(config("ssatv2"), height=17, levels=5).height == 17
        assert replace(config("ssatv2"), height=5, levels=3).height == 5
        assert replace(config("ssatv1"), height=16, levels=5).height == 16

    @pytest.mark.parametrize("algorithm", ["ssatv1", "ssatv2"])
    @pytest.mark.parametrize("start, end", [
        (-80.0, 80.0), (100.0, 260.0), (135.0, 135.0), (-45.0, 135.0),
    ])
    def test_streak_axis_checked(self, algorithm, start, end):
        # the scale-space variants widen along Y, the streak normal only of
        # scans whose mid-angle lies within 45 degrees of 90 (mod 180)
        geom = replace(GEOM, angle_start=start, angle_end=end)
        with pytest.raises(ValueError,
                           match=rf"angular range {start:g}\.\.{end:g} degrees"):
            replace(config(algorithm, levels=2), geometry=geom)
        for other in ("sart", "wtv"):
            assert replace(config(other), geometry=geom).geometry == geom

    @pytest.mark.parametrize("start, end", [
        (10.0, 170.0), (190.0, 350.0), (-42.0, 134.0), (46.0, 222.0), (90.0, 90.0),
    ])
    def test_streak_axis_accepts_ranges_centred_near_90(self, start, end):
        geom = replace(GEOM, angle_start=start, angle_end=end)
        for algorithm in ("ssatv1", "ssatv2"):
            assert replace(config(algorithm, levels=2), geometry=geom).geometry == geom


class TestRunReconstruction:
    def test_deterministic(self, small_scene):
        truth, projector, sino, roi = small_scene
        for algorithm in ("sart", "wtv", "ssatv1", "ssatv2"):
            cfg = config(algorithm, iterations=3, levels=1 if algorithm in ("sart", "wtv") else 3)
            img_a, log_a = run_reconstruction(cfg, sino, projector=projector)
            img_b, log_b = run_reconstruction(cfg, sino, projector=projector)
            npt.assert_array_equal(img_a.data, img_b.data, err_msg=algorithm)
            assert ([r.objective for r in log_a.rows]
                    == [r.objective for r in log_b.rows]), algorithm
            assert ([r.step_sizes for r in log_a.rows]
                    == [r.step_sizes for r in log_b.rows]), algorithm

    @pytest.mark.parametrize("algorithm, calls", [
        ("sart", set()),
        ("wtv", {"descent_steps"}),
        ("ssatv1", {"ssatv1_pass"}),
        ("ssatv2", {"ssatv2_pass"}),
    ])
    def test_one_set_of_buffers_per_run(self, small_scene, algorithm, calls, monkeypatch):
        """Every pass, level and logged objective of a run works in the same
        buffers, made for that run; the images it hands on are not theirs."""
        truth, projector, sino, roi = small_scene
        seen = []

        def spy(name):
            real = getattr(driver, name)

            def call(*args, **kwargs):
                result = real(*args, **kwargs)
                seen.append((name, kwargs["buffers"], result))
                return result
            monkeypatch.setattr(driver, name, call)

        for name in ("descent_steps", "ssatv1_pass", "ssatv2_pass", "reweighted_value"):
            spy(name)
        cfg = config(algorithm, iterations=3, levels=1 if algorithm in ("sart", "wtv") else 3)
        runs = []
        for _ in range(2):
            seen.clear()
            images = []
            run_reconstruction(cfg, sino, projector=projector,
                               on_iteration=lambda n, f: images.append(f))
            assert {name for name, _, _ in seen} == calls | {"reweighted_value"}
            assert len({id(buffers) for _, buffers, _ in seen}) == 1
            buffers = seen[0][1]
            arrays = [array for made in buffers._made.values()
                      for array in ((made.dx, made.dy, made.sq)
                                    if isinstance(made, tv.Differences) else (made,))]
            handed_on = images + [result[0] for name, _, result in seen
                                  if name.endswith(("_pass", "_steps"))]
            assert not any(np.shares_memory(image, a) for image in handed_on for a in arrays)
            runs.append(buffers)
        assert runs[0] is not runs[1]

    def test_degeneracy_chain_bitwise(self, small_scene, monkeypatch):
        # one scale-1 step: the same images from the same number of TV
        # values (ssatv2 once recomputed each search's start value)
        truth, projector, sino, roi = small_scene
        real_value, calls = tv.tv_value, []

        def counted_value(*args, **kwargs):
            calls[-1] += 1
            return real_value(*args, **kwargs)

        monkeypatch.setattr(tv, "tv_value", counted_value)
        for eps_hu, tv_steps in ((5.0, 10), (20.0, 10), (5.0, 7)):
            images, values = {}, {}
            for algorithm in ("wtv", "ssatv1", "ssatv2"):
                cfg = config(algorithm, iterations=4, levels=1, eps_hu=eps_hu,
                             tv_steps=tv_steps)
                calls.append(0)
                images[algorithm], _ = run_reconstruction(cfg, sino, projector=projector)
                values[algorithm] = calls[-1]
            npt.assert_array_equal(images["wtv"].data, images["ssatv1"].data)
            npt.assert_array_equal(images["wtv"].data, images["ssatv2"].data)
            assert values["wtv"] > 0
            assert values["wtv"] == values["ssatv1"] == values["ssatv2"]

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

    @pytest.mark.parametrize("size, pixel_size", [(32, 2.0), (64, 4.0)],
                             ids=["size", "pixel_size"])
    def test_mismatched_reference_rejected(self, small_scene, size, pixel_size):
        # a 32^2 reference once failed only after the first sweep; a 4 mm one
        # was compared pixel for pixel with the 2 mm reconstruction
        truth, projector, sino, roi = small_scene
        reference = rasterize(builtin_head_phantom(), size, size, pixel_size)
        sweeps = []
        with pytest.raises(ValueError, match="reference"):
            run_reconstruction(config("sart"), sino, reference=reference,
                               projector=projector,
                               on_iteration=lambda n, f: sweeps.append(n))
        assert sweeps == []

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
