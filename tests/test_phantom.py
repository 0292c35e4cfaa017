import math

import numpy as np
import numpy.testing as npt
import pytest

from latomo import phantom as phantom_module
from latomo.core import ImageGrid, ParameterError, Sinogram, hu_to_mu, mu_to_hu
from latomo.phantom import (
    AIR_HU,
    Bar,
    Ellipse,
    NoiseSpec,
    PhantomSpec,
    add_poisson_noise,
    builtin_head_phantom,
    load_phantom_spec,
    rasterize,
    roi_rect_for_grid,
    save_phantom_spec,
)


class TestRasterize:
    def test_single_ellipse_paints_center(self):
        spec = PhantomSpec((Ellipse((0.0, 0.0), (3.0, 3.0), 0.0, 50.0),))
        img = rasterize(spec, 9, 9, 1.0)
        assert img.data[4, 4] == hu_to_mu(50.0)

    def test_uncovered_pixels_are_air(self):
        spec = PhantomSpec((Ellipse((0.0, 0.0), (1.0, 1.0), 0.0, 50.0),))
        img = rasterize(spec, 9, 9, 1.0)
        assert img.data[0, 0] == 0.0  # -1000 HU

    def test_last_primitive_wins(self):
        spec = PhantomSpec(
            (
                Ellipse((0.0, 0.0), (4.0, 4.0), 0.0, 100.0),
                Bar((0.0, 0.0), 2.0, 2.0, -300.0),
            )
        )
        img = rasterize(spec, 9, 9, 1.0)
        assert img.data[4, 4] == hu_to_mu(-300.0)
        assert img.data[4, 1] == hu_to_mu(100.0)

    def test_bar_triple_runs_along_y(self):
        # three 1 mm bars with 1 mm gaps on a 0.5 mm grid: runs of 2 px on / 2 px off
        bars = tuple(
            Bar((0.0, y_center), 4.0, 1.0, 800.0) for y_center in (-1.5, 0.5, 2.5)
        )
        img = rasterize(PhantomSpec(bars), 16, 16, 0.5)
        column = img.data[:, 8] > hu_to_mu(0.0)
        runs = []
        count = 0
        for on in column:
            if on:
                count += 1
            elif count:
                runs.append(count)
                count = 0
        if count:
            runs.append(count)
        assert runs == [2, 2, 2]
        # gaps between the bars are exactly 2 px as well
        on_rows = np.flatnonzero(column)
        assert list(np.diff(on_rows)) == [1, 3, 1, 3, 1]

    def test_rotated_ellipse_orientation(self):
        spec = PhantomSpec((Ellipse((0.0, 0.0), (6.0, 1.2), 90.0, 200.0),))
        img = rasterize(spec, 17, 17, 1.0)
        on = img.data > 0.02
        # long axis rotated onto Y: taller than wide
        assert on[:, 8].sum() > on[8, :].sum()


def reference_rasterize(spec, width, height, pixel_size):
    """The rasterizer as first written, every primitive evaluated over the
    whole grid, kept as an oracle that ``rasterize`` must match bit for bit."""
    grid = ImageGrid.zeros(width, height, pixel_size)
    hu = np.full((height, width), AIR_HU)
    X, Y = np.meshgrid(grid.x_centers(), grid.y_centers())
    for prim in spec.primitives:
        if isinstance(prim, Ellipse):
            dx = X - prim.center[0]
            dy = Y - prim.center[1]
            th = np.radians(prim.angle_deg)
            c, s = np.cos(th), np.sin(th)
            u = (dx * c + dy * s) / prim.semi_axes[0]
            v = (-dx * s + dy * c) / prim.semi_axes[1]
            mask = u * u + v * v <= 1.0
        else:
            x0 = prim.center[0] - prim.width / 2.0
            y0 = prim.center[1] - prim.height / 2.0
            mask = (X >= x0) & (X < x0 + prim.width) & (Y >= y0) & (Y < y0 + prim.height)
        hu[mask] = prim.value_hu
    return hu_to_mu(hu)


# rotated ellipses, and primitives partly or wholly off a 48 x 40 grid of 2 mm
OFF_GRID_SPEC = """\
ellipse 0 0 30 25 0 800
ellipse 10 -5 12 4 33 100
ellipse -40 30 20 9 -70 250
ellipse 200 0 5 5 0 -500
ellipse 0 -41 3 6 15 60
bar -47 0 4 100 400
bar 30 39.5 10 1 -200
bar 0 300 2 2 900
bar 5 5 0.7 0.3 1200
"""


class TestRasterizeOracle:
    @pytest.mark.parametrize("width, height, pixel", [
        (512, 512, 0.5), (256, 256, 1.0), (64, 64, 4.0), (33, 21, 4.0),
    ])
    def test_head_phantom_equals_full_grid_oracle(self, width, height, pixel):
        spec = builtin_head_phantom()
        got = rasterize(spec, width, height, pixel).data
        assert got.tobytes() == reference_rasterize(spec, width, height, pixel).tobytes()

    def test_centers_on_bar_edges(self):
        # on an odd grid of 0.25 mm every bar edge of the head phantom is a
        # pixel center, where the half-open box decides
        spec = builtin_head_phantom()
        grid = ImageGrid.zeros(513, 513, 0.25)
        xs, ys = grid.x_centers(), grid.y_centers()
        bars = [p for p in spec.primitives if isinstance(p, Bar)]
        for bar in bars:
            x0 = bar.center[0] - bar.width / 2.0
            y0 = bar.center[1] - bar.height / 2.0
            assert np.isin([x0, x0 + bar.width], xs).all()
            assert np.isin([y0, y0 + bar.height], ys).all()
        got = rasterize(spec, 513, 513, 0.25).data
        assert got.tobytes() == reference_rasterize(spec, 513, 513, 0.25).tobytes()

    def test_spec_file_off_the_grid(self, tmp_path):
        path = tmp_path / "off.phantom"
        path.write_text(OFF_GRID_SPEC)
        spec = load_phantom_spec(path)
        got = rasterize(spec, 48, 40, 2.0).data
        assert got.tobytes() == reference_rasterize(spec, 48, 40, 2.0).tobytes()
        # the wholly off-grid primitives paint nothing
        assert not np.isin(got, hu_to_mu(np.array([-500.0, 900.0]))).any()


class TestBuiltinPhantom:
    def test_bar_widths_and_length(self):
        spec = builtin_head_phantom()
        bars = [p for p in spec.primitives if isinstance(p, Bar)]
        assert sorted({b.height for b in bars}) == [0.5, 1.0, 1.5, 2.0, 2.5]
        assert {b.width for b in bars} == {4.5}

    def test_bar_values_and_counts(self):
        spec = builtin_head_phantom()
        bars = [p for p in spec.primitives if isinstance(p, Bar)]
        assert {b.value_hu for b in bars} == {800.0, 250.0}
        for value in (800.0, 250.0):
            sequence = [b for b in bars if b.value_hu == value]
            assert len(sequence) == 15  # 5 triples
            for width in (0.5, 1.0, 1.5, 2.0, 2.5):
                assert sum(1 for b in sequence if b.height == width) == 3

    def test_gap_equals_bar_width(self):
        spec = builtin_head_phantom()
        bars = sorted(
            (b for b in spec.primitives if isinstance(b, Bar) and b.value_hu == 800.0),
            key=lambda b: b.center[1],
        )
        for a, b in zip(bars, bars[1:]):
            if a.height == b.height:  # within a triple
                gap = (b.center[1] - b.height / 2) - (a.center[1] + a.height / 2)
                assert gap == pytest.approx(a.height)

    def test_publishes_roi_between_eyes(self):
        spec = builtin_head_phantom()
        assert spec.roi_mm is not None
        x0, y0, x1, y1 = spec.roi_mm
        eyes = [p for p in spec.primitives
                if isinstance(p, Ellipse) and p.value_hu == 75.0]
        assert len(eyes) == 2
        assert eyes[0].center[0] < x0 < x1 < eyes[1].center[0]

    def test_roi_rect_conversion(self):
        spec = builtin_head_phantom()
        roi = roi_rect_for_grid(spec.roi_mm, 256, 256, 1.0)
        img = rasterize(spec, 256, 256, 1.0)
        xs = img.x_centers()
        ys = img.y_centers()
        assert spec.roi_mm[0] <= xs[roi.x0] and xs[roi.x1] <= spec.roi_mm[2]
        assert spec.roi_mm[1] <= ys[roi.y0] and ys[roi.y1] <= spec.roi_mm[3]

    def test_fits_inside_scan_field_of_view(self):
        img = rasterize(builtin_head_phantom(), 512, 512, 0.5)
        xs, ys = img.x_centers(), img.y_centers()
        X, Y = np.meshgrid(xs, ys)
        occupied = img.data > 0.0
        assert np.hypot(X[occupied], Y[occupied]).max() < 94.5

    def test_resolution_consistency(self):
        # doubling resolution changes each primitive's bounding-box mean by
        # < 1% of the phantom's HU range (air at -1000 up to 800 HU bone)
        spec = builtin_head_phantom()
        coarse = rasterize(spec, 256, 256, 1.0)
        fine = rasterize(spec, 512, 512, 0.5)
        value_range = 1800.0

        def bbox_mean_hu(img, prim):
            if isinstance(prim, Ellipse):
                x0 = prim.center[0] - prim.semi_axes[0]
                x1 = prim.center[0] + prim.semi_axes[0]
                y0 = prim.center[1] - prim.semi_axes[1]
                y1 = prim.center[1] + prim.semi_axes[1]
            else:
                x0 = prim.center[0] - prim.width / 2
                x1 = prim.center[0] + prim.width / 2
                y0 = prim.center[1] - prim.height / 2
                y1 = prim.center[1] + prim.height / 2
            xs, ys = img.x_centers(), img.y_centers()
            # half-open box, matching the painting rule for bars
            sel_x = (xs >= x0) & (xs < x1)
            sel_y = (ys >= y0) & (ys < y1)
            block = mu_to_hu(img.data[np.ix_(sel_y, sel_x)])
            return block.mean() if block.size else None

        for prim in spec.primitives:
            lo = bbox_mean_hu(coarse, prim)
            hi = bbox_mean_hu(fine, prim)
            if lo is None or hi is None:
                continue
            rel = abs(hi - lo) / value_range
            assert rel < 0.01, f"{prim}: {lo:.2f} vs {hi:.2f} HU"


def _flat_sinogram(value, n=10000):
    return Sinogram(1, n, np.array([0.0]), np.full((1, n), value))


class TestPoissonNoise:
    def test_zero_path_statistics(self):
        noisy = add_poisson_noise(_flat_sinogram(0.0), NoiseSpec(5e6, 1))
        assert abs(noisy.data.mean()) < 3 * 4.47e-4 / 100
        assert noisy.data.std() == pytest.approx(1 / np.sqrt(5e6), rel=0.10)

    def test_same_seed_reproduces(self):
        sino = _flat_sinogram(2.0, 100)
        a = add_poisson_noise(sino, NoiseSpec(5e6, 42))
        b = add_poisson_noise(sino, NoiseSpec(5e6, 42))
        npt.assert_array_equal(a.data, b.data)

    def test_different_seed_differs(self):
        sino = _flat_sinogram(2.0, 100)
        a = add_poisson_noise(sino, NoiseSpec(5e6, 1))
        b = add_poisson_noise(sino, NoiseSpec(5e6, 2))
        assert not np.array_equal(a.data, b.data)

    def test_unbiased_at_p_two(self):
        noisy = add_poisson_noise(_flat_sinogram(2.0), NoiseSpec(5e6, 3))
        lam = 5e6 * np.exp(-2.0)
        stderr = (1 / np.sqrt(lam)) / np.sqrt(noisy.data.size)
        assert abs(noisy.data.mean() - 2.0) < 3 * stderr

    def test_variance_decreases_with_photons(self):
        variances = []
        for photons in (1e4, 1e6, 5e6):
            noisy = add_poisson_noise(_flat_sinogram(1.0, 40000), NoiseSpec(photons, 5))
            variances.append(noisy.data.var())
        assert variances[0] > variances[1] > variances[2]

    @pytest.mark.parametrize("photons", [math.inf, 1e300, 9.3e18], ids=repr)
    def test_rejects_photon_counts_numpy_cannot_draw(self, photons):
        # once constructed and failed in rng.poisson, after the trace
        with pytest.raises(ParameterError, match="incident_photons") as info:
            NoiseSpec(photons)
        assert info.value.name == "incident_photons"

    def test_largest_photon_count_draws(self):
        # the bound is numpy's own: it draws from the bound, not from the
        # next float above it
        largest = phantom_module._POISSON_MEAN_MAX
        rng = np.random.default_rng(0)
        assert rng.poisson(largest) > 0
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(np.nextafter(largest, np.inf))
        noisy = add_poisson_noise(_flat_sinogram(0.0, 4), NoiseSpec(largest))
        assert np.all(np.isfinite(noisy.data))

    def test_rejects_negative_line_integrals(self):
        with pytest.raises(ValueError):
            add_poisson_noise(_flat_sinogram(-0.5, 4), NoiseSpec(1e6, 0))

    def test_rejects_nonfinite(self):
        sino = Sinogram(1, 2, np.array([0.0]), np.array([[0.0, np.inf]]))
        with pytest.raises(ValueError):
            add_poisson_noise(sino, NoiseSpec(1e6, 0))

    @pytest.mark.parametrize("seed", [-1, 2.5, 3.0, True], ids=repr)
    def test_rejects_seed_that_is_not_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="rng_seed"):
            NoiseSpec(1e6, seed)

    def test_zero_count_clamp_is_logged(self, caplog):
        # a handful of photons at a thick path forces zero counts
        with caplog.at_level("WARNING", logger="latomo.phantom"):
            add_poisson_noise(_flat_sinogram(12.0, 1000), NoiseSpec(10.0, 0))
        assert any("clamped" in rec.message for rec in caplog.records)


class TestSpecFiles:
    def test_round_trip(self, tmp_path):
        spec = builtin_head_phantom()
        path = tmp_path / "head.phantom"
        save_phantom_spec(spec, path)
        loaded = load_phantom_spec(path)
        assert len(loaded.primitives) == len(spec.primitives)
        a = rasterize(spec, 64, 64, 3.0)
        b = rasterize(loaded, 64, 64, 3.0)
        npt.assert_array_equal(a.data, b.data)

    def test_round_trip_keeps_every_digit(self, tmp_path):
        # once written with %g: -999.9999 reloaded as -1000, 0.33333333 as 0.333333
        spec = PhantomSpec((
            Ellipse((0.1 + 0.2, -1 / 3), (70.123456789, 1e-7), 12.3456789, -999.9999),
            Bar((-58.25, 1 / 7), 0.33333333, 4.5, 800.0000001),
        ))
        path = tmp_path / "fine.phantom"
        save_phantom_spec(spec, path)
        assert load_phantom_spec(path).primitives == spec.primitives

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "p.phantom"
        path.write_text("# header\n\nellipse 0 0 5 4 0 100  # trailing\nbar 1 2 3 4 -50\n")
        spec = load_phantom_spec(path)
        assert len(spec.primitives) == 2
        assert isinstance(spec.primitives[0], Ellipse)
        assert spec.primitives[1].value_hu == -50.0

    def test_error_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.phantom"
        path.write_text("ellipse 0 0 5 4 0 100\nbar 1 2 3\n")
        with pytest.raises(ValueError, match=":2:"):
            load_phantom_spec(path)

    @pytest.mark.parametrize("line, field", [
        ("ellipse 0 0 50 50 0 nan", "value_hu"),
        ("ellipse 0 0 nan 50 0 100", "semi_axes"),
        ("ellipse inf 0 50 50 0 100", "center"),
        ("ellipse 0 0 50 50 nan 100", "angle_deg"),
        ("bar 0 nan 3 4 100", "center"),
        ("bar 0 0 inf 4 100", "width"),
        ("bar 0 0 3 nan 100", "height"),
        ("bar 0 0 3 4 -inf", "value_hu"),
    ])
    def test_non_finite_field_names_line_and_field(self, tmp_path, line, field):
        # a nan value once rasterized to a nan image; a nan extent, centre or
        # angle dropped the primitive without a word
        path = tmp_path / "bad.phantom"
        path.write_text(f"ellipse 0 0 5 4 0 100\n{line}\n")
        with pytest.raises(ValueError, match=rf":2: \w+ {field} must be finite"):
            load_phantom_spec(path)
