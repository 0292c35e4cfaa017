import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latomo.core import (
    FanBeamGeometry,
    ImageGrid,
    ParameterError,
    RoiRect,
    Sinogram,
    hu_to_mu,
    mu_to_hu,
    read_raw,
    roi_rmse,
    write_pgm16,
    write_raw_image,
)


def grid_from_hu(hu, pixel_size=1.0):
    hu = np.asarray(hu, dtype=np.float64)
    return ImageGrid(hu.shape[1], hu.shape[0], pixel_size, hu_to_mu(hu))


class TestUnits:
    def test_water_anchor(self):
        assert hu_to_mu(0.0) == 0.02

    def test_air_endpoint(self):
        assert hu_to_mu(-1000.0) == 0.0

    def test_linearity(self):
        assert hu_to_mu(1000.0) == pytest.approx(0.04, abs=1e-15)

    def test_inverse_anchor(self):
        assert mu_to_hu(0.02) == pytest.approx(0.0, abs=1e-12)
        assert mu_to_hu(0.0) == -1000.0
        assert mu_to_hu(0.03) == pytest.approx(500.0)

    @settings(derandomize=True, max_examples=200)
    @given(st.floats(min_value=-1e5, max_value=1e5))
    def test_round_trip(self, hu):
        back = mu_to_hu(hu_to_mu(hu))
        assert back == pytest.approx(hu, rel=1e-12, abs=1e-9)


class TestRoiRmse:
    def test_identical_images(self):
        img = grid_from_hu(np.arange(16.0).reshape(4, 4))
        assert roi_rmse(img, img) == 0.0

    def test_uniform_offset_inside_roi(self):
        base = np.zeros((6, 6))
        shifted = base.copy()
        roi = RoiRect(1, 2, 3, 4)
        shifted[2:5, 1:4] += 10.0
        assert roi_rmse(grid_from_hu(shifted), grid_from_hu(base), roi) == pytest.approx(10.0)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-100, 100, (4, 4))
        b = rng.uniform(-100, 100, (4, 4))
        total = 0.0
        for i in range(4):
            for j in range(4):
                total += (a[i, j] - b[i, j]) ** 2
        expected = np.sqrt(total / 16.0)
        assert roi_rmse(grid_from_hu(a), grid_from_hu(b)) == pytest.approx(expected)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(8)
        a = grid_from_hu(rng.uniform(0, 200, (5, 5)))
        b = grid_from_hu(rng.uniform(0, 200, (5, 5)))
        roi = RoiRect(0, 1, 4, 3)
        assert roi_rmse(a, b, roi) == roi_rmse(b, a, roi)

    def test_zero_reference_gives_rms(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(-50, 50, (3, 5))
        img = grid_from_hu(values)
        zero = img.with_data(np.full_like(img.data, hu_to_mu(0.0)))
        # reference at 0 HU: RMSE equals the root mean square of the HU image
        expected = np.sqrt(np.mean(values**2))
        assert roi_rmse(img, zero) == pytest.approx(expected)

    def test_dimension_mismatch(self):
        a = grid_from_hu(np.zeros((3, 3)))
        b = grid_from_hu(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            roi_rmse(a, b)

    def test_roi_outside_grid(self):
        img = grid_from_hu(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            roi_rmse(img, img, RoiRect(0, 0, 3, 2))


class TestTypes:
    def test_grid_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            ImageGrid(3, 3, 1.0, np.zeros(8))

    def test_grid_rejects_nonfinite(self):
        data = np.zeros((2, 2))
        data[0, 0] = np.nan
        with pytest.raises(ValueError):
            ImageGrid(2, 2, 1.0, data)

    def test_grid_rejects_bad_pixel_size(self):
        with pytest.raises(ValueError):
            ImageGrid(2, 2, 0.0, np.zeros((2, 2)))

    @pytest.mark.parametrize("pixel_size", [-1.0, np.inf, np.nan])
    def test_grid_pixel_size_must_be_positive_and_finite(self, pixel_size):
        # an infinite pitch once rasterized to an all-air image
        with pytest.raises(ValueError, match="pixel_size must be > 0 and finite"):
            ImageGrid(2, 2, pixel_size, np.zeros((2, 2)))

    @pytest.mark.parametrize("width, height, name", [
        (4, -2, "height"), (0, 4, "width"), (2.5, 4, "width"), (4, True, "height"),
    ])
    def test_grid_zeros_checks_the_lattice_before_allocating(self, width, height, name):
        # a negative height once reached numpy's allocation first
        with pytest.raises(ParameterError, match=f"^{name} must be") as info:
            ImageGrid.zeros(width, height, 1.0)
        assert info.value.name == name

    def test_grid_centers_are_isocentric(self):
        img = ImageGrid.zeros(4, 4, 2.0)
        npt.assert_allclose(img.x_centers(), [-3.0, -1.0, 1.0, 3.0])
        npt.assert_allclose(img.y_centers(), [-3.0, -1.0, 1.0, 3.0])

    def test_sinogram_requires_increasing_angles(self):
        with pytest.raises(ValueError):
            Sinogram(2, 3, np.array([10.0, 10.0]), np.zeros((2, 3)))

    def test_sinogram_rejects_wrong_shape(self):
        # a transposed (channels, views) array was once silently reshaped
        with pytest.raises(ValueError, match=r"\(3, 2\) != .* \(2, 3\)"):
            Sinogram(2, 3, [0.0, 1.0], np.arange(6.0).reshape(3, 2))

    def test_geometry_distance_ordering(self):
        with pytest.raises(ValueError):
            FanBeamGeometry(500, 600, 8, 1.0, 0, 90, 1)

    @pytest.mark.parametrize("field", [
        "source_to_detector", "source_to_isocenter", "channel_size",
        "angle_start", "angle_end", "angle_increment",
    ])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_geometry_rejects_non_finite(self, field, value):
        good = dict(source_to_detector=1088.0, source_to_isocenter=544.0,
                    detector_channels=8, channel_size=1.0, angle_start=10.0,
                    angle_end=170.0, angle_increment=1.0)
        FanBeamGeometry(**good)
        with pytest.raises(ValueError):
            FanBeamGeometry(**{**good, field: value})

    def test_geometry_view_count(self):
        geom = FanBeamGeometry(1088, 544, 768, 0.5, 10, 170, 1)
        assert geom.num_views == 161
        angles = geom.view_angles_deg()
        assert angles[0] == 10.0 and angles[-1] == 170.0

    def test_roi_rect_ordering(self):
        with pytest.raises(ValueError):
            RoiRect(3, 0, 2, 1)

    @pytest.mark.parametrize("corner", [0.5, True, float("nan")], ids=repr)
    @pytest.mark.parametrize("name", ["x0", "y0", "x1", "y1"])
    def test_roi_rect_corners_are_integers(self, name, corner):
        # a float corner once failed as a slice index in the first
        # iteration's metrics, after a full SART sweep
        corners = {"x0": 0, "y0": 0, "x1": 3, "y1": 3, name: corner}
        with pytest.raises(ParameterError, match=f"corner {name} must be an integer") as info:
            RoiRect(**corners)
        assert info.value.name == name


class TestRawFormat:
    def test_round_trip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        img = ImageGrid(5, 4, 0.5, rng.uniform(0, 0.05, (4, 5)))
        path = tmp_path / "img.raw"
        write_raw_image(path, img)
        data, pixel = read_raw(path)
        assert pixel == np.float32(0.5)
        npt.assert_array_equal(data, img.data.astype(np.float32))

    def test_header_layout(self, tmp_path):
        img = ImageGrid.zeros(3, 2, 1.5)
        path = tmp_path / "img.raw"
        write_raw_image(path, img)
        blob = path.read_bytes()
        assert len(blob) == 16 + 4 * 6
        assert int.from_bytes(blob[0:4], "little") == 3
        assert int.from_bytes(blob[4:8], "little") == 2

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.raw"
        path.write_bytes(b"\0" * 10)
        with pytest.raises(ValueError):
            read_raw(path)


class TestPgm:
    def test_window_mapping_and_orientation(self, tmp_path):
        hu = np.array([[-500.0, 0.0], [50.0, 100.0]])  # row 0 is the bottom
        img = grid_from_hu(hu)
        path = tmp_path / "img.pgm"
        write_pgm16(path, img, (0.0, 100.0))
        blob = path.read_bytes()
        header, samples = blob.split(b"65535\n", 1)
        assert header == b"P5\n2 2\n"
        vals = np.frombuffer(samples, dtype=">u2").reshape(2, 2)
        # top row first: [50, 100] HU maps to [32768, 65535]
        assert vals[0, 1] == 65535
        assert vals[0, 0] == 32768
        assert vals[1, 0] == 0  # clamped below the window
        assert vals[1, 1] == 0

    def test_invalid_window(self, tmp_path):
        img = grid_from_hu(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            write_pgm16(tmp_path / "x.pgm", img, (10.0, 10.0))
