import numpy as np
import numpy.testing as npt
import pytest

from latomo.core import FanBeamGeometry, ImageGrid, Sinogram
from latomo.projector import (
    Projector,
    apply_nonnegativity,
    back_project,
    forward_project,
    sart_view_update,
)

SMALL_GEOM = FanBeamGeometry(400.0, 200.0, 16, 8.0, 0.0, 180.0, 12.0)


def small_projector(width=32, height=32, pixel=4.0):
    return Projector(SMALL_GEOM, width, height, pixel)


def dense_view_matrix(proj, view_index):
    """System matrix of one view, one column per pixel, via unit images."""
    n = proj.width * proj.height
    cols = []
    for k in range(n):
        unit = np.zeros(n)
        unit[k] = 1.0
        cols.append(proj.forward_view(unit.reshape(proj.height, proj.width), view_index))
    return np.stack(cols, axis=1)


def assert_sart_matches_dense_oracle(proj, view, seed):
    """One SART step equals its dense-matrix evaluation on a random image."""
    rng = np.random.default_rng(seed)
    f = rng.uniform(0.0, 0.04, (proj.height, proj.width))
    channels = proj.geom.detector_channels
    p_view = proj.forward_view(f, view) * rng.uniform(0.9, 1.1, channels)
    lam = 0.8

    mat = dense_view_matrix(proj, view)
    row_sums = mat.sum(axis=1)
    col_sums = mat.sum(axis=0)
    residual = p_view - mat @ f.ravel()
    scaled = np.divide(residual, row_sums, out=np.zeros(channels), where=row_sums > 0)
    numerator = mat.T @ scaled
    update = np.divide(
        numerator, col_sums, out=np.zeros_like(numerator), where=col_sums > 0
    )
    expected = f.ravel() + lam * update

    got = proj.sart_update_view(f, p_view, view, lam)
    npt.assert_allclose(got.ravel(), expected, rtol=1e-10, atol=1e-15)


def clip_segment_length(src, dst, x0, x1, y0, y1):
    """Independent ray/box intersection length oracle (slab clipping)."""
    direction = dst - src
    t_lo, t_hi = 0.0, 1.0
    for axis, (lo, hi) in enumerate(((x0, x1), (y0, y1))):
        if direction[axis] == 0.0:
            if not lo <= src[axis] <= hi:
                return 0.0
            continue
        ta = (lo - src[axis]) / direction[axis]
        tb = (hi - src[axis]) / direction[axis]
        t_lo = max(t_lo, min(ta, tb))
        t_hi = min(t_hi, max(ta, tb))
    return max(t_hi - t_lo, 0.0) * float(np.hypot(*direction))


class TestForwardProject:
    def test_zero_image_gives_zero_sinogram(self):
        img = ImageGrid.zeros(16, 16, 4.0)
        sino = forward_project(img, SMALL_GEOM)
        assert sino.num_views == SMALL_GEOM.num_views
        npt.assert_array_equal(sino.data, 0.0)

    def test_uniform_square_central_ray_chord(self):
        # view at 90 deg: central channel crosses the square perpendicular to
        # its top side, so the path length is exactly the side length
        geom = FanBeamGeometry(600.0, 300.0, 15, 10.0, 90.0, 90.0, 1.0)
        mu = 0.01
        img = ImageGrid(32, 32, 4.0, np.full((32, 32), mu))
        sino = forward_project(img, geom)
        chord = 32 * 4.0
        assert sino.data[0, 7] == pytest.approx(mu * chord, rel=0.005)

    def test_single_pixel_matches_clipping_oracle(self):
        proj = small_projector()
        rng = np.random.default_rng(11)
        for _ in range(10):
            view = int(rng.integers(0, SMALL_GEOM.num_views))
            channel = int(rng.integers(0, 16))
            iy, ix = int(rng.integers(8, 24)), int(rng.integers(8, 24))
            one_hot = np.zeros((32, 32))
            one_hot[iy, ix] = 1.0
            value = proj.forward_view(one_hot, view)[channel]

            beta = np.radians(SMALL_GEOM.view_angles_deg()[view])
            d = np.array([np.cos(beta), np.sin(beta)])
            src = SMALL_GEOM.source_to_isocenter * d
            det = -(SMALL_GEOM.source_to_detector - SMALL_GEOM.source_to_isocenter) * d
            u_hat = np.array([-d[1], d[0]])
            offset = (channel - 7.5) * SMALL_GEOM.channel_size
            dst = det + offset * u_hat
            x0 = proj.x_lo + ix * 4.0
            y0 = proj.y_lo + iy * 4.0
            expected = clip_segment_length(src, dst, x0, x0 + 4.0, y0, y0 + 4.0)
            assert value == pytest.approx(expected, abs=1e-6)

    def test_linearity(self):
        proj = small_projector()
        rng = np.random.default_rng(12)
        f1 = rng.standard_normal((32, 32))
        f2 = rng.standard_normal((32, 32))
        a, b = 1.7, -0.3
        for view in (0, 5, 11):
            combined = proj.forward_view(a * f1 + b * f2, view)
            separate = a * proj.forward_view(f1, view) + b * proj.forward_view(f2, view)
            npt.assert_allclose(combined, separate, rtol=1e-10, atol=1e-12)

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(ValueError):
            FanBeamGeometry(0.0, 0.0, 4, 1.0, 0, 90, 10)


class TestBackProject:
    def test_zero_residual(self):
        img_like = ImageGrid.zeros(16, 16, 4.0)
        out = back_project(np.zeros(16), SMALL_GEOM, 0, img_like)
        npt.assert_array_equal(out.data, 0.0)

    def test_adjoint_identity_twenty_trials(self):
        proj = small_projector()
        rng = np.random.default_rng(13)
        for _ in range(20):
            view = int(rng.integers(0, SMALL_GEOM.num_views))
            f = rng.standard_normal((32, 32))
            q = rng.standard_normal(16)
            af = proj.forward_view(f, view)
            atq = proj.backproject_view(q, view)
            lhs = float(af @ q)
            rhs = float((f * atq).sum())
            denom = np.linalg.norm(af) * np.linalg.norm(q)
            assert abs(lhs - rhs) / denom < 1e-5

    def test_matches_dense_transpose(self):
        proj = small_projector(8, 8, 16.0)
        mat = dense_view_matrix(proj, 3)
        rng = np.random.default_rng(14)
        q = rng.standard_normal(16)
        npt.assert_allclose(
            proj.backproject_view(q, 3).ravel(), mat.T @ q, rtol=1e-12, atol=1e-14
        )

    def test_single_pixel_grid_concentrates_weight(self):
        proj = Projector(SMALL_GEOM, 1, 1, 40.0)
        mat = dense_view_matrix(proj, 2)
        q = np.zeros(16)
        q[7] = 1.0
        inc = proj.backproject_view(q, 2)
        assert inc[0, 0] == pytest.approx(mat[7, 0], abs=1e-12)
        assert mat[7, 0] > 0

    def test_residual_length_checked(self):
        proj = small_projector()
        with pytest.raises(ValueError):
            proj.backproject_view(np.zeros(5), 0)

    def test_view_index_checked(self):
        proj = small_projector()
        with pytest.raises(IndexError):
            proj.forward_view(np.zeros((32, 32)), 99)


class TestSartUpdate:
    def test_consistent_data_is_fixed_point(self):
        proj = small_projector()
        rng = np.random.default_rng(15)
        f = rng.uniform(0.0, 0.03, (32, 32))
        for view in (0, 4, 9):
            p_view = proj.forward_view(f, view)
            updated = proj.sart_update_view(f, p_view, view, 0.8)
            npt.assert_array_equal(updated, f)

    def test_single_ray_single_pixel_recovers_value(self):
        # one channel, 1x1 grid: the update must land exactly on p/length
        geom = FanBeamGeometry(400.0, 200.0, 1, 8.0, 45.0, 45.0, 1.0)
        proj = Projector(geom, 1, 1, 30.0)
        mu = 0.015
        length = proj.view_sums(0).row_sums[0]
        assert length > 0
        updated = proj.sart_update_view(np.zeros((1, 1)), np.array([mu * length]), 0, 1.0)
        assert updated[0, 0] == pytest.approx(mu, rel=1e-12)

    def test_matches_dense_oracle(self):
        assert_sart_matches_dense_oracle(small_projector(8, 8, 16.0), 5, seed=16)

    def test_relaxation_bounds(self):
        proj = small_projector()
        with pytest.raises(ValueError):
            proj.sart_update_view(np.zeros((32, 32)), np.zeros(16), 0, 0.0)

    def test_deterministic_and_cache_independent(self):
        rng = np.random.default_rng(17)
        f = rng.uniform(0.0, 0.03, (32, 32))
        p = np.linspace(0.0, 1.0, 16)
        cached = small_projector()
        uncached = Projector(SMALL_GEOM, 32, 32, 4.0, cache=False)
        a = cached.sart_update_view(f, p, 7, 0.5)
        b = cached.sart_update_view(f, p, 7, 0.5)
        c = uncached.sart_update_view(f, p, 7, 0.5)
        npt.assert_array_equal(a, b)
        npt.assert_array_equal(a, c)


class TestViewSums:
    def test_nonnegative_and_zero_only_when_missing(self):
        proj = small_projector()
        for view in range(SMALL_GEOM.num_views):
            sums = proj.view_sums(view)
            assert np.all(sums.row_sums >= 0)
            assert np.all(sums.col_sums >= 0)

    def test_missing_rays_have_zero_row_sum(self):
        # a tiny off-center grid misses the outer channels of the fan
        proj = Projector(SMALL_GEOM, 4, 4, 2.0, origin=(30.0, 0.0))
        sums = proj.view_sums(0)
        assert np.any(sums.row_sums == 0)
        matrix, _, _, flipped = proj._stored(0)
        assert not flipped
        entries_per_ray = np.diff(matrix.indptr)
        npt.assert_array_equal(entries_per_ray == 0, sums.row_sums == 0)


DEGENERACY_GEOM = FanBeamGeometry(400.0, 200.0, 96, 1.6, 10.0, 170.0, 4.0)

# (geometry, width, height, pixel size): the two symmetric scans
MIRRORED_SCANS = {
    "small-0-180": (SMALL_GEOM, 32, 32, 4.0),
    "degeneracy-64": (DEGENERACY_GEOM, 64, 64, 2.0),
}


def traced_dense(proj, view_index):
    """A view's matrix traced afresh, never through its mirror partner."""
    matrix, _, _ = proj._trace(view_index)
    return matrix.toarray()


class TestMirrorSharing:
    @pytest.mark.parametrize("scan", sorted(MIRRORED_SCANS))
    def test_mirrored_views_equal_fresh_traces(self, scan):
        geom, width, height, pixel = MIRRORED_SCANS[scan]
        proj = Projector(geom, width, height, pixel)
        views = geom.num_views
        assert proj.mirrored_views == views // 2
        rng = np.random.default_rng(18)
        for view in range(views // 2 + views % 2, views):
            assert proj._stored(view)[3]
            fresh = traced_dense(proj, view)
            tol = 1e-9 * fresh.max()
            # row c of the applied operator is its back-projection of e_c
            applied = np.stack([
                proj.backproject_view(np.eye(geom.detector_channels)[c], view).ravel()
                for c in range(geom.detector_channels)
            ])
            npt.assert_allclose(applied, fresh, rtol=0, atol=tol)
            f = rng.uniform(0.0, 0.04, (height, width))
            npt.assert_allclose(proj.forward_view(f, view), fresh @ f.ravel(),
                                rtol=1e-9, atol=tol)
            sums = proj.view_sums(view)
            npt.assert_allclose(sums.row_sums, fresh.sum(axis=1), rtol=0,
                                atol=tol * width)
            npt.assert_allclose(sums.col_sums.ravel(), fresh.sum(axis=0), rtol=0,
                                atol=tol * geom.detector_channels)

    def test_adjoint_identity_on_mirrored_views(self):
        proj = small_projector()
        rng = np.random.default_rng(19)
        for view in range(8, SMALL_GEOM.num_views):
            f = rng.standard_normal((32, 32))
            q = rng.standard_normal(16)
            af = proj.forward_view(f, view)
            atq = proj.backproject_view(q, view)
            gap = abs(float(af @ q) - float((f * atq).sum()))
            assert gap / (np.linalg.norm(af) * np.linalg.norm(q)) < 1e-12

    def test_mirrored_sart_matches_dense_oracle(self):
        proj = small_projector(8, 8, 16.0)
        assert proj._stored(10)[3]
        assert_sart_matches_dense_oracle(proj, 10, seed=20)

    @pytest.mark.parametrize("scan", sorted(MIRRORED_SCANS))
    def test_symmetric_scan_stores_half_the_views(self, scan):
        geom, width, height, pixel = MIRRORED_SCANS[scan]
        proj = Projector(geom, width, height, pixel)
        assert proj.nbytes == 0
        proj.forward(np.ones((height, width)))
        assert len(proj._views) == -(-geom.num_views // 2)
        stored = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                     + r.nbytes + c.nbytes for m, r, c in proj._views.values())
        assert proj.nbytes == stored

    @pytest.mark.parametrize("geom, origin", [
        (SMALL_GEOM, (30.0, 0.0)),
        (FanBeamGeometry(400.0, 200.0, 16, 8.0, 0.0, 170.0, 10.0), (0.0, 0.0)),
    ], ids=["off-center", "0-170"])
    def test_asymmetric_scans_store_every_view(self, geom, origin):
        proj = Projector(geom, 8, 8, 16.0, origin=origin)
        assert proj.mirrored_views == 0
        proj.forward(np.ones((8, 8)))
        assert len(proj._views) == geom.num_views
        for view in (0, geom.num_views - 2, geom.num_views - 1):
            assert not proj._stored(view)[3]
            assert_sart_matches_dense_oracle(proj, view, seed=21 + view)

    def test_uncached_projector_stores_nothing(self):
        proj = Projector(SMALL_GEOM, 32, 32, 4.0, cache=False)
        proj.forward(np.ones((32, 32)))
        assert proj.nbytes == 0


class TestFreeFunctions:
    def test_sart_view_update_wrapper(self):
        img = ImageGrid.zeros(16, 16, 4.0)
        sino = forward_project(img, SMALL_GEOM)
        out = sart_view_update(img, sino, SMALL_GEOM, 0, 0.8)
        npt.assert_array_equal(out.data, img.data)

    def test_apply_nonnegativity(self):
        img = ImageGrid(2, 2, 1.0, np.array([[0.01, -0.001], [0.0, -5.0]]))
        out = apply_nonnegativity(img)
        npt.assert_array_equal(out.data, [[0.01, 0.0], [0.0, 0.0]])
        positive = ImageGrid(2, 2, 1.0, np.abs(np.random.default_rng(0).standard_normal((2, 2))))
        npt.assert_array_equal(apply_nonnegativity(positive).data, positive.data)
