import multiprocessing
import sys
import threading
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from latomo import core
from latomo import projector as projector_module
from latomo.core import FanBeamGeometry, ParameterError
from latomo.projector import Projector

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
    """One SART step equals its dense-matrix evaluation on a random image.
    A channel whose ray misses the grid gets nonzero data, which the step
    must ignore."""
    rng = np.random.default_rng(seed)
    f = rng.uniform(0.0, 0.04, (proj.height, proj.width))
    channels = proj.geom.detector_channels
    p_view = proj.forward_view(f, view) * rng.uniform(0.9, 1.1, channels)
    lam = 0.8

    mat = dense_view_matrix(proj, view)
    row_sums = mat.sum(axis=1)
    col_sums = mat.sum(axis=0)
    missed = row_sums == 0
    p_view[missed] = rng.uniform(0.5, 1.0, np.count_nonzero(missed))
    residual = p_view - mat @ f.ravel()
    scaled = np.divide(residual, row_sums, out=np.zeros(channels), where=row_sums > 0)
    numerator = mat.T @ scaled
    update = np.divide(
        numerator, col_sums, out=np.zeros_like(numerator), where=col_sums > 0
    )
    expected = f.ravel() + lam * update

    got = proj.sart_update_view(f, p_view, view, lam)
    npt.assert_allclose(got.ravel(), expected, rtol=1e-10, atol=1e-15)


def assert_adjoint_identity(proj, views, seed):
    """<A f, q> = <f, A^T q> to 1e-12 of |A f| |q| on each of ``views``,
    for a random image and random view data."""
    rng = np.random.default_rng(seed)
    for view in views:
        f = rng.standard_normal((proj.height, proj.width))
        q = rng.standard_normal(proj.geom.detector_channels)
        af = proj.forward_view(f, view)
        atq = proj.backproject_view(q, view)
        gap = abs(float(af @ q) - float((f * atq).sum()))
        assert gap / (np.linalg.norm(af) * np.linalg.norm(q)) < 1e-12


def ray_major(matrix):
    """A traced view's (2 x channels, pixels) matrix with each ray's two
    runs joined back into one row per ray, in traversal order."""
    channels = matrix.shape[0] // 2
    runs = [slice(matrix.indptr[r], matrix.indptr[r + 1]) for r in range(2 * channels)]
    rows = [(runs[c], runs[channels + c]) for c in range(channels)]
    data = np.concatenate([matrix.data[s] for row in rows for s in row])
    indices = np.concatenate([matrix.indices[s] for row in rows for s in row])
    indptr = np.zeros(channels + 1, dtype=np.int32)
    indptr[1:] = np.cumsum([sum(s.stop - s.start for s in row) for row in rows])
    return csr_array((data, indices, indptr), shape=(channels, matrix.shape[1]))


def assert_runs_in_bands(proj, view):
    """Each run half's entries lie in the image rows its band names, and the
    two bands split the rows at ``height // 2`` (or one takes them all)."""
    matrix, bands = view.matrix, view.bands
    channels = matrix.shape[0] // 2
    middle, height = proj.height // 2, proj.height
    assert sorted(bands) in ([(0, middle), (middle, height)], [(0, height), (height, height)])
    for half, (top, bottom) in enumerate(bands):
        entries = slice(matrix.indptr[half * channels], matrix.indptr[(half + 1) * channels])
        rows = matrix.indices[entries] // proj.width
        assert np.all((rows >= top) & (rows < bottom))


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


@pytest.mark.parametrize("width, height, pixel, name", [
    (0, 32, 8.0, "width"),
    (32, 0, 8.0, "height"),
    (32, 32, -8.0, "pixel_size"),
    (32, 32, np.nan, "pixel_size"),
    (32, 32, np.inf, "pixel_size"),
    (32.5, 32, 8.0, "width"),
    (True, 32, 8.0, "width"),
])
def test_rejects_a_bad_lattice(width, height, pixel, name):
    # each once constructed, a fractional or boolean width stored truncated,
    # and forward returned a sinogram
    with pytest.raises(ParameterError) as info:
        Projector(SMALL_GEOM, width, height, pixel)
    assert info.value.name == name


class TestForwardProject:
    def test_zero_image_gives_zero_sinogram(self):
        sino = Projector(SMALL_GEOM, 16, 16, 4.0).forward(np.zeros((16, 16)))
        assert sino.shape == (SMALL_GEOM.num_views, SMALL_GEOM.detector_channels)
        npt.assert_array_equal(sino, 0.0)

    def test_uniform_square_central_ray_chord(self):
        # view at 90 deg: central channel crosses the square perpendicular to
        # its top side, so the path length is exactly the side length
        geom = FanBeamGeometry(600.0, 300.0, 15, 10.0, 90.0, 90.0, 1.0)
        mu = 0.01
        sino = Projector(geom, 32, 32, 4.0).forward(np.full((32, 32), mu))
        chord = 32 * 4.0
        assert sino[0, 7] == pytest.approx(mu * chord, rel=0.005)

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
        out = Projector(SMALL_GEOM, 16, 16, 4.0).backproject_view(np.zeros(16), 0)
        assert out.shape == (16, 16)
        npt.assert_array_equal(out, 0.0)

    def test_adjoint_identity_twenty_trials(self):
        views = np.random.default_rng(13).integers(0, SMALL_GEOM.num_views, 20)
        assert_adjoint_identity(small_projector(), views.tolist(), seed=13)

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

    def test_missed_rays_change_nothing(self):
        # an 8 mm grid: 14 of view 0's 16 rays pass beside it, and 8 of its
        # 16 pixels lie on no ray
        proj = Projector(SMALL_GEOM, 4, 4, 2.0)
        sums = proj.view_sums(0)
        missed, uncovered = sums.row_sums == 0, sums.col_sums == 0
        assert np.count_nonzero(missed) == 14 and np.count_nonzero(uncovered) == 8
        assert_sart_matches_dense_oracle(proj, 0, seed=21)
        f = np.random.default_rng(21).uniform(0.0, 0.04, (4, 4))
        p_view = 1.1 * proj.forward_view(f, 0)
        p_view[missed] = np.linspace(0.5, 1.0, 14)
        updated = proj.sart_update_view(f, p_view, 0, 0.8)
        npt.assert_array_equal(updated[uncovered], f[uncovered])
        # data on the missed rays alone moves no pixel
        p_view[~missed] = proj.forward_view(f, 0)[~missed]
        npt.assert_array_equal(proj.sart_update_view(f, p_view, 0, 0.8), f)

    def test_relaxation_bounds(self):
        proj = small_projector()
        with pytest.raises(ValueError):
            proj.sart_update_view(np.zeros((32, 32)), np.zeros(16), 0, 0.0)

    @pytest.mark.parametrize("p_view", [np.array([1.0]), np.zeros(15), np.zeros(17),
                                        np.zeros((16, 1))], ids=["one", "15", "17", "column"])
    def test_view_data_length_checked(self, p_view):
        # one value used to broadcast over all 16 channels and give an update
        proj = small_projector()
        with pytest.raises(ValueError, match=r"shape \(16,\)"):
            proj.sart_update_view(np.zeros((32, 32)), p_view, 0, 0.8)
        assert proj.nbytes == 0  # rejected before the view is traced

    def test_deterministic_and_cache_independent(self):
        rng = np.random.default_rng(17)
        f = rng.uniform(0.0, 0.03, (32, 32))
        p = np.linspace(0.0, 1.0, 16)
        cached = small_projector()
        a = cached.sart_update_view(f, p, 7, 0.5)  # traces view 7
        b = cached.sart_update_view(f, p, 7, 0.5)  # reuses the stored trace
        c = small_projector().sart_update_view(f, p, 7, 0.5)
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
        # an 8 mm grid at the isocenter: on view 0, 14 of the 16 channels
        # (8 mm pitch, magnification 2) pass beside it
        proj = Projector(SMALL_GEOM, 4, 4, 2.0)
        sums = proj.view_sums(0)
        assert np.count_nonzero(sums.row_sums == 0) == 14
        (matrix, _, _, _), frame, _ = proj._stored(0)
        assert frame == (False, False, False)
        entries_per_ray = np.diff(ray_major(matrix).indptr)
        npt.assert_array_equal(entries_per_ray == 0, sums.row_sums == 0)


class TestGridWiderThanFan:
    """A 128 mm grid under a fan 63 mm wide at the isocenter: on every view
    about 100 of the 256 pixels are crossed by no ray, so their column sums
    are zero and SART must leave them unchanged."""

    def projector(self):
        return small_projector(16, 16, 8.0)

    @pytest.mark.parametrize("view", [0, 3, 12])  # view 12 mirrors view 3
    def test_sart_matches_dense_oracle(self, view):
        proj = self.projector()
        assert proj._stored(view)[1] == (view == 12, False, False)
        uncovered = proj.view_sums(view).col_sums == 0
        assert np.count_nonzero(uncovered) > 80
        assert_sart_matches_dense_oracle(proj, view, seed=22 + view)
        f = np.random.default_rng(view).uniform(0.0, 0.04, (16, 16))
        updated = proj.sart_update_view(f, 1.1 * proj.forward_view(f, view), view, 0.8)
        npt.assert_array_equal(updated[uncovered], f[uncovered])

    @pytest.mark.parametrize("view", [0, 3, 12])
    def test_view_sums_keep_the_zeros(self, view):
        proj = self.projector()
        sums = proj.view_sums(view)
        dense = dense_view_matrix(proj, view)
        npt.assert_array_equal(sums.col_sums == 0, ~dense.any(axis=0).reshape(16, 16))
        npt.assert_allclose(sums.col_sums.ravel(), dense.sum(axis=0), rtol=1e-12)
        assert np.all(proj._stored(view)[0][3] > 0)

    def test_nbytes_counts_both_run_halves(self):
        proj = self.projector()
        assert_stores_the_traced_views(
            proj, SMALL_GEOM.num_views - proj.mirrored_views - proj.reflected_views)


DEGENERACY_GEOM = FanBeamGeometry(400.0, 200.0, 96, 1.6, 10.0, 170.0, 4.0)


def traced_matrix(proj, view_index):
    """A view's (channels, pixels) matrix traced afresh, never through a
    symmetry partner."""
    return ray_major(proj._trace(view_index).matrix)


def applied_matrix(proj, view_index):
    """A view's (channels, pixels) matrix as the projector applies it: its
    traced view's stored matrix with each row, an image in the traced view's
    frame, mapped into the view's frame, and the channels reversed when the
    map is a reflection.  The view's back-projection of one random residual
    must be that matrix's, to rounding."""
    flip_x, flip_y, transposed = frame = proj._symmetry[view_index][1]
    # pixel p of the traced view's frame is pixel columns[p] of the view's:
    # the view's pixel ids flipped in X and in Y, then transposed, as the
    # frame says (a transpose maps only square grids)
    columns = np.arange(proj.height * proj.width).reshape(proj.height, proj.width)
    columns = columns[::-1 if flip_y else 1, ::-1 if flip_x else 1]
    columns = (columns.T if transposed else columns).ravel()
    stored = ray_major(proj._stored(view_index)[0].matrix)
    matrix = csr_array((stored.data, columns[stored.indices], stored.indptr),
                       shape=stored.shape)[::-1 if sum(frame) % 2 else 1]
    residual = np.random.default_rng(view_index).normal(size=matrix.shape[0])
    gap = proj.backproject_view(residual, view_index).ravel() - matrix.T @ residual
    # the weights are nonnegative, so |residual| @ matrix bounds each sum's terms
    assert np.all(np.abs(gap) <= 1e-12 * (matrix.T @ np.abs(residual))), view_index
    return matrix


def mapped_direction(frame, beta_deg):
    """The source direction of view ``beta_deg`` under a frame map: the image
    of a view in its traced view's frame, ``g(x, y) = f(M(x, y))``, is what
    the traced view's rays see of ``f`` along the rays M maps them onto.
    Flipping X, then Y, then transposing gives M(x, y) = (sx y, sy x) with a
    transpose and (sx x, sy y) without."""
    flip_x, flip_y, transposed = frame
    c, s = np.cos(np.radians(beta_deg)), np.sin(np.radians(beta_deg))
    sx, sy = (-1 if flip_x else 1), (-1 if flip_y else 1)
    return np.array([sx * s, sy * c] if transposed else [sx * c, sy * s])


def assert_frames_map_the_sources(proj):
    """Every view's source is its traced view's source under its frame map,
    and its channels run reversed exactly when the map is a reflection."""
    for view, (source, frame) in enumerate(proj._symmetry):
        assert source <= view and proj._symmetry[source] == (source, (False,) * 3)
        beta = np.radians(proj.angles_deg[view])
        npt.assert_allclose(mapped_direction(frame, proj.angles_deg[source]),
                            [np.cos(beta), np.sin(beta)], rtol=0, atol=1e-12)
        assert proj._stored(view)[2] == (-1 if sum(frame) % 2 else 1)
        if proj.width != proj.height:
            assert not frame[2]


def congruent(angle, target):
    """Whether ``angle`` equals ``target`` mod 360 degrees."""
    return abs((angle - target + 180.0) % 360.0 - 180.0) <= 1e-9


# (geometry, width, height, pixel size, traced, mirrored, reflected): every
# view of a scan is traced, applied through a flip in X, in Y or in both
# (mirrored), or applied through a transpose with or without flips
# (reflected or rotated)
SYMMETRY_SCANS = {
    # 0-84 traced, 96-180 mirrored
    "small-0-180": (SMALL_GEOM, 32, 32, 4.0, 8, 8, 0),
    # 10-90 traced: no view has a diagonal partner
    "degeneracy-64": (DEGENERACY_GEOM, 64, 64, 2.0, 21, 20, 0),
    # 10-55 traced
    "64-1deg": (replace(DEGENERACY_GEOM, angle_increment=1.0), 64, 64, 2.0, 46, 45, 70),
    # every map of the square: 0-45 traced
    "64-0-359-1deg": (replace(DEGENERACY_GEOM, angle_start=0.0, angle_end=359.0,
                              angle_increment=1.0), 64, 64, 2.0, 46, 136, 178),
    # 0-45 traced
    "0-180-5deg": (replace(SMALL_GEOM, angle_increment=5.0), 32, 32, 4.0, 10, 10, 17),
    # 0 and 45 traced: 90, 405 and 450 reflect 0, 45 and 0 across y = x;
    # 270 turns 0 by 270; 135 and 180 flip 45 and 0 in X, 315 and 360 flip
    # 45 and 0 in Y, and 225 turns 45 by 180
    "0-450-45deg": (replace(SMALL_GEOM, angle_end=450.0, angle_increment=45.0),
                    16, 16, 4.0, 2, 5, 4),
    # not symmetric as a whole (0 has no 180), yet 10-170 pair up
    "0-170-5deg": (replace(SMALL_GEOM, angle_end=170.0, angle_increment=5.0),
                   16, 16, 4.0, 10, 8, 17),
    "rectangular": (replace(SMALL_GEOM, angle_increment=5.0), 32, 16, 4.0, 19, 18, 0),
    # the flips and the half turn, but no transpose: 0-90 traced
    "rectangular-0-345-15deg": (replace(SMALL_GEOM, angle_end=345.0, angle_increment=15.0),
                                32, 16, 4.0, 7, 17, 0),
}


# Largest gap between an applied view and its fresh trace, as a share of the
# largest weight, where it is not 1e-12: fresh traces of views near 185 and
# 275 degrees carry the rounding of their larger angles (1.6e-12 at most)
FRESH_TRACE_TOL = {"64-0-359-1deg": 2e-12}


def symmetry_projector(name):
    geom, width, height, pixel, *_ = SYMMETRY_SCANS[name]
    return Projector(geom, width, height, pixel)


def transposed_views(proj):
    """The views applied through a transpose: reflected or rotated."""
    return [view for view, (_, frame) in enumerate(proj._symmetry) if frame[2]]


def assert_views_equal_fresh_traces(proj, views, share=1e-12):
    """Each of ``views`` as the projector applies it equals its fresh trace
    to ``share`` of the largest weight: matrix, forward view and sums; its
    row sums are its traced view's row divisors, bit for bit."""
    rng = np.random.default_rng(25)
    for view in views:
        fresh = traced_matrix(proj, view)
        tol = share * fresh.max()
        assert abs(applied_matrix(proj, view) - fresh).max() <= tol, view
        f = rng.uniform(0.0, 0.04, (proj.height, proj.width))
        npt.assert_allclose(proj.forward_view(f, view), fresh @ f.ravel(),
                            rtol=1e-12, atol=tol)
        sums = proj.view_sums(view)
        npt.assert_allclose(sums.row_sums, fresh.sum(axis=1), rtol=0,
                            atol=tol * proj.width)
        npt.assert_allclose(sums.col_sums.ravel(), fresh.sum(axis=0), rtol=0,
                            atol=tol * proj.geom.detector_channels)
        # the traced view's own row divisors, bit for bit, reversed under a
        # reflection; a divisor is 1 where its ray misses the grid
        stored, _, step = proj._stored(view)
        npt.assert_array_equal(np.where(sums.row_sums == 0.0, 1.0, sums.row_sums),
                               stored.row_divisors[::step])


def assert_counts(proj, traced, mirrored, reflected):
    """How many views are traced, mirrored and reflected, and every view's
    frame maps its traced view's source onto its own."""
    assert proj.mirrored_views == mirrored
    assert proj.reflected_views == reflected
    sources = [source for source, _ in proj._symmetry]
    assert sorted(set(sources)) == [view for view, source in enumerate(sources)
                                    if view == source]
    assert len(set(sources)) == traced == len(sources) - mirrored - reflected
    assert_frames_map_the_sources(proj)
    # the X flip is the first map tried
    for view, (source, frame) in enumerate(proj._symmetry):
        if source != view and congruent(proj.angles_deg[source]
                                         + proj.angles_deg[view], 180.0):
            assert frame == (True, False, False)


def assert_stores_the_traced_views(proj, traced):
    """A fresh projector stores nothing; after ``forward`` it keeps the
    ``traced`` views' fresh traces, byte for byte, and ``nbytes`` counts them."""
    assert proj.nbytes == 0
    proj.forward(np.ones((proj.height, proj.width)))
    assert len(proj._views) == traced
    # float64 weights, int32 indices, and the split layout's two indptr
    # halves: 4 x channels bytes per view more than one row per ray
    channels, pixels = proj.geom.detector_channels, proj.width * proj.height
    expected = 0
    for view, stored in proj._views.items():
        matrix = stored.matrix
        assert matrix.shape == (2 * channels, pixels)
        assert matrix.indices.dtype == matrix.indptr.dtype == np.int32
        expected += 12 * matrix.nnz + 4 * (2 * channels + 1) + 8 * (channels + pixels)
        fresh = proj._trace(view)
        assert stored.bands == fresh.bands
        for name in ("data", "indices", "indptr"):
            assert getattr(matrix, name).tobytes() == getattr(fresh.matrix, name).tobytes()
        assert stored.row_divisors.tobytes() == fresh.row_divisors.tobytes()
        assert stored.col_divisors.tobytes() == fresh.col_divisors.tobytes()
    assert proj.nbytes == expected


class TestViewSymmetry:
    @pytest.fixture(params=sorted(SYMMETRY_SCANS))
    def scan(self, request):
        return symmetry_projector(request.param), SYMMETRY_SCANS[request.param][4:], request.param

    def test_views_equal_fresh_traces(self, scan):
        proj, _, name = scan
        assert_views_equal_fresh_traces(proj, range(len(proj.angles_deg)),
                                        FRESH_TRACE_TOL.get(name, 1e-12))

    def test_adjoint_identity(self, scan):
        proj, _, _ = scan
        assert_adjoint_identity(proj, range(len(proj.angles_deg)), seed=26)

    def test_sart_matches_dense_oracle(self, scan):
        proj, _, _ = scan
        # the first mirrored, reflected and rotated view, where the scan has one
        first = {}
        for view, (_, frame) in enumerate(proj._symmetry):
            if any(frame):
                first.setdefault(frame, view)
        assert (True, False, False) in first
        for view in first.values():
            assert_sart_matches_dense_oracle(proj, view, seed=27 + view)

    @pytest.mark.parametrize("name, view, frame, seed", [
        ("small-0-180", 10, (True, False, False), 20),
        ("0-180-5deg", 12, (False, False, True), 36),  # 60 from 30 degrees
        ("0-180-5deg", 18, (False, False, True), 42),  # 90 from 0
    ], ids=["small-0-180-10", "0-180-5deg-12", "0-180-5deg-18"])
    def test_coarse_sart_matches_dense_oracle(self, name, view, frame, seed):
        # an 8 x 8 grid of 16 mm pixels: 64 pixels, all within the fan
        proj = Projector(SYMMETRY_SCANS[name][0], 8, 8, 16.0)
        assert proj._stored(view)[1] == frame
        assert_sart_matches_dense_oracle(proj, view, seed=seed)

    def test_counts(self, scan):
        proj, counts, _ = scan
        assert_counts(proj, *counts)

    def test_nbytes_is_the_traced_views(self, scan):
        proj, (traced, _, _), _ = scan
        assert_stores_the_traced_views(proj, traced)


class TestMirrorSharing:
    """Scans whose second half of views flips the first half in X."""

    def test_adjoint_identity_on_mirrored_views(self):
        assert_adjoint_identity(small_projector(), range(8, SMALL_GEOM.num_views), seed=19)

    @pytest.mark.parametrize("scan", ["degeneracy-64", "small-0-180"])
    def test_symmetric_scan_stores_half_the_views(self, scan):
        proj = symmetry_projector(scan)
        assert_stores_the_traced_views(proj, -(-proj.geom.num_views // 2))


class TestDiagonalReflection:
    """Square grids whose views beta and 90 - beta are one trace, applied
    through a transpose."""

    @pytest.mark.parametrize("scan", ["64-1deg", "0-180-5deg", "0-450-45deg"], ids=[
        "degeneracy-64-1deg-46-70", "small-0-180-5deg-10-17", "small-0-450-45deg-2-4"])
    def test_reflected_views_equal_fresh_traces(self, scan):
        proj = symmetry_projector(scan)
        assert_counts(proj, *SYMMETRY_SCANS[scan][4:])
        assert_views_equal_fresh_traces(proj, transposed_views(proj))

    def test_adjoint_identity_on_reflected_views(self):
        proj = symmetry_projector("0-180-5deg")
        assert_adjoint_identity(proj, transposed_views(proj), seed=23)

    @pytest.mark.parametrize("scan", ["rectangular", "degeneracy-64"],
                             ids=["non-square", "no-diagonal-partners"])
    def test_every_unmirrored_view_traced(self, scan):
        proj = symmetry_projector(scan)
        assert proj.reflected_views == 0
        assert_stores_the_traced_views(proj, proj.geom.num_views - proj.mirrored_views)

    def test_nbytes_counts_the_reflected_views(self):
        # reflected views store nothing of their own
        proj = symmetry_projector("64-1deg")
        assert_stores_the_traced_views(
            proj, proj.geom.num_views - proj.mirrored_views - proj.reflected_views)


def three_map_symmetry(angles, square):
    """The view-symmetry rule with only the X flip, the transpose and the
    quarter turn, as it stood before the Y flip and the half and
    three-quarter turns: (source, frame) per view."""
    symmetry, traced = [], []
    for j, beta in enumerate(angles):
        for i in traced:
            if congruent(angles[i] + beta, 180.0):
                symmetry.append((i, (True, False, False)))
            elif square and congruent(angles[i] + beta, 90.0):
                symmetry.append((i, (False, False, True)))
            elif square and congruent(beta - angles[i], 90.0):
                symmetry.append((i, (True, False, True)))
            else:
                continue
            break
        else:
            traced.append(j)
            symmetry.append((j, (False, False, False)))
    return symmetry


@pytest.mark.parametrize("geom, width, height, frames", [
    (FanBeamGeometry(1088.0, 544.0, 768, 0.5, 10.0, 170.0, 1.0), 512, 512, 4),
    (FanBeamGeometry(1088.0, 544.0, 384, 1.0, 10.0, 170.0, 4.0), 256, 256, 2),
    (SYMMETRY_SCANS["64-1deg"][0], 64, 64, 4),
    (DEGENERACY_GEOM, 64, 40, 2),
], ids=["full", "fewview", "degeneracy-64-1deg", "degeneracy-64x40"])
def test_scans_within_10_170_keep_their_maps(geom, width, height, frames):
    """The maps added for scans past 180 degrees leave a 10-170 degree scan
    as it was: the same source and frame for every view."""
    proj = Projector(geom, width, height, 1.0)
    assert proj._symmetry == three_map_symmetry(proj.angles_deg.tolist(),
                                                width == height)
    assert len({frame for _, frame in proj._symmetry}) == frames


def test_trace_at_90_degrees_is_the_transposed_0_degree_view():
    # cos(pi/2) is 6e-17, not 0; an inexact direction split corner-grazing
    # rays into a segment and a ~1e-14 mm sliver
    geom = replace(DEGENERACY_GEOM, angle_start=0.0, angle_end=90.0, angle_increment=90.0)
    proj = Projector(geom, 64, 64, 2.0)
    assert proj._stored(1)[1:] == ((False, False, True), -1)
    fresh = ray_major(proj._trace(1).matrix)
    assert fresh.data.min() > 1e-9
    npt.assert_array_equal(fresh.toarray() != 0, applied_matrix(proj, 1).toarray() != 0)


def reference_trace(proj, view_index):
    """The trace as first written, one full-width array per step, kept as
    an oracle: the five arrays ``Projector._trace`` must reproduce byte for
    byte (data, indices, indptr, row divisors, column divisors), then the
    number of rays with a zero direction component and of positive-length
    segments whose midpoint falls outside the grid."""
    geom = proj.geom
    beta = np.radians(proj.angles_deg[view_index])
    direction = np.array([np.cos(beta), np.sin(beta)])
    if proj.angles_deg[view_index] % 90.0 == 0.0:
        direction = np.round(direction) + 0.0
    src = geom.source_to_isocenter * direction
    det_center = -(geom.source_to_detector - geom.source_to_isocenter) * direction
    u_hat = np.array([-direction[1], direction[0]])
    n_chan = geom.detector_channels
    offsets = (np.arange(n_chan) - (n_chan - 1) / 2.0) * geom.channel_size
    targets = det_center[None, :] + offsets[:, None] * u_hat[None, :]
    vec = targets - src[None, :]

    p = proj.pixel_size
    x_planes = proj.x_lo + p * np.arange(proj.width + 1)
    y_planes = proj.y_lo + p * np.arange(proj.height + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tx = (x_planes[None, :] - src[0]) / vec[:, 0:1]
        ty = (y_planes[None, :] - src[1]) / vec[:, 1:2]

    def slab(tvals, v_comp, s_comp, lo, hi):
        first, last = tvals[:, 0], tvals[:, -1]
        inside = (s_comp >= lo) & (s_comp <= hi)
        tmin = np.where(v_comp != 0, np.minimum(first, last),
                        np.where(inside, -np.inf, np.inf))
        tmax = np.where(v_comp != 0, np.maximum(first, last),
                        np.where(inside, np.inf, -np.inf))
        return tmin, tmax

    tx_min, tx_max = slab(tx, vec[:, 0], src[0], x_planes[0], x_planes[-1])
    ty_min, ty_max = slab(ty, vec[:, 1], src[1], y_planes[0], y_planes[-1])
    t_enter = np.maximum(np.maximum(tx_min, ty_min), 0.0)
    t_exit = np.minimum(np.minimum(tx_max, ty_max), 1.0)
    hit = t_enter < t_exit
    t_enter = np.where(hit, t_enter, 0.0)
    t_exit = np.where(hit, t_exit, 0.0)

    alphas = np.concatenate([tx, ty, t_enter[:, None], t_exit[:, None]], axis=1)
    lo = t_enter[:, None]
    alphas = np.where(np.isfinite(alphas), alphas, lo)
    alphas = np.minimum(np.maximum(alphas, lo), t_exit[:, None])
    alphas.sort(axis=1)

    seg = np.diff(alphas, axis=1)
    t_mid = 0.5 * (alphas[:, 1:] + alphas[:, :-1])
    mid_x = src[0] + t_mid * vec[:, 0:1]
    mid_y = src[1] + t_mid * vec[:, 1:2]
    ix = np.floor((mid_x - proj.x_lo) / p).astype(np.int64)
    iy = np.floor((mid_y - proj.y_lo) / p).astype(np.int64)
    in_grid = (ix >= 0) & (ix < proj.width) & (iy >= 0) & (iy < proj.height)
    valid = (seg > 0) & hit[:, None] & in_grid
    ray_len = np.sqrt(np.sum(vec * vec, axis=1))[:, None]
    weights = (seg * ray_len)[valid]
    pixels = (iy * proj.width + ix)[valid].astype(np.int32)
    indptr = np.zeros(n_chan + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(np.count_nonzero(valid, axis=1))
    n_pix = proj.width * proj.height
    matrix = csr_array((weights, pixels, indptr), shape=(n_chan, n_pix))
    row_divisors = matrix @ np.ones(n_pix)
    row_divisors[row_divisors == 0.0] = 1.0
    col_divisors = (matrix.T @ np.ones(n_chan)).reshape(proj.height, proj.width)
    col_divisors[col_divisors == 0.0] = 1.0
    arrays = (matrix.data, matrix.indices, matrix.indptr, row_divisors, col_divisors)
    dropped = np.count_nonzero((seg > 0) & hit[:, None] & ~in_grid)
    return arrays, np.count_nonzero(vec == 0), dropped


# (geometry, width, height, pixel size): the scans the trace oracle covers
ORACLE_SCANS = {
    "10-170-reduced": (DEGENERACY_GEOM, 64, 64, 2.0),
    # the central ray of 15 runs along an axis: zero direction components
    "odd-0-90-180": (replace(SMALL_GEOM, detector_channels=15, angle_increment=90.0),
                     32, 32, 4.0),
    "grid-33x21": (SMALL_GEOM, 33, 21, 4.0),
    # a 32 mm grid under a 64 mm wide fan: the outer rays miss it
    "fan-wider-than-grid": (SMALL_GEOM, 8, 8, 4.0),
    # odd too, and past 180 degrees
    "0-345-15deg": (replace(SMALL_GEOM, detector_channels=17, angle_end=345.0,
                            angle_increment=15.0), 32, 32, 4.0),
    # the central ray crosses grid corners, and rounding puts some midpoints
    # of positive-length segments just outside the grid
    "corner-45deg": (FanBeamGeometry(250.0, 180.0, 9, 1.0, 45.0, 45.0, 1.0), 31, 25, 1.0),
    # the same past the far edges only: one midpoint at column `width`, one
    # at row `height`, and none below 0
    "corner-135deg": (FanBeamGeometry(250.0, 180.0, 9, 1.0, 135.0, 135.0, 1.0),
                      25, 31, 1.0),
    "corner-225deg": (FanBeamGeometry(250.0, 180.0, 9, 1.0, 225.0, 225.0, 1.0),
                      31, 25, 1.0),
}


@pytest.mark.parametrize("scan", sorted(ORACLE_SCANS))
def test_trace_equals_reference_byte_for_byte(scan):
    geom, width, height, pixel = ORACLE_SCANS[scan]
    proj = Projector(geom, width, height, pixel)
    axis_rays = dropped = missed = 0
    for view in range(geom.num_views):
        expected, zeros, outside = reference_trace(proj, view)
        traced = proj._trace(view)
        assert traced.matrix.shape == (2 * geom.detector_channels, width * height)
        assert_runs_in_bands(proj, traced)
        matrix = ray_major(traced.matrix)
        got = (matrix.data, matrix.indices, matrix.indptr, traced.row_divisors,
               traced.col_divisors)
        for name, a, b in zip(("data", "indices", "indptr", "row divisors",
                               "column divisors"), got, expected):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), (view, name)
            assert a.tobytes() == b.tobytes(), (view, name)
        axis_rays += zeros
        dropped += outside
        missed += np.count_nonzero(np.diff(matrix.indptr) == 0)
    # each scan reaches the case it is here for
    assert (axis_rays > 0) == (scan in ("odd-0-90-180", "0-345-15deg"))
    assert (dropped > 0) == scan.startswith("corner")
    if scan == "fan-wider-than-grid":
        assert missed > 0


# the oracle scans, plus the two frame cases no oracle scan has
FORWARD_SCANS = {
    **ORACLE_SCANS,
    "transposes-only-10-80": (replace(SMALL_GEOM, angle_start=10.0, angle_end=80.0,
                                      angle_increment=5.0), 32, 32, 4.0),
    # no two views are related, so one frame and a 1-D product
    "one-frame-10-40": (replace(SMALL_GEOM, angle_start=10.0, angle_end=40.0,
                                angle_increment=5.0), 32, 32, 4.0),
}


def forward_images(height, width):
    """float64, float32, Fortran-order and signed-zero images."""
    rng = np.random.default_rng(28)
    f = rng.uniform(-0.01, 0.04, (height, width))
    signed = np.where(f < 0.0, -0.0, f)
    return {"float64": f, "float32": f.astype(np.float32),
            "fortran": np.asfortranarray(f), "signed-zero": signed}


@pytest.mark.parametrize("scan", sorted(FORWARD_SCANS))
def test_forward_equals_stacked_views_byte_for_byte(scan):
    geom, width, height, pixel = FORWARD_SCANS[scan]
    frames = {frame for _, frame in Projector(geom, width, height, pixel)._symmetry}
    if scan == "transposes-only-10-80":
        assert frames == {(False, False, False), (False, False, True)}
    if scan == "one-frame-10-40":
        assert frames == {(False, False, False)}
    if scan == "0-345-15deg":
        assert len(frames) == 8
    for name, image in forward_images(height, width).items():
        per_view = Projector(geom, width, height, pixel)
        expected = np.stack([per_view.forward_view(image, view)
                             for view in range(geom.num_views)])
        proj = Projector(geom, width, height, pixel)
        for state in ("fresh", "warm"):
            got = proj.forward(image)
            assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
            assert got.tobytes() == expected.tobytes(), (name, state)
        assert sorted(proj._views) == sorted({s for s, _ in proj._symmetry})
        assert proj.nbytes == per_view.nbytes


def reference_sart(proj, values, p_view, view, relaxation):
    """One SART step through the view's ray-major matrix, as scipy's own
    products evaluate it: the order of operations the split layout keeps."""
    traced = proj._trace(view)
    matrix = ray_major(traced.matrix)
    residual = p_view - matrix @ values.ravel()
    residual /= traced.row_divisors
    update = (matrix.T @ residual).reshape(proj.height, proj.width)
    update /= traced.col_divisors
    update *= relaxation
    update += values
    return update


@st.composite
def fuzz_scans(draw):
    """A small scan of one to three views on a grid of any shape: odd
    heights, rectangular grids, fans wider than the grid, sources below the
    grid (190-350 degrees) and exact axis views."""
    width, height = draw(st.integers(1, 24)), draw(st.integers(1, 25))
    pixel = draw(st.sampled_from([0.5, 1.0, 2.5, 4.0]))
    start = draw(st.sampled_from([0.0, 90.0, 180.0, 270.0])
                 | st.floats(0.0, 360.0, allow_nan=False).map(lambda a: round(a, 3)))
    increment = draw(st.sampled_from([90.0, 45.0, 37.5, 7.0]))
    views = draw(st.integers(1, 3))
    geom = FanBeamGeometry(draw(st.sampled_from([160.0, 400.0])), 80.0,
                           draw(st.integers(1, 40)), draw(st.sampled_from([0.5, 1.0, 3.0])),
                           start, start + increment * (views - 1), increment)
    return Projector(geom, width, height, pixel)


_shared_worker: list = []


def shared_worker():
    """One worker thread for every test that splits, whatever the CPU count."""
    if not _shared_worker:
        _shared_worker.append(core._Worker())
    return _shared_worker[0]


# The module globals that decide whether a step splits.
SPLIT_RULES = ("_worker", "_MIN_SPLIT")


@contextmanager
def split_everything():
    """Every product, trace and regularizer block split between this thread
    and a worker, whatever the CPU count and size."""
    saved = [getattr(core, name) for name in SPLIT_RULES]
    core._worker, core._MIN_SPLIT = shared_worker(), 0
    try:
        yield
    finally:
        for name, value in zip(SPLIT_RULES, saved):
            setattr(core, name, value)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(fuzz_scans(), st.integers(0, 2 ** 32 - 1))
def test_split_layout_fuzz(proj, seed):
    """Every traced view of a random scan keeps the reference trace byte for
    byte with its runs in their bands, traced on one core or two, and its
    SART step, ray sums and back-projection keep the bits of the ray-major
    products."""
    rng = np.random.default_rng(seed)
    channels = proj.geom.detector_channels
    for view in range(len(proj.angles_deg)):
        if proj._symmetry[view][0] != view:
            continue
        expected, _, _ = reference_trace(proj, view)
        traced = proj._trace(view)
        assert_runs_in_bands(proj, traced)
        with split_everything():
            split = proj._trace(view)
        assert split.bands == traced.bands
        for name in ("data", "indices", "indptr"):
            assert (getattr(split.matrix, name).tobytes()
                    == getattr(traced.matrix, name).tobytes())
        matrix = ray_major(traced.matrix)
        got = (matrix.data, matrix.indices, matrix.indptr, traced.row_divisors,
               traced.col_divisors)
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()
        f = rng.uniform(0.0, 0.04, (proj.height, proj.width))
        p_view = rng.uniform(0.0, 2.0, channels)
        reference = reference_sart(proj, f, p_view, view, 0.8).tobytes()
        assert proj.sart_update_view(f, p_view, view, 0.8).tobytes() == reference
        with split_everything():
            assert proj.sart_update_view(f, p_view, view, 0.8).tobytes() == reference
        assert proj.forward_view(f, view).tobytes() == (matrix @ f.ravel()).tobytes()
        assert (proj.backproject_view(p_view, view).ravel().tobytes()
                == (matrix.T @ p_view).tobytes())


def test_row_partition_keeps_each_ray_in_order():
    # runs of two rays, split at row 5: ray 0 runs 9, 5 | 3, 1 (high, then
    # low) and ray 1 runs 3 | 7 (low, then high), so neither band order
    # holds for both and each ray keeps one run
    rows = np.array([9.0, 5.0, 3.0, 3.0, 1.0, 7.0])
    ends = np.array([2, 3, 5, 6])
    order, new_ends, first_high = projector_module._row_partition(rows >= 5, ends, True)
    assert first_high is None
    npt.assert_array_equal(rows[order], [9.0, 5.0, 3.0, 1.0, 3.0, 7.0])
    npt.assert_array_equal(new_ends, [4, 6, 6, 6])
    # without ray 1's second run the high-first order holds: ray 1's 3 moves
    # to the second half
    order, new_ends, first_high = projector_module._row_partition(
        rows[:5] >= 5, np.array([2, 3, 5, 5]), True)
    assert first_high is True
    npt.assert_array_equal(rows[:5][order], [9.0, 5.0, 3.0, 1.0, 3.0])
    npt.assert_array_equal(new_ends, [2, 2, 4, 5])
    # rays that run 1, 3 | 5, 9 and 3 | -, low then high, take the
    # low-first order when the high-first one fails
    rows = np.array([1.0, 3.0, 3.0, 5.0, 9.0])
    order, new_ends, first_high = projector_module._row_partition(
        rows >= 5, np.array([2, 3, 5, 5]), True)
    assert first_high is False
    npt.assert_array_equal(rows[order], rows)
    npt.assert_array_equal(new_ends, [2, 3, 5, 5])


def test_exact_axis_views_split_by_rows():
    # the sources of 0 and 180 degrees lie on an even grid's middle boundary:
    # every ray leaves it up or down, so the views take the exact row split
    geom = replace(SMALL_GEOM, angle_increment=90.0)
    proj = Projector(geom, 32, 32, 4.0)
    for view in (0, 2):
        traced = proj._trace(view)
        assert_runs_in_bands(proj, traced)
        assert traced.bands == ((16, 32), (0, 16))
        halves = np.diff(traced.matrix.indptr[::geom.detector_channels])
        assert np.all(halves > 0)


# -- the second core ------------------------------------------------------

SWEEP_SCAN = (replace(SMALL_GEOM, angle_end=350.0, angle_increment=10.0), 32, 24, 4.0)


def sweep(proj, sino, iterations=2):
    f = np.zeros((proj.height, proj.width))
    for _ in range(iterations):
        for view in range(len(proj.angles_deg)):
            f = proj.sart_update_view(f, sino[view], view, 0.8)
    return np.ascontiguousarray(f)


def use_worker(monkeypatch):
    """Every product, trace and regularizer block split, whatever the CPU
    count and size."""
    monkeypatch.setattr(core, "_worker", shared_worker())
    monkeypatch.setattr(core, "_MIN_SPLIT", 0)


@pytest.fixture
def threaded(monkeypatch):
    use_worker(monkeypatch)


@pytest.fixture
def sweep_scene():
    geom, width, height, pixel = SWEEP_SCAN
    truth = np.random.default_rng(29).uniform(0.0, 0.04, (height, width))
    sino = Projector(geom, width, height, pixel).forward(truth)
    return truth, sino


def run_scene(truth, sino):
    proj = Projector(*SWEEP_SCAN)
    return proj.forward(truth), sweep(proj, sino)


def test_threaded_and_inline_give_the_same_bits(monkeypatch, sweep_scene):
    truth, sino = sweep_scene
    monkeypatch.setattr(core, "_worker", False)
    inline = run_scene(truth, sino)
    use_worker(monkeypatch)
    threaded = run_scene(truth, sino)
    for a, b in zip(inline, threaded):
        assert a.tobytes() == b.tobytes()
    assert inline[0].tobytes() == sino.tobytes()


def test_threads_sweeping_their_own_projectors(threaded, sweep_scene):
    # three callers and the worker on a 2-core box, switching the GIL often:
    # a half written into another caller's arrays would change the bits
    truth, sino = sweep_scene
    serial = run_scene(truth, sino)
    results = [None] * 3

    def run(slot):
        results[slot] = run_scene(truth, sino)

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for result in results:
        assert result is not None
        for a, b in zip(result, serial):
            assert a.tobytes() == b.tobytes()


def _sweep_in_child(sino, expected, exits):
    # without the fork handler the child would hand its halves to the
    # parent's worker, a thread it does not have, and wait forever
    exits.put(sweep(Projector(*SWEEP_SCAN), sino).tobytes() == expected)


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_starts_its_own_worker(threaded, sweep_scene):
    _, sino = sweep_scene
    expected = sweep(Projector(*SWEEP_SCAN), sino).tobytes()  # the worker runs
    context = multiprocessing.get_context("fork")
    exits = context.Queue()
    child = context.Process(target=_sweep_in_child, args=(sino, expected, exits))
    child.start()
    try:
        assert exits.get(timeout=120) is True
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


def test_worker_exception_is_raised_not_hung(threaded, monkeypatch, sweep_scene):
    _, sino = sweep_scene
    proj = Projector(*SWEEP_SCAN)
    expected = proj.sart_update_view(np.zeros((24, 32)), sino[3], 3, 0.8)
    kernel = projector_module.csc_matvec

    def fails_on_the_worker(*args):
        if threading.current_thread().name == "latomo-worker":
            raise RuntimeError("worker half failed")
        return kernel(*args)

    monkeypatch.setattr(projector_module, "csc_matvec", fails_on_the_worker)
    with pytest.raises(RuntimeError, match="worker half failed"):
        proj.sart_update_view(np.zeros((24, 32)), sino[3], 3, 0.8)
    monkeypatch.setattr(projector_module, "csc_matvec", kernel)
    # the worker lives on
    got = proj.sart_update_view(np.zeros((24, 32)), sino[3], 3, 0.8)
    assert got.tobytes() == expected.tobytes()
