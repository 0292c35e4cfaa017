"""Matched fan-beam projector pair and the per-view SART update.

One ray per detector channel, traced through the channel center.  Ray/pixel
weights are exact intersection lengths (mm) from parametric traversal of the
pixel grid.  Each view's weights are stored as one sparse matrix
(``scipy.sparse.csr_array``: one row per channel, one column per pixel,
float64 weights, int32 indices), together with its row and column sums;
the forward projection is ``A @ x`` and the back-projection the copy-free
transpose product ``A.T @ r``, so the pair passes adjoint tests to rounding
error.  That costs 12 bytes per traversed (ray, pixel) pair.

Mirror sharing: when the grid is centered in X and the view angles pair up
as ``angles[k] + angles[V-1-k] == 180`` degrees, view ``V-1-k`` is the mirror
image of view ``k`` across the Y axis.  Only view ``k`` is traced and
stored; view ``V-1-k`` is applied through it with the channels reversed and
the image flipped in X, which halves the trace time and the memory of a
symmetric scan.  Otherwise every view is traced.  All operations are plain
single-threaded numpy/scipy and bit-reproducible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from .core import FanBeamGeometry

log = logging.getLogger(__name__)

# Largest |angles[k] + angles[V-1-k] - 180| (degrees) that still counts as a
# mirror pair.
_MIRROR_TOL_DEG = 1e-9


@dataclass(frozen=True)
class ViewSums:
    """Per-view SART denominators: ray lengths and per-pixel weight sums."""

    row_sums: np.ndarray  # (channels,)   total intersection length per ray, mm
    col_sums: np.ndarray  # (height, width) summed weights per pixel


class Projector:
    """Fan-beam system operator bound to one geometry and one image lattice.

    Each view is traced on first use and kept; for an experiment-size grid
    the cache holds a few hundred MB (see ``nbytes``).
    """

    def __init__(self, geom: FanBeamGeometry, width: int, height: int,
                 pixel_size: float, origin=(0.0, 0.0)):
        if geom.source_to_detector <= 0 or geom.source_to_isocenter <= 0:
            raise ValueError("degenerate geometry")
        self.geom = geom
        self.width = int(width)
        self.height = int(height)
        self.pixel_size = float(pixel_size)
        self.origin = (float(origin[0]), float(origin[1]))
        self.x_lo = -self.width * self.pixel_size / 2.0 + self.origin[0]
        self.y_lo = -self.height * self.pixel_size / 2.0 + self.origin[1]
        self.angles_deg = geom.view_angles_deg()
        self._views: dict[int, tuple[csr_array, np.ndarray, np.ndarray]] = {}
        views = np.arange(len(self.angles_deg))
        pair_sums = self.angles_deg + self.angles_deg[::-1]
        symmetric = (self.origin[0] == 0.0
                     and bool(np.all(np.abs(pair_sums - 180.0) <= _MIRROR_TOL_DEG)))
        self._mirrored = symmetric & (views > views[::-1])
        half_diag = float(np.hypot(self.width, self.height)) * self.pixel_size / 2.0
        grid_reach = half_diag + float(np.hypot(*self.origin))
        if grid_reach > geom.fov_radius:
            log.info(
                "grid extends %.1f mm from isocenter but the fan covers %.1f mm; "
                "corner rays clip", grid_reach, geom.fov_radius,
            )

    # -- geometry ----------------------------------------------------------

    def mismatch(self, width: int, height: int, pixel_size: float,
                 origin=(0.0, 0.0), geom: FanBeamGeometry | None = None) -> str | None:
        """Name of the first field in which this projector differs from the
        given lattice (and scan geometry, when given), or None if none does."""
        fields = [
            ("width", self.width, int(width)),
            ("height", self.height, int(height)),
            ("pixel_size", self.pixel_size, float(pixel_size)),
            ("origin", self.origin, (float(origin[0]), float(origin[1]))),
        ]
        if geom is not None:
            fields += [(name, getattr(self.geom, name), getattr(geom, name))
                       for name in ("source_to_detector", "source_to_isocenter",
                                    "detector_channels", "channel_size")]
        for name, mine, theirs in fields:
            if mine != theirs:
                return name
        if geom is not None:
            angles = geom.view_angles_deg()
            if (angles.shape != self.angles_deg.shape
                    or not np.allclose(angles, self.angles_deg, rtol=0.0, atol=1e-9)):
                return "view angles"
        return None

    def _require_view(self, view_index: int):
        if not 0 <= view_index < len(self.angles_deg):
            raise IndexError(f"view index {view_index} out of range")

    def _image(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64).reshape(self.height, self.width)

    def _trace(self, view_index: int) -> tuple[csr_array, np.ndarray, np.ndarray]:
        """One view's weights as a (channels, pixels) CSR matrix, with its
        row sums (channels,) and column sums (height, width).

        Rows are filled straight from the ray-major traversal: a pixel that
        a ray enters twice (split at its entry or exit point) keeps two
        entries, which every product sums."""
        geom = self.geom
        beta = np.radians(self.angles_deg[view_index])
        direction = np.array([np.cos(beta), np.sin(beta)])
        src = geom.source_to_isocenter * direction
        det_center = -(geom.source_to_detector - geom.source_to_isocenter) * direction
        u_hat = np.array([-direction[1], direction[0]])
        n_chan = geom.detector_channels
        offsets = (np.arange(n_chan) - (n_chan - 1) / 2.0) * geom.channel_size
        targets = det_center[None, :] + offsets[:, None] * u_hat[None, :]
        vec = targets - src[None, :]  # ray spans t in [0, 1]

        p = self.pixel_size
        x_planes = self.x_lo + p * np.arange(self.width + 1)
        y_planes = self.y_lo + p * np.arange(self.height + 1)
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

        alphas = np.concatenate(
            [tx, ty, t_enter[:, None], t_exit[:, None]], axis=1
        )
        lo = t_enter[:, None]
        alphas = np.where(np.isfinite(alphas), alphas, lo)
        alphas = np.minimum(np.maximum(alphas, lo), t_exit[:, None])
        alphas.sort(axis=1)

        seg = np.diff(alphas, axis=1)
        t_mid = 0.5 * (alphas[:, 1:] + alphas[:, :-1])
        mid_x = src[0] + t_mid * vec[:, 0:1]
        mid_y = src[1] + t_mid * vec[:, 1:2]
        ix = np.floor((mid_x - self.x_lo) / p).astype(np.int64)
        iy = np.floor((mid_y - self.y_lo) / p).astype(np.int64)
        valid = (
            (seg > 0)
            & hit[:, None]
            & (ix >= 0) & (ix < self.width)
            & (iy >= 0) & (iy < self.height)
        )
        ray_len = np.sqrt(np.sum(vec * vec, axis=1))[:, None]
        weights = (seg * ray_len)[valid]
        pixels = (iy * self.width + ix)[valid].astype(np.int32)
        indptr = np.zeros(n_chan + 1, dtype=np.int32)
        indptr[1:] = np.cumsum(np.count_nonzero(valid, axis=1))
        n_pix = self.width * self.height
        matrix = csr_array((weights, pixels, indptr), shape=(n_chan, n_pix))
        row_sums = matrix @ np.ones(n_pix)
        col_sums = (matrix.T @ np.ones(n_chan)).reshape(self.height, self.width)
        return matrix, row_sums, col_sums

    def _stored(self, view_index: int) -> tuple[csr_array, np.ndarray, np.ndarray, bool]:
        """(matrix, row_sums, col_sums, flipped) for one view.

        A flipped view is the mirror image of the returned one: apply it with
        the channels reversed and the image flipped in X."""
        self._require_view(view_index)
        flipped = bool(self._mirrored[view_index])
        source = len(self.angles_deg) - 1 - view_index if flipped else view_index
        stored = self._views.get(source)
        if stored is None:
            stored = self._views[source] = self._trace(source)
        return (*stored, flipped)

    @property
    def mirrored_views(self) -> int:
        """Views applied through their mirror partner instead of being traced."""
        return int(np.count_nonzero(self._mirrored))

    @property
    def nbytes(self) -> int:
        """Bytes held by the cached operator: matrices and their sums."""
        return sum(
            matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
            + row_sums.nbytes + col_sums.nbytes
            for matrix, row_sums, col_sums in self._views.values()
        )

    # -- operator ----------------------------------------------------------

    def view_sums(self, view_index: int) -> ViewSums:
        _, row_sums, col_sums, flipped = self._stored(view_index)
        if flipped:
            row_sums, col_sums = row_sums[::-1], col_sums[:, ::-1]
        return ViewSums(row_sums.copy(), col_sums.copy())

    def forward_view(self, values: np.ndarray, view_index: int) -> np.ndarray:
        matrix, _, _, flipped = self._stored(view_index)
        image = self._image(values)
        if flipped:
            return (matrix @ image[:, ::-1].ravel())[::-1]
        return matrix @ image.ravel()

    def backproject_view(self, residual: np.ndarray, view_index: int) -> np.ndarray:
        residual = np.asarray(residual, dtype=np.float64)
        if residual.shape != (self.geom.detector_channels,):
            raise ValueError("residual length must equal detector_channels")
        matrix, _, _, flipped = self._stored(view_index)
        if flipped:
            back = matrix.T @ residual[::-1]
            return back.reshape(self.height, self.width)[:, ::-1]
        return (matrix.T @ residual).reshape(self.height, self.width)

    def forward(self, values: np.ndarray) -> np.ndarray:
        out = np.empty((len(self.angles_deg), self.geom.detector_channels))
        for i in range(len(self.angles_deg)):
            out[i] = self.forward_view(values, i)
        return out

    def sart_update_view(self, values: np.ndarray, p_view: np.ndarray,
                         view_index: int, relaxation: float) -> np.ndarray:
        """One relaxed SART step for a single view; 0/0 ratios count as 0."""
        if not 0 < relaxation <= 1:
            raise ValueError("relaxation must be in (0, 1]")
        matrix, row_sums, col_sums, flipped = self._stored(view_index)
        image = self._image(values)
        if flipped:
            image, p_view = image[:, ::-1], p_view[::-1]
        residual = p_view - matrix @ image.ravel()
        scaled = np.divide(
            residual, row_sums, out=np.zeros_like(residual), where=row_sums > 0,
        )
        # A pixel with a zero column sum has no entries, so its numerator is
        # already 0 and the in-place division may skip it.
        update = (matrix.T @ scaled).reshape(self.height, self.width)
        np.divide(update, col_sums, out=update, where=col_sums > 0)
        update *= relaxation
        update += image
        return update[:, ::-1] if flipped else update

