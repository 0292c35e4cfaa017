"""Matched fan-beam projector pair and the per-view SART update.

One ray per detector channel, traced through the channel center.  Ray/pixel
weights are exact intersection lengths (mm) from parametric traversal of the
pixel grid.  Each view's weights are stored as one sparse matrix
(``scipy.sparse.csr_array``: one row per channel, one column per pixel,
float64 weights, int32 indices), together with its row and column sums;
the forward projection is ``A @ x`` and the back-projection ``A.T @ r``
through the CSC transpose kept with the matrix, which shares its arrays, so
the pair passes adjoint tests to rounding error.  That costs 12 bytes per
traversed (ray, pixel) pair.  Row and column sums are kept as SART divisors
by one rule, a zero sum stored as 1.0: a ray that misses the grid has an
empty row, so its residual is never read, and a pixel no ray crosses has a
back-projected numerator of exactly 0.0, which 0.0 / 1.0 leaves so.

Tracing: all rays of a view are traced at once.  Each ray's parameters at
the X and Y grid planes, then its entry and exit, fill one row of a single
(channels, width + height + 4) float64 buffer, which is clamped to the
grid's span and sorted in place.  Only segments of positive length are
kept; their parameters are gathered out of the buffer, which is then
freed, and their midpoints, pixel ids and weights are computed for those
alone, each temporary freed at its last use.  The in-grid test is four
min/max reductions; a mask is built only when one fails.  A 768-channel
view of a 512 x 512 grid peaks at 14-18 MiB while it is traced, its matrix
and sums (7.3 MiB) included.

Symmetry: the grid is centered on the isocenter, so its symmetries map
the rays of one view onto those of another (all mod 360 degrees).
Flipping X maps view beta onto view 180 - beta, flipping Y onto -beta, and
both (the half turn) onto beta + 180.  On a square grid, transposing maps
it onto 90 - beta, flipping X then transposing onto beta + 90, flipping Y
then transposing onto beta + 270, and all three onto 270 - beta.  Views are
walked in order, and each is applied through the first earlier traced view
it is related to by one of these maps (the X flip, the transpose and the
quarter turn are tried first): the image is mapped into the traced view's
frame and back, and the channels are reversed when the map is a
reflection.  Only views with no such partner are traced and stored.  On a
10-170 degree scan in 1 degree steps, 46 of the 161 views are traced, 45
mirrored and 70 reflected or rotated; on a full 0-359 degree scan, the 46
views 0-45 are traced.

The full forward projection multiplies each traced matrix once: the image is
laid out in each of the k frames the scan uses as the columns of one
C-order (pixels, k) float64 stack, k x pixels x 8 bytes (8 MiB for the four
frames of a 512 x 512 grid), and scipy's multi-vector product fills every
view applied through that matrix in one pass over its entries.  The stack is
built after every view is traced and freed on return.

All operations are plain single-threaded numpy/scipy and bit-reproducible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_array, csr_array

from .core import FanBeamGeometry

log = logging.getLogger(__name__)

# Largest distance (degrees, mod 360) from a symmetry's angle relation at
# which two views still count as related by it.
_SYMMETRY_TOL_DEG = 1e-9


def _congruent(angle: float, target: float) -> bool:
    """Whether ``angle`` equals ``target`` mod 360 degrees."""
    return abs((angle - target + 180.0) % 360.0 - 180.0) <= _SYMMETRY_TOL_DEG


# A frame map: (flip X, flip Y, transpose), applied to an image in that
# order by ``Projector._to_traced``.  It is a reflection when an odd number
# of the three apply; a reflection reverses the channels.
Frame = tuple[bool, bool, bool]
_IDENTITY: Frame = (False, False, False)

# The grid's symmetries other than the identity, each with the angle A that
# relates the views it maps onto each other: beta_i + beta_j = A (mod 360)
# for a reflection, beta_j - beta_i = A for a rotation, where the image of
# view j is seen in the frame of view i.  The maps with a transpose hold on
# square grids only.  The X flip, the transpose and the quarter turn come
# first, so on scans such as 10-170 degrees, where the other four relate no
# further pair, every view keeps the frame those three give it.
_GRID_MAPS: tuple[tuple[Frame, float], ...] = (
    ((True, False, False), 180.0),  # X flip
    ((False, False, True), 90.0),   # transpose: reflection across y = x
    ((True, False, True), 90.0),    # quarter turn
    ((False, True, False), 0.0),    # Y flip
    ((True, True, False), 180.0),   # half turn
    ((False, True, True), 270.0),   # three-quarter turn
    ((True, True, True), 270.0),    # reflection across y = -x
)


def _reflects(frame: Frame) -> bool:
    return sum(frame) % 2 == 1


@dataclass(frozen=True)
class ViewSums:
    """Per-view SART denominators: ray lengths and per-pixel weight sums."""

    row_sums: np.ndarray  # (channels,)   total intersection length per ray, mm
    col_sums: np.ndarray  # (height, width) summed weights per pixel


class Projector:
    """Fan-beam system operator bound to one geometry and one image lattice
    centered on the isocenter.

    Each view with no symmetry partner is traced on first use of it or of a
    view applied through it, and kept; for an experiment-size grid the
    cache holds a few hundred MB (see ``nbytes``).
    """

    def __init__(self, geom: FanBeamGeometry, width: int, height: int,
                 pixel_size: float):
        self.geom = geom
        self.width = int(width)
        self.height = int(height)
        self.pixel_size = float(pixel_size)
        self.x_lo = -self.width * self.pixel_size / 2.0
        self.y_lo = -self.height * self.pixel_size / 2.0
        self.angles_deg = geom.view_angles_deg()
        # traced view -> its (matrix, transpose, row_divisors, col_divisors)
        self._views: dict[int, tuple[csr_array, csc_array, np.ndarray, np.ndarray]] = {}
        # view -> (traced view it is applied through, frame map into it)
        self._symmetry: list[tuple[int, Frame]] = []
        maps = [(frame, angle) for frame, angle in _GRID_MAPS
                if self.width == self.height or not frame[2]]
        angles = self.angles_deg.tolist()
        traced: list[int] = []
        for j, beta in enumerate(angles):
            for i in traced:
                frame = next((frame for frame, angle in maps if _congruent(
                    beta + angles[i] if _reflects(frame) else beta - angles[i], angle)),
                    None)
                if frame is not None:
                    self._symmetry.append((i, frame))
                    break
            else:
                traced.append(j)
                self._symmetry.append((j, _IDENTITY))
        half_diag = float(np.hypot(self.width, self.height)) * self.pixel_size / 2.0
        if half_diag > geom.fov_radius:
            log.info(
                "grid extends %.1f mm from isocenter but the fan covers %.1f mm; "
                "corner rays clip", half_diag, geom.fov_radius,
            )

    # -- geometry ----------------------------------------------------------

    def mismatch(self, width: int, height: int, pixel_size: float,
                 geom: FanBeamGeometry) -> str | None:
        """Name of the first field in which this projector differs from the
        given lattice and scan geometry, or None if none does."""
        fields = [
            ("width", self.width, int(width)),
            ("height", self.height, int(height)),
            ("pixel_size", self.pixel_size, float(pixel_size)),
        ] + [(name, getattr(self.geom, name), getattr(geom, name))
             for name in ("source_to_detector", "source_to_isocenter",
                          "detector_channels", "channel_size")]
        for name, mine, theirs in fields:
            if mine != theirs:
                return name
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

    def _trace(self, view_index: int) -> tuple[csr_array, csc_array, np.ndarray, np.ndarray]:
        """One view's weights as a (channels, pixels) CSR matrix, with its
        CSC transpose (sharing the matrix's arrays), its row sums (channels,)
        and column sums (height, width), every zero replaced by 1.0.

        Rows are filled straight from the ray-major traversal: a pixel that
        a ray enters twice (split at its entry or exit point) keeps two
        entries, which every product sums."""
        geom = self.geom
        beta = np.radians(self.angles_deg[view_index])
        direction = np.array([np.cos(beta), np.sin(beta)])
        if self.angles_deg[view_index] % 90.0 == 0.0:
            # exact axis: cos(pi/2) is 6e-17, which splits corner-grazing rays
            # into a segment and a 1e-14 mm sliver (+ 0.0 turns -0.0 into 0.0)
            direction = np.round(direction) + 0.0
        src = geom.source_to_isocenter * direction
        det_center = -(geom.source_to_detector - geom.source_to_isocenter) * direction
        u_hat = np.array([-direction[1], direction[0]])
        n_chan = geom.detector_channels
        offsets = (np.arange(n_chan) - (n_chan - 1) / 2.0) * geom.channel_size
        targets = det_center[None, :] + offsets[:, None] * u_hat[None, :]
        vec = targets - src[None, :]  # ray spans t in [0, 1]

        p = self.pixel_size
        nx, ny = self.width + 1, self.height + 1
        x_planes = self.x_lo + p * np.arange(nx)
        y_planes = self.y_lo + p * np.arange(ny)
        # one row per ray: the X- and Y-plane parameters, then entry and exit
        alphas = np.empty((n_chan, nx + ny + 2))
        tx, ty = alphas[:, :nx], alphas[:, nx:nx + ny]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(x_planes - src[0], vec[:, 0:1], out=tx)
            np.divide(y_planes - src[1], vec[:, 1:2], out=ty)

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
        t_enter = np.where(hit, t_enter, 0.0)[:, None]
        t_exit = np.where(hit, t_exit, 0.0)[:, None]
        alphas[:, -2:-1] = t_enter
        alphas[:, -1:] = t_exit
        # No segment of positive length comes from a ray that misses (it
        # clamps to [0, 0]), nor from a ray parallel to an axis, whose
        # division by zero there gives +-inf, which clamps to its entry or
        # exit, or nan, which sorts last and compares false.
        np.maximum(alphas, t_enter, out=alphas)
        np.minimum(alphas, t_exit, out=alphas)
        alphas.sort(axis=1)

        # distinct doubles never subtract to 0, so this is `diff > 0`
        keep = alphas[:, 1:] > alphas[:, :-1]
        counts = np.count_nonzero(keep, axis=1)
        lower = alphas[:, :-1][keep]
        t_mid = alphas[:, 1:][keep]
        # Each array is freed at its last use.  Where the trace leaves its
        # freed memory no longer decides the reconstruction's page faults,
        # since the regularizer works in buffers made once per run; it
        # still decides the next trace's.  So the kept weights are made
        # after the temporaries, not in place in `seg`: in place, a warm
        # desk-ssatv2 set-up took 24 k minor faults, not 15 k (glibc,
        # 2-core x86-64).
        del alphas, tx, ty, keep
        seg = t_mid - lower
        t_mid += lower
        del lower
        t_mid *= 0.5

        def cells(t, v_comp, s_comp, lo):
            """Column (or row) of the pixel that holds each midpoint t:
            floor((s + t * v - lo) / p), in a new array."""
            cell = np.repeat(v_comp, counts)
            np.multiply(t, cell, out=cell)
            cell += s_comp
            cell -= lo
            cell /= p
            return np.floor(cell, out=cell)

        ix = cells(t_mid, vec[:, 0], src[0], self.x_lo)
        iy = cells(t_mid, vec[:, 1], src[1], self.y_lo)
        del t_mid
        inside = not ix.size or (ix.min() >= 0 and ix.max() < self.width
                                 and iy.min() >= 0 and iy.max() < self.height)
        valid = None if inside else (
            (ix >= 0) & (ix < self.width) & (iy >= 0) & (iy < self.height))
        iy *= self.width
        iy += ix
        del ix
        weights = seg * np.repeat(np.sqrt(np.sum(vec * vec, axis=1)), counts)
        del seg
        ends = np.cumsum(counts)  # kept entries up to the end of each ray
        if valid is not None:
            weights, iy = weights[valid], iy[valid]
            ends = np.concatenate(([0], np.cumsum(valid)))[ends]
            del valid
        pixels = iy.astype(np.int32)
        del iy
        indptr = np.zeros(n_chan + 1, dtype=np.int32)
        indptr[1:] = ends
        n_pix = self.width * self.height
        matrix = csr_array((weights, pixels, indptr), shape=(n_chan, n_pix))
        transpose = matrix.T
        row_divisors = matrix @ np.ones(n_pix)
        col_divisors = (transpose @ np.ones(n_chan)).reshape(self.height, self.width)
        row_divisors[row_divisors == 0.0] = 1.0
        col_divisors[col_divisors == 0.0] = 1.0
        return matrix, transpose, row_divisors, col_divisors

    def _stored(self, view_index: int) -> tuple[tuple[csr_array, csc_array, np.ndarray,
                                                      np.ndarray],
                                                Frame, int]:
        """The (matrix, transpose, row_divisors, col_divisors) of the traced view
        that applies ``view_index``; the frame map into it (see
        ``_to_traced``); and the channel step, -1 when the map is a
        reflection and the channels run reversed, else 1."""
        self._require_view(view_index)
        source, frame = self._symmetry[view_index]
        stored = self._views.get(source)
        if stored is None:
            stored = self._views[source] = self._trace(source)
        return stored, frame, -1 if _reflects(frame) else 1

    @staticmethod
    def _to_traced(image: np.ndarray, flip_x: bool, flip_y: bool,
                   transposed: bool) -> np.ndarray:
        """An image in a view's frame, seen in its traced view's frame."""
        if flip_x or flip_y:
            image = image[::-1 if flip_y else 1, ::-1 if flip_x else 1]
        return image.T if transposed else image

    @staticmethod
    def _from_traced(image: np.ndarray, flip_x: bool, flip_y: bool,
                     transposed: bool) -> np.ndarray:
        """Inverse of ``_to_traced``."""
        image = image.T if transposed else image
        if flip_x or flip_y:
            image = image[::-1 if flip_y else 1, ::-1 if flip_x else 1]
        return image

    @property
    def mirrored_views(self) -> int:
        """Views applied through a traced view flipped in X, in Y or in both
        (a half turn), without a transpose."""
        return sum(frame != _IDENTITY and not frame[2] for _, frame in self._symmetry)

    @property
    def reflected_views(self) -> int:
        """Views applied through a traced view with a transpose (reflected
        across a diagonal, or turned by 90 or 270 degrees)."""
        return sum(frame[2] for _, frame in self._symmetry)

    @property
    def nbytes(self) -> int:
        """Bytes held by the cached operator: matrices and their sums (the
        transposes share the matrices' arrays)."""
        return sum(
            matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
            + row_divisors.nbytes + col_divisors.nbytes
            for matrix, _, row_divisors, col_divisors in self._views.values()
        )

    # -- operator ----------------------------------------------------------

    def view_sums(self, view_index: int) -> ViewSums:
        (matrix, transpose, _, _), frame, step = self._stored(view_index)
        # recomputed: the stored divisors hold 1.0 where a sum is zero
        row_sums = matrix @ np.ones(matrix.shape[1])
        col_sums = (transpose @ np.ones(matrix.shape[0])).reshape(
            self.height, self.width)
        return ViewSums(row_sums[::step].copy(),
                        self._from_traced(col_sums, *frame).copy())

    def forward_view(self, values: np.ndarray, view_index: int) -> np.ndarray:
        (matrix, _, _, _), frame, step = self._stored(view_index)
        image = self._to_traced(self._image(values), *frame)
        return (matrix @ image.ravel())[::step]

    def backproject_view(self, residual: np.ndarray, view_index: int) -> np.ndarray:
        residual = np.asarray(residual, dtype=np.float64)
        if residual.shape != (self.geom.detector_channels,):
            raise ValueError("residual length must equal detector_channels")
        (_, transpose, _, _), frame, step = self._stored(view_index)
        back = (transpose @ residual[::step]).reshape(self.height, self.width)
        return self._from_traced(back, *frame)

    def forward(self, values: np.ndarray) -> np.ndarray:
        """The sinogram (views, channels), bit for bit ``forward_view`` on
        each view: scipy's multi-vector product sums each column in the
        order of its single-vector product."""
        users: dict[int, list[tuple[int, int, int]]] = {}
        columns: dict[Frame, int] = {}
        for view, (source, frame) in enumerate(self._symmetry):
            column = columns.setdefault(frame, len(columns))
            users.setdefault(source, []).append(
                (view, column, -1 if _reflects(frame) else 1))
        # every trace first, so no trace's temporaries overlap the stack
        stored = {source: self._stored(source)[0][0] for source in users}
        image = self._image(values)
        stack = np.empty((image.size, len(columns)))
        for frame, column in columns.items():
            traced = self._to_traced(image, *frame)
            stack.reshape(*traced.shape, len(columns))[..., column] = traced
        # one vector is faster through the single-vector product
        operand = stack[:, 0] if len(columns) == 1 else stack
        channels = self.geom.detector_channels
        out = np.empty((len(self.angles_deg), channels))
        for source, views in users.items():
            product = (stored[source] @ operand).reshape(channels, -1)
            for view, column, step in views:
                out[view] = product[::step, column]
        return out

    def sart_update_view(self, values: np.ndarray, p_view: np.ndarray,
                         view_index: int, relaxation: float) -> np.ndarray:
        """One relaxed SART step for a single view; 0/0 ratios count as 0."""
        if not 0 < relaxation <= 1:
            raise ValueError("relaxation must be in (0, 1]")
        (matrix, transpose, row_divisors, col_divisors), frame, step = self._stored(
            view_index)
        image = self._to_traced(self._image(values), *frame)
        residual = p_view[::step] - matrix @ image.ravel()
        residual /= row_divisors
        update = (transpose @ residual).reshape(self.height, self.width)
        update /= col_divisors
        update *= relaxation
        update += image
        return self._from_traced(update, *frame)
