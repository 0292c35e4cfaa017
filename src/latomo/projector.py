"""Matched fan-beam projector pair and the per-view SART update.

One ray per detector channel, traced through the channel center.  Ray/pixel
weights are exact intersection lengths (mm) from parametric traversal of the
pixel grid.  Each view's weights are stored as one sparse matrix
(``scipy.sparse.csr_array``, float64 weights, int32 indices) with its row
and column sums; the forward projection and the back-projection run
scipy's own CSR and CSC kernels on the same arrays, so the pair passes
adjoint tests to rounding error.  That costs 12 bytes per traversed (ray,
pixel) pair.  Row and column sums are kept as SART divisors by one rule, a
zero sum stored as 1.0: a ray that misses the grid has no entries, so its
residual is never read, and a pixel no ray crosses has a back-projected
numerator of exactly 0.0, which 0.0 / 1.0 leaves so.

Layout: a ray's pixel rows are monotone along it, since every step that
computes them rounds monotonically.  So its entries form one run in the
grid half on its source's side of the middle row boundary (the Y plane at
row ``height // 2``), then one run in the other half.  The matrix has two
rows per ray: row c holds ray c's first run and row channels + c the rest,
in traversal order; that is the ray-major matrix's entries and bytes plus
one more ``indptr`` half (4 x channels bytes).  Each half of the rows owns
one band of image rows, recorded with the matrix.  The trace splits each
ray where it crosses the boundary and confirms the bands with two min/max
reductions; when a sliver rounds across the boundary, or the source lies
on it (0 and 180 degrees on an even grid), it splits the entries by row
instead, and where no band order suits every ray (never seen), a view keeps
one run per ray and one band for all rows.

Two cores: a ray's sum runs over its first run, then over its second, and
a pixel's back-projected value sums over the channels in order whichever
band it is in.  So one core can take half of the rays (forward) or one
band (back-projection, then the divide, scale and add of the SART step)
while the other takes the rest, and every result has the bits of the
ray-major, single-threaded products.  Each such step is a task over a
slice of the rays (or of the two run halves) handed to ``core._split``,
which runs the second half on the process's worker thread, shared with the
regularizer; scipy's kernels and numpy release the GIL while they run.
Below the size rule of :mod:`latomo.core`, counted in stored entries
(plane parameters in the trace), the task runs once over every ray or
band on the calling thread, with the same bits.

Tracing: all rays of a view are traced at once.  Each ray's parameters at
the X and Y grid planes, then its entry and exit, fill one row of a single
(channels, width + height + 4) float64 buffer, which is clamped to the
grid's span and sorted in place; masks mark the segments of positive
length that end by the ray's crossing and after it.  Only those segments'
ends are gathered out of the buffer, straight into the arrays that become
their pixel ids and weights, and their midpoints, pixel ids and weights
are computed there, for those alone.  Each core does this for half of the
rays, in arrays the calling thread makes (the segments' positions and ray
ids among them), so the worker allocates nothing and its heap stays
empty.  The in-grid test is four min/max reductions per half; a mask is
built only when one fails.  A 768-channel view of a 512 x 512 grid peaks at 25-26 MiB
while it is traced, its matrix and sums (7.3 MiB) included, since the
output arrays are made while the parameter buffer is still in use.

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
view applied through that matrix in one pass over its entries, each core
taking half of every matrix's rays.  The stack is built after every view is
traced and freed on return.

Every result is bit-reproducible, and independent of the CPU count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse._sparsetools import csc_matvec, csr_matvec, csr_matvecs

from .core import FanBeamGeometry, _split, check_lattice

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

# The image rows [top, bottom) of a traced view's first and second run half.
Bands = tuple[tuple[int, int], tuple[int, int]]

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


def _add_ray_sums(matrix: csr_array, x: np.ndarray, out: np.ndarray, rays: slice) -> None:
    """Adds to ``out`` ((n,) or (n, k), C-contiguous) the sums of ``x``
    ((pixels,) or (pixels, k), C-contiguous) along the n rays ``rays``: each
    ray's first run, then its second, so every sum runs in the ray's order
    and has the bits of the ray-major product."""
    channels, pixels = matrix.shape[0] // 2, matrix.shape[1]
    for first in (rays.start, channels + rays.start):
        indptr = matrix.indptr[first:first + len(out) + 1]
        if x.ndim == 1:
            csr_matvec(len(out), pixels, indptr, matrix.indices, matrix.data, x, out)
        else:
            csr_matvecs(len(out), pixels, x.shape[1], indptr, matrix.indices,
                        matrix.data, x.ravel(), out.ravel())


def _back_band(matrix: csr_array, bands: Bands, residual: np.ndarray, out: np.ndarray,
               halves: slice) -> slice:
    """Writes the back-projection of ``residual`` (channels,) through the
    run halves ``halves`` (of 0 and 1) into the rows of ``out`` (height,
    width, C-contiguous) that they own, and returns those rows.  Each
    pixel sums in channel order."""
    channels = matrix.shape[0] // 2
    # the two halves' bands split the rows between them
    top, bottom = bands[halves.start] if halves.stop - halves.start == 1 else (0, len(out))
    out[top:bottom].fill(0.0)
    for half in range(halves.start, halves.stop):
        csc_matvec(matrix.shape[1], channels,
                   matrix.indptr[half * channels:(half + 1) * channels + 1],
                   matrix.indices, matrix.data, residual, out.ravel())
    return slice(top, bottom)


def _bands(middle: int, height: int, first_high: bool) -> Bands:
    """The row bands of the first and second run halves: the first at or
    above row ``middle`` when ``first_high``, else below it."""
    high, low = (middle, height), (0, middle)
    return (high, low) if first_high else (low, high)


def _beyond(pixels: np.ndarray, boundary: int, high: bool) -> bool:
    """Whether all ``pixels`` (ids, each within the grid) lie at or above
    ``boundary`` when ``high``, else below it."""
    if not pixels.size:
        return True
    return bool(pixels.min() >= boundary if high else pixels.max() < boundary)


def _row_partition(high: np.ndarray, ends: np.ndarray,
                   source_high: bool) -> tuple[np.ndarray, np.ndarray, bool | None]:
    """The exact split by row band, for a trace whose split at the crossing
    failed its check.  ``high`` tells, entry by entry in that split's
    layout, whether the entry lies at or above the middle row, and ``ends``
    is the end of each of its 2 x channels runs.  Returns the order that
    takes the entries to the new layout, its run ends, and whether its first
    half is the high band.  Each ray's entries in the first half's band must
    come first along it; when neither band order holds for every ray, each
    ray keeps a single run, and the third value is None."""
    channels = len(ends) // 2
    ray = np.repeat(np.tile(np.arange(channels), 2), np.diff(ends, prepend=0))
    traversal = np.argsort(ray, kind="stable")  # each ray's entries, in its order
    same_ray = ray[traversal][1:] == ray[traversal][:-1]
    for first_high in (source_high, not source_high):
        second = high != first_high
        along = second[traversal]
        if not np.any(same_ray & ~along[1:] & along[:-1]):
            counts = np.bincount(ray + channels * second, minlength=2 * channels)
            return np.lexsort((ray, second)), np.cumsum(counts), first_high
    single = np.concatenate((np.bincount(ray, minlength=channels), np.zeros(channels, int)))
    return traversal, np.cumsum(single), None


@dataclass(frozen=True)
class ViewSums:
    """Per-view SART denominators: ray lengths and per-pixel weight sums."""

    row_sums: np.ndarray  # (channels,)   total intersection length per ray, mm
    col_sums: np.ndarray  # (height, width) summed weights per pixel


class _View(NamedTuple):
    """A traced view.  ``matrix`` is (2 x channels, pixels): row c holds
    ray c's first run, row channels + c its second.  ``bands`` are the
    image rows [top, bottom) that each run half's entries lie in."""

    matrix: csr_array
    bands: Bands
    row_divisors: np.ndarray  # (channels,)
    col_divisors: np.ndarray  # (height, width)


class Projector:
    """Fan-beam system operator bound to one geometry and one image lattice
    centered on the isocenter.

    Each view with no symmetry partner is traced on first use of it or of a
    view applied through it, and kept; for an experiment-size grid the
    cache holds a few hundred MB (see ``nbytes``).
    """

    def __init__(self, geom: FanBeamGeometry, width: int, height: int,
                 pixel_size: float):
        check_lattice(width, height, pixel_size)
        self.geom = geom
        self.width = int(width)
        self.height = int(height)
        self.pixel_size = float(pixel_size)
        self.x_lo = -self.width * self.pixel_size / 2.0
        self.y_lo = -self.height * self.pixel_size / 2.0
        self.angles_deg = geom.view_angles_deg()
        self._views: dict[int, _View] = {}  # by traced view
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

    def _trace(self, view_index: int) -> _View:
        """One view's weights, with its row sums (channels,) and column sums
        (height, width), every zero replaced by 1.0.

        Each ray's entries run in traversal order, split in two runs: those
        before the ray crosses the middle row boundary (the Y plane at row
        ``height // 2``), in the grid half on its source's side, and the
        rest.  A pixel that a ray enters twice (split at its entry or exit
        point) keeps two entries, which every product sums."""
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
        middle = self.height // 2

        def plane_params(planes, s_comp, v_comp):
            """(planes - s) / v, one row per ray."""
            return np.divide(planes - s_comp, v_comp[:, None])

        def slab(planes, v_comp, s_comp):
            first, last = plane_params(planes[[0, -1]], s_comp, v_comp).T
            inside = (s_comp >= planes[0]) & (s_comp <= planes[-1])
            tmin = np.where(v_comp != 0, np.minimum(first, last),
                            np.where(inside, -np.inf, np.inf))
            tmax = np.where(v_comp != 0, np.maximum(first, last),
                            np.where(inside, np.inf, -np.inf))
            return tmin, tmax

        with np.errstate(divide="ignore", invalid="ignore"):
            tx_min, tx_max = slab(x_planes, vec[:, 0], src[0])
            ty_min, ty_max = slab(y_planes, vec[:, 1], src[1])
            # where each ray crosses the middle row boundary; +inf where it
            # never does (nan, or behind the source)
            cross = plane_params(y_planes[middle:middle + 1], src[1], vec[:, 1])[:, 0]
        cross[~(cross >= 0.0)] = np.inf
        t_enter = np.maximum(np.maximum(tx_min, ty_min), 0.0)
        t_exit = np.minimum(np.minimum(tx_max, ty_max), 1.0)
        hit = t_enter < t_exit
        t_enter = np.where(hit, t_enter, 0.0)[:, None]
        t_exit = np.where(hit, t_exit, 0.0)[:, None]
        ray_len = np.sqrt(np.sum(vec * vec, axis=1))
        # One row per ray: the X- and Y-plane parameters, then entry and
        # exit, clamped to them and sorted; then which of its segments have
        # positive length and end by the crossing (runs[0]) or after it
        # (runs[1]).  runs has one column more than the segments, always
        # False, so a run's mask, flattened, picks segment starts out of the
        # flattened rows and, shifted by one, their ends.  Each core takes
        # half of the rays, in arrays made here.
        width = nx + ny + 2
        alphas = np.empty((n_chan, width))
        keep = np.empty((n_chan, width - 1), dtype=bool)
        runs = np.zeros((2, n_chan, width), dtype=bool)
        counts = np.empty((2, n_chan), dtype=np.intp)

        def fill(rays):
            rows = alphas[rays]
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(x_planes - src[0], vec[rays, 0:1], out=rows[:, :nx])
                np.divide(y_planes - src[1], vec[rays, 1:2], out=rows[:, nx:nx + ny])
            rows[:, -2:-1] = t_enter[rays]
            rows[:, -1:] = t_exit[rays]
            # No segment of positive length comes from a ray that misses (it
            # clamps to [0, 0]), nor from a ray parallel to an axis, whose
            # division by zero there gives +-inf, which clamps to its entry
            # or exit, or nan, which sorts last and compares false.
            np.maximum(rows, t_enter[rays], out=rows)
            np.minimum(rows, t_exit[rays], out=rows)
            rows.sort(axis=1)
            # distinct doubles never subtract to 0, so this is `diff > 0`
            np.greater(rows[:, 1:], rows[:, :-1], out=keep[rays])
            first, second = runs[0, rays, :-1], runs[1, rays, :-1]
            np.less_equal(rows[:, 1:], cross[rays, None], out=first)
            np.logical_not(first, out=second)
            first &= keep[rays]
            second &= keep[rays]
            counts[:, rays] = np.count_nonzero(runs[:, rays], axis=2)

        _split(fill, n_chan, alphas.size)
        del keep
        # Each kept segment's pixel and weight, in the order of the matrix:
        # all first runs, ray by ray, then all second runs.  Each core
        # gathers and computes its rays' slice of each run half, in place:
        # the column slice first holds the segments' starts, the row slice
        # their ends, then midpoints, and the weight slice their lengths.
        # This thread makes every per-entry array, the segments' positions
        # in `runs` among them, so the worker only writes into them and its
        # heap keeps nothing.  Run r (ray r, or ray r - channels in the
        # second half) holds the kept entries ends[r]:ends[r + 1].
        ends = np.zeros(2 * n_chan + 1, dtype=np.intp)
        np.cumsum(counts, out=ends[1:])
        total = int(ends[-1])
        ix, iy, weights = np.empty(total), np.empty(total), np.empty(total)
        at, factor = np.flatnonzero(runs), np.empty(total)
        rows = alphas.ravel()
        directions = (np.ascontiguousarray(vec[:, 0]), np.ascontiguousarray(vec[:, 1]))

        def cells(rays):
            """Whether every pixel id of the rays' entries lies in the grid."""
            inside = True
            for run in (0, 1):
                first = run * n_chan
                entries = slice(ends[first + rays.start], ends[first + rays.stop])
                if entries.start == entries.stop:
                    continue
                where, scale = at[entries], factor[entries]
                where -= run * rows.size  # each run's mask spans `alphas`
                column = np.take(rows, where, out=ix[entries], mode="clip")
                row = np.take(rows[1:], where, out=iy[entries], mode="clip")
                seg = np.subtract(row, column, out=weights[entries])
                row += column
                row *= 0.5
                ray = np.floor_divide(where, width, out=where)
                # the pixel that holds each midpoint t: floor((s + t * v - lo) / p)
                for axis, cell, grid_lo in ((0, column, self.x_lo), (1, row, self.y_lo)):
                    np.multiply(row, np.take(directions[axis], ray, out=scale, mode="clip"),
                                out=cell)
                    cell += src[axis]
                    cell -= grid_lo
                    cell /= p
                    np.floor(cell, out=cell)
                seg *= np.take(ray_len, ray, out=scale, mode="clip")
                inside &= bool(column.min() >= 0 and column.max() < self.width
                               and row.min() >= 0 and row.max() < self.height)
            return inside

        in_grid = all(_split(cells, n_chan, alphas.size))
        del alphas, runs, rows, at, factor
        valid = None if in_grid else (
            (ix >= 0) & (ix < self.width) & (iy >= 0) & (iy < self.height))
        iy *= self.width
        iy += ix
        del ix
        if valid is not None:
            weights, iy = weights[valid], iy[valid]
            ends = np.concatenate(([0], np.cumsum(valid)))[ends]
            del valid
        # Rows are monotone along a ray, since each step of `cells` rounds
        # monotonically, so the first runs lie in the source's half and the
        # second runs in the other, unless a sliver at the crossing rounds
        # across it or the source lies on the boundary.  A pixel id is at
        # or above `boundary` exactly when its row is at or above `middle`.
        source_high = bool(src[1] >= y_planes[middle])
        boundary, split = middle * self.width, int(ends[n_chan])
        bands = _bands(middle, self.height, source_high)
        if not (_beyond(iy[:split], boundary, source_high)
                and _beyond(iy[split:], boundary, not source_high)):
            order, ends[1:], first_high = _row_partition(iy >= boundary, ends[1:],
                                                         source_high)
            weights, iy = weights[order], iy[order]
            bands = (((0, self.height), (self.height, self.height)) if first_high is None
                     else _bands(middle, self.height, first_high))
        pixels = iy.astype(np.int32)
        del iy
        n_pix = self.width * self.height
        indptr = ends.astype(np.int32)
        matrix = csr_array((weights, pixels, indptr), shape=(2 * n_chan, n_pix))
        # on this thread, which has the new matrix in its cache
        row_divisors = np.zeros(n_chan)
        _add_ray_sums(matrix, np.ones(n_pix), row_divisors, slice(0, n_chan))
        col_divisors = np.empty((self.height, self.width))
        _back_band(matrix, bands, np.ones(n_chan), col_divisors, slice(0, 2))
        row_divisors[row_divisors == 0.0] = 1.0
        col_divisors[col_divisors == 0.0] = 1.0
        return _View(matrix, bands, row_divisors, col_divisors)

    def _stored(self, view_index: int) -> tuple[_View, Frame, int]:
        """The traced view that applies ``view_index``; the frame map into it
        (see ``_to_traced``); and the channel step, -1 when the map is a
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
        """Bytes held by the cached operator: matrices and their sums."""
        return sum(
            view.matrix.data.nbytes + view.matrix.indices.nbytes
            + view.matrix.indptr.nbytes + view.row_divisors.nbytes
            + view.col_divisors.nbytes
            for view in self._views.values()
        )

    # -- operator ----------------------------------------------------------

    def _ray_sums(self, matrix: csr_array, x: np.ndarray) -> np.ndarray:
        """The ray sums (channels,) or (channels, k) of a traced view's
        matrix over ``x`` (pixels,) or (pixels, k), each half of the rays on
        one core."""
        channels = matrix.shape[0] // 2
        x = np.ascontiguousarray(x, dtype=np.float64)
        out = np.zeros((channels,) + x.shape[1:])
        _split(lambda rays: _add_ray_sums(matrix, x, out[rays], rays), channels, matrix.nnz)
        return out

    def _back(self, matrix: csr_array, bands: Bands, residual: np.ndarray) -> np.ndarray:
        """The back-projection (height, width) of ``residual`` (channels,)
        through a traced view, each band on one core."""
        residual = np.ascontiguousarray(residual, dtype=np.float64)
        out = np.empty((self.height, self.width))
        _split(lambda halves: _back_band(matrix, bands, residual, out, halves),
               2, matrix.nnz)
        return out

    def view_sums(self, view_index: int) -> ViewSums:
        view, frame, step = self._stored(view_index)
        # recomputed: the stored divisors hold 1.0 where a sum is zero
        row_sums = self._ray_sums(view.matrix, np.ones(view.matrix.shape[1]))
        col_sums = self._back(view.matrix, view.bands, np.ones(len(row_sums)))
        return ViewSums(row_sums[::step].copy(),
                        self._from_traced(col_sums, *frame).copy())

    def forward_view(self, values: np.ndarray, view_index: int) -> np.ndarray:
        view, frame, step = self._stored(view_index)
        image = self._to_traced(self._image(values), *frame)
        return self._ray_sums(view.matrix, image.ravel())[::step]

    def backproject_view(self, residual: np.ndarray, view_index: int) -> np.ndarray:
        residual = np.asarray(residual, dtype=np.float64)
        if residual.shape != (self.geom.detector_channels,):
            raise ValueError("residual length must equal detector_channels")
        view, frame, step = self._stored(view_index)
        return self._from_traced(self._back(view.matrix, view.bands, residual[::step]),
                                 *frame)

    def forward(self, values: np.ndarray) -> np.ndarray:
        """The sinogram (views, channels), bit for bit ``forward_view`` on
        each view: scipy's multi-vector product sums each column in the
        order of its single-vector product.  Each core takes one half of
        every traced view's rays."""
        users: dict[int, list[tuple[int, int, int]]] = {}
        columns: dict[Frame, int] = {}
        for view, (source, frame) in enumerate(self._symmetry):
            column = columns.setdefault(frame, len(columns))
            users.setdefault(source, []).append(
                (view, column, -1 if _reflects(frame) else 1))
        # every trace first, so no trace's temporaries overlap the stack
        stored = {source: self._stored(source)[0].matrix for source in users}
        image = self._image(values)
        stack = np.empty((image.size, len(columns)))
        for frame, column in columns.items():
            traced = self._to_traced(image, *frame)
            stack.reshape(*traced.shape, len(columns))[..., column] = traced
        # one vector is faster through the single-vector product
        operand = stack[:, 0] if len(columns) == 1 else stack
        channels = self.geom.detector_channels
        out = np.empty((len(self.angles_deg), channels))

        def project(rays):
            product = np.empty((rays.stop - rays.start,) + operand.shape[1:])
            columns_of = product.reshape(len(product), -1)
            for source, views in users.items():
                product.fill(0.0)
                _add_ray_sums(stored[source], operand, product, rays)
                for view, column, step in views:
                    # at step -1, channel c reads ray channels - 1 - c
                    out[view, ::step][rays] = columns_of[:, column]

        _split(project, channels, sum(matrix.nnz for matrix in stored.values()))
        return out

    def sart_update_view(self, values: np.ndarray, p_view: np.ndarray,
                         view_index: int, relaxation: float) -> np.ndarray:
        """One relaxed SART step for a single view; 0/0 ratios count as 0.
        Each core takes one half of the rays, then one band of the image."""
        if not 0 < relaxation <= 1:
            raise ValueError("relaxation must be in (0, 1]")
        channels = self.geom.detector_channels
        p_view = np.asarray(p_view, dtype=np.float64)
        if p_view.shape != (channels,):
            raise ValueError(f"p_view must hold one value per detector channel: "
                             f"shape ({channels},), got {p_view.shape}")
        view, frame, step = self._stored(view_index)
        matrix = view.matrix
        image = self._to_traced(self._image(values), *frame)
        x = image.ravel()
        p_view = p_view[::step]
        residual = np.zeros(channels)
        update = np.empty((self.height, self.width))

        def project(rays):
            part = residual[rays]
            _add_ray_sums(matrix, x, part, rays)
            np.subtract(p_view[rays], part, out=part)
            part /= view.row_divisors[rays]

        def back_project(halves):
            rows = _back_band(matrix, view.bands, residual, update, halves)
            band = update[rows]
            band /= view.col_divisors[rows]
            band *= relaxation
            band += image[rows]

        _split(project, channels, matrix.nnz)
        _split(back_project, 2, matrix.nnz)
        return self._from_traced(update, *frame)
