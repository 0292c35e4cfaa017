"""Weighted total variation and its scale-space anisotropic variants.

All functions work on plain 2-D float arrays shaped (height, width) with
row index = Y (axis conventions in :mod:`latomo.core`).  X derivatives are
backward differences; Y derivatives go through a :class:`RowOperator`, a
banded matrix along the row axis with out-of-range taps clamped to the edge.
The gradient of the weighted TV value is computed with the operator's exact
transpose, so finite-difference checks agree to rounding error.

Every regularizer runs :func:`descent_steps`; only the Y operator differs.
wTV takes the plain difference.  ssaTV-1 widens it at scale s into a
binomial low-pass kernel (std dev sqrt(s/2)) convolved with [1, -1] and
rescaled to l1 norm 2.  ssaTV-2 low-pass filters and sub-samples the image
along Y only, finds the weighted-TV step on the coarse grid, and pulls it
back through the sampler's exact adjoint, including the clamped-boundary
bookkeeping.  At scale 1 both variants are the weighted-TV step, bit for bit.

Two cores: every image-size step is elementwise or a :class:`RowOperator`
product, whose output rows can be computed in any order.  So each block of
steps runs as two row bands, the lower on the calling thread and the upper
on the worker thread of :mod:`latomo.core` (the projector's), and writes
each array's band alone.  A block ends wherever a Y product reads rows
across the band edge: a trial image is one block and its differences,
magnitude and weighting another; a gradient's terms are one and its
divergence (with Yᵀ) another; ``|g|`` with each band's peak, the division
by the peak, the update, each down-sample and the sample of an image are
one each.  Every sum and ``vdot`` still runs over the whole array on the
calling thread, and a peak is the larger of the bands' peaks, which is
exact, so every bit is the inline run's.  Each block is a task over a
slice of rows handed to ``core._split``; below the size rule of
:mod:`latomo.core`, counted in pixels, it runs once over the whole array on
the calling thread, as on one core.  A trial's weighted magnitudes need
one image-size buffer besides the trial itself, since one band's ``dy²``
would overwrite rows the other band's Y product still reads: the
``scratch`` buffer of :class:`Buffers`, or on a sampled descent the first
rows of the idle ``pulled`` buffer.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvecs

from .core import MU_PER_HU, ParameterError, _split, is_count

# The pull-back check of a sampled descent reports on the ssatv2 logger, the
# variant that samples.
_pullback_log = logging.getLogger("latomo.ssatv2")


@dataclass(frozen=True)
class LineSearchParams:
    """Backtracking parameters: sufficient-decrease fraction ``alpha``,
    shrink factor ``beta``, initial step ``t0`` (mm^-1), shrink budget."""

    alpha: float = 0.3
    beta: float = 0.6
    t0: float = 4e-4
    max_shrinks: int = 30

    def __post_init__(self):
        if not 0 < self.alpha < 0.5:
            raise ParameterError("alpha", f"alpha must be in (0, 0.5), got {self.alpha}")
        if not 0 < self.beta < 1:
            raise ParameterError("beta", f"beta must be in (0, 1), got {self.beta}")
        if not 0 < self.t0 < math.inf:
            raise ParameterError("t0", f"t0 must be finite and > 0, got {self.t0}")
        if not is_count(self.max_shrinks):
            raise ParameterError("max_shrinks", "max_shrinks must be an integer")
        if self.max_shrinks < 0:
            raise ParameterError("max_shrinks",
                                 f"max_shrinks must be >= 0, got {self.max_shrinks}")


class RowOperator:
    """Linear filter along the row (Y) axis with edge-clamped taps, keeping
    rows 0, stride, 2*stride, ...

    Output row i is sum_k taps[k] * f[clip(i*stride + anchor - k)].  Taps
    falling off the grid fold onto the edge row, which keeps zero-sum kernels
    exactly zero on constant images and makes the transpose (``apply_t``) the
    exact adjoint including the boundary bookkeeping; with a stride > 1 it is
    the adjoint up-sampler.  ``shape`` is (output rows, input rows).

    ``apply`` and ``apply_t`` take a 2-D input and write into ``out`` when
    it is given: a C-contiguous float64 buffer of the output's shape,
    distinct from the input; else into a new one.  Given ``rows``, a slice
    of the output's rows, they zero and write those rows alone, reading
    whichever input rows their taps reach.  Both run scipy's CSR kernel:
    ``apply`` on the stored matrix ``_mat``, ``apply_t`` on its transpose
    ``_mat_t`` with sorted indices, so every output row sums its terms in
    input-row order, as scipy's CSC kernel on ``_mat`` does.  Their bits
    are ``mat @ f``'s and ``mat.T @ v``'s, over any rows.
    """

    def __init__(self, taps, anchor: int, height: int, stride: int = 1):
        taps = np.asarray(taps, dtype=np.float64)
        kept = -(-height // stride)  # ceil division
        rows = np.repeat(np.arange(kept), taps.size)
        ks = np.tile(np.arange(taps.size), kept)
        cols = np.clip(rows * stride + anchor - ks, 0, height - 1)
        data = np.tile(taps, kept)
        # tocsr sums the taps that clamp onto one row
        mat = sp.coo_matrix((data, (rows, cols)), shape=(kept, height)).tocsr()
        self.shape = mat.shape
        self._mat = mat
        self._mat_t = mat.T.tocsr()
        self._mat_t.sort_indices()

    def apply(self, f: np.ndarray, out: np.ndarray | None = None,
              rows: slice | None = None) -> np.ndarray:
        return _product(self._mat, f, out, rows)

    def apply_t(self, v: np.ndarray, out: np.ndarray | None = None,
                rows: slice | None = None) -> np.ndarray:
        return _product(self._mat_t, v, out, rows)


def _product(mat, x: np.ndarray, out: np.ndarray | None,
             rows: slice | None) -> np.ndarray:
    shape = mat.shape
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != shape[1]:
        raise ValueError(f"input must be 2-D with {shape[1]} rows, got shape "
                         f"{x.shape} (operator {shape})")
    product = (shape[0], x.shape[1])
    if out is None:
        out = np.empty(product)
    elif out.shape != product or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape "
                         f"{product} for an input of shape {x.shape} (operator {shape})")
    lo, hi, _ = (slice(None) if rows is None else rows).indices(shape[0])
    band = out[lo:hi]
    band.fill(0.0)
    csr_matvecs(hi - lo, shape[1], x.shape[1], mat.indptr[lo:hi + 1], mat.indices,
                mat.data, x.ravel(), band.ravel())
    return out


_row_op_cache: dict[tuple, RowOperator] = {}


def row_operator(taps, anchor: int, height: int, stride: int = 1) -> RowOperator:
    key = (np.asarray(taps, dtype=np.float64).tobytes(), int(anchor), int(height),
           int(stride))
    op = _row_op_cache.get(key)
    if op is None:
        op = _row_op_cache[key] = RowOperator(taps, anchor, height, stride)
    return op


def forward_diff_op(height: int) -> RowOperator:
    """Plain backward difference along Y (zero on the first row)."""
    return row_operator(np.array([1.0, -1.0]), 0, height)


def binomial_kernel(s: int) -> np.ndarray:
    """Normalized binomial taps C(2s, j) / 4^s: symmetric, length 2s+1, unit
    sum, std dev exactly sqrt(s/2)."""
    if s < 1:
        raise ValueError("scale must be >= 1")
    taps = np.array([math.comb(2 * s, j) for j in range(2 * s + 1)], dtype=np.float64)
    return taps / 4.0 ** s


def derivative_kernel(s: int) -> tuple[np.ndarray, int]:
    """Scale-s smoothed difference ``(taps, anchor)`` of ssaTV-1: the
    binomial kernel convolved with [1, -1], rescaled to l1 norm 2, so the
    taps are antisymmetric with zero sum.  Scale 1 is the plain difference
    [1, -1].

    The response at row y is sum_k taps[k] * f[y + anchor - k]; the anchor
    centers every scale on the same half-pixel as f[y] - f[y-1].
    """
    if s < 1:
        raise ValueError("scale must be >= 1")
    if s == 1:
        return np.array([1.0, -1.0]), 0
    taps = np.convolve(binomial_kernel(s), [1.0, -1.0])
    taps *= 2.0 / np.abs(taps).sum()
    return taps, s


def down_sampler(height: int, s: int) -> RowOperator:
    """ssaTV-2's binomial low-pass along Y keeping rows 0, s, 2s, ... of
    ``height`` rows; the identity at scale 1.  ``apply_t`` is the exact
    adjoint up-sampler."""
    if s == 1:
        return row_operator((1.0,), 0, height)
    return row_operator(binomial_kernel(s), s, height, stride=s)


# -- generic weighted-TV machinery (parameterized by the Y operator) --------

def _eps_mu(eps_hu: float) -> float:
    """The reweighting floor ``eps_hu`` (HU) in mm^-1.  It is also the
    descent's smoothing floor, so both are derived here and only here.  Its
    square must not underflow to 0, which makes a flat pixel's term 0/0."""
    eps_mu = MU_PER_HU * eps_hu
    if not 0 < eps_hu < math.inf or eps_mu * eps_mu == 0.0:
        raise ParameterError("eps_hu", f"eps_hu must be > 0 and finite, and its floor's "
                                       f"square in mm^-2 > 0, got {eps_hu}")
    return eps_mu


class Differences:
    """The X differences ``dx`` (backward, zero in column 0), the Y
    differences ``dy = Y·f`` and their sum of squares ``sq = dx² + dy²`` of
    one image, in buffers that can be filled again for the next image.

    One fill serves every use of an image's differences: its weights, its TV
    value and its gradient.  :func:`tv_gradient` uses them up.
    """

    __slots__ = ("dx", "dy", "sq")

    def __init__(self, shape):
        self.dx, self.dy, self.sq = np.empty(shape), np.empty(shape), np.empty(shape)

    def fill(self, f: np.ndarray, yop: RowOperator, scratch: np.ndarray | None = None,
             rows: slice = slice(None)) -> Differences:
        """Differences of ``f`` in ``rows``, every row by default.
        ``scratch`` is an image-size buffer for ``dy²``, distinct from
        ``f``: a row's Y difference reads the rows of ``f`` around it."""
        dx, dy, sq = self.dx[rows], self.dy[rows], self.sq[rows]
        # along the flattened rows, so numpy needs no buffers; each row's
        # first difference, which straddles two rows, is then zeroed
        band = f[rows].reshape(-1)
        np.subtract(band[1:], band[:-1], out=dx.reshape(-1)[1:])
        dx[:, 0] = 0.0
        yop.apply(f, out=self.dy, rows=rows)
        np.multiply(dx, dx, out=sq)
        sq += np.multiply(dy, dy, out=None if scratch is None else scratch[rows])
        return self

    def magnitude(self, delta_mu: float = 0.0, out: np.ndarray | None = None,
                  rows: slice = slice(None)) -> np.ndarray:
        """The ``delta_mu``-smoothed gradient magnitude sqrt(sq + delta_mu²)
        in ``rows``, into those rows of ``out``; returns them."""
        sq, out = self.sq[rows], None if out is None else out[rows]
        if delta_mu:  # a sum of squares is never -0.0, so + 0.0 would change no bit
            out = np.add(sq, delta_mu * delta_mu, out=out)
            return np.sqrt(out, out=out)
        return np.sqrt(sq, out=out)


class Buffers:
    """Image-size work arrays of the regularizer, each made on first use and
    kept by its role and shape.

    ``run_reconstruction`` makes one per run and hands it to every pass and
    to the logged objective, so after the first outer iteration they
    allocate no image-size buffer.  A call given none makes its own, which
    lives as long as the call.  A call leaves nothing in the buffers that a
    later call reads, except the weights :func:`tv_weights` returns.
    """

    __slots__ = ("_made",)

    def __init__(self):
        self._made: dict = {}

    def array(self, role: str, shape) -> np.ndarray:
        """The float64 buffer ``role`` of ``shape``."""
        return self._get(role, tuple(shape), np.empty)

    def differences(self, index: int, shape) -> Differences:
        """The ``index``-th set of :class:`Differences` of ``shape``."""
        return self._get(index, tuple(shape), Differences)

    def _get(self, role, shape, make):
        found = self._made.get((role, shape))
        if found is None:
            found = self._made[role, shape] = make(shape)
        return found


def _reweight(magnitude: np.ndarray, eps_mu: float,
              out: np.ndarray | None = None) -> np.ndarray:
    out = np.add(magnitude, eps_mu, out=out)
    return np.divide(1.0, out, out=out)


def _in_bands(task: Callable[[slice], Any], image: np.ndarray) -> list:
    """One block: ``task(rows)`` over the rows of ``image`` (the array the
    block writes), split into two row bands when that pays; the bands'
    results, in order."""
    return _split(task, len(image), image.size)


def _sample(f: np.ndarray, yop: RowOperator, eps_mu: float, buffers: Buffers,
            scratch: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """The weights 1 / (|grad f| + eps_mu) of ``f`` and its TV value under
    them, from one difference pass into the first set of differences of
    ``buffers``; the weights are its ``weights`` buffer.  ``scratch`` is an
    image-size buffer for dy² and then w·|grad f|; by default the
    differences' own ``dy``, which the weights do not need."""
    diffs = buffers.differences(0, np.shape(f))
    scratch = diffs.dy if scratch is None else scratch
    w = buffers.array("weights", np.shape(f))

    def sample(rows):
        magnitude = diffs.fill(f, yop, scratch, rows).magnitude(out=scratch, rows=rows)
        _reweight(magnitude, eps_mu, out=w[rows])
        np.multiply(w[rows], magnitude, out=magnitude)

    _in_bands(sample, scratch)
    return w, float(np.sum(scratch))


def _value(f: np.ndarray, w: np.ndarray, yop: RowOperator, delta_mu: float,
           diffs: Differences, scratch: np.ndarray) -> float:
    """:func:`tv_value` into given buffers: one block leaves w·|grad f| in
    ``scratch``, which is summed whole here."""
    def weighted(rows):
        magnitude = diffs.fill(f, yop, scratch, rows).magnitude(delta_mu, scratch, rows)
        np.multiply(w[rows], magnitude, out=magnitude)

    _in_bands(weighted, scratch)
    return float(np.sum(scratch))


def tv_value(f: np.ndarray, w: np.ndarray, yop: RowOperator,
             delta_mu: float = 0.0, diffs: Differences | None = None,
             scratch: np.ndarray | None = None) -> float:
    """Weighted TV value; ``delta_mu > 0`` gives the smoothed functional that
    :func:`tv_gradient` differentiates exactly.

    A caller that keeps the differences of ``f`` passes ``diffs`` to receive
    them, and an image-size ``scratch`` buffer distinct from ``f``."""
    return _value(f, w, yop, delta_mu,
                  Differences(np.shape(f)) if diffs is None else diffs,
                  np.empty(np.shape(f)) if scratch is None else scratch)


def tv_weights(f: np.ndarray, eps_hu: float, yop: RowOperator, *,
               buffers: Buffers | None = None) -> np.ndarray:
    """Reweighting: w = 1 / (|grad f| + eps), with the floor eps given in HU.
    The weights are the ``weights`` buffer of ``buffers`` when given."""
    return _sample(f, yop, _eps_mu(eps_hu), Buffers() if buffers is None else buffers)[0]


def reweighted_value(f: np.ndarray, eps_hu: float, yop: RowOperator, *,
                     buffers: Buffers | None = None) -> float:
    """``tv_value(f, tv_weights(f, eps_hu, yop), yop)``, bit for bit, from one
    difference pass: the TV value of ``f`` under its own weights.  It works
    in the buffers of :func:`tv_weights`."""
    return _sample(f, yop, _eps_mu(eps_hu), Buffers() if buffers is None else buffers)[1]


def tv_gradient(f: np.ndarray, w: np.ndarray, yop: RowOperator,
                delta_mu: float, diffs: Differences | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """Exact gradient of the ``delta_mu``-smoothed weighted TV value.

    ``diffs``, when given, holds the differences of ``f`` already, and the
    gradient uses them up: their buffers end up holding its terms.  ``out``,
    C-contiguous, receives the gradient."""
    if diffs is None:
        diffs = Differences(np.shape(f)).fill(f, yop)
    if out is None:
        out = np.empty(np.shape(f))
    elif not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    tx, ty, norm = diffs.dx, diffs.dy, diffs.sq

    def terms(rows):
        band_norm = diffs.magnitude(delta_mu, norm, rows)
        for t in (tx[rows], ty[rows]):
            np.multiply(w[rows], t, out=t)
            t /= band_norm

    def divergence(rows):
        # tx - tx shifted left, along the flattened rows; each row's last
        # term, which straddles two rows, is then tx itself
        band, band_tx = out[rows], tx[rows]
        np.subtract(band_tx.reshape(-1)[:-1], band_tx.reshape(-1)[1:],
                    out=band.reshape(-1)[:-1])
        band[:, -1] = band_tx[:, -1]
        # Yᵀ·ty reads the rows of ty around these
        band += yop.apply_t(ty, out=norm, rows=rows)[rows]

    _in_bands(terms, out)
    _in_bands(divergence, out)
    return out


def descent_steps(f: np.ndarray, yop: RowOperator, steps: int,
                  params: LineSearchParams, eps_hu: float,
                  down: RowOperator | None = None, start: int = 0, *,
                  buffers: Buffers | None = None) -> tuple[np.ndarray, list[float]]:
    """Runs ``steps`` normalized-gradient descent steps with frozen weights;
    directions come from the smoothed gradient, acceptance from the plain
    TV value.  Returns the image and the accepted :class:`Step` sizes, each
    carrying its rung.  The weights are those :func:`tv_weights` gives the
    first (sampled) iterate, taken from its first difference pass, so each
    pass is one step of the reweighting.

    The smoothing floor of the gradient-magnitude denominators is the
    reweighting floor ``eps_hu`` of :func:`tv_weights`.  Magnitudes below
    it count as flat, so their descent contribution fades out instead of
    flipping sign at the kink, which keeps backtracking steps usable; a much
    smaller floor makes the direction a raw subgradient and stalls the
    descent orders of magnitude below any useful step size.

    The first line search starts at rung ``start``: ``run_reconstruction``
    passes, per schedule entry, the rung that entry's first search accepted
    in the previous outer iteration.  Each later search starts at the rung
    the step before accepted.  Every search returns the step a scan down
    from ``params.t0`` returns, bit for bit.

    Each image's :class:`Differences` are computed once.  The first
    iterate's give its weights, its TV value (the first search's starting
    value) and its gradient.  Without a down-sampler an accepted trial's
    give the next gradient, and its value starts the next search.  The
    descent never writes ``f``.  It works in the gradient (which also holds
    each trial image), the direction, the weights, a scratch buffer for each
    trial's weighted magnitudes and two sets of differences, all taken from
    ``buffers``: the run's, or its own when none is given.  Trials alternate
    between the two sets; the accepted trial is the last or the second-last
    one its search evaluated, so its set is intact.  A trial's image is not kept: the accepted one is
    recomputed as the iterate, a new array unless no step is taken.

    With a down-sampler ``down`` the value, weights and search live on the
    grid of ``down.apply(f)``, held in the ``sampled`` buffer, and each step
    is taken along ``down.apply_t(ghat)``, held in the ``pulled`` buffer on
    the grid of ``f``.  There a trial never becomes an iterate, so one set
    of differences serves, and every pull-back is re-sampled at once, at
    any log level, to start the next step; a value above the accepted
    trial's is a rise, a DEBUG record on the ``latomo.ssatv2`` logger.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    delta_mu = _eps_mu(eps_hu)
    f = np.asarray(f, dtype=np.float64)
    buffers = Buffers() if buffers is None else buffers
    shape = f.shape if down is None else (down.shape[0], f.shape[1])
    grad, ghat = buffers.array("gradient", shape), buffers.array("direction", shape)
    pair = (buffers.differences(0, shape), buffers.differences(int(down is None), shape))
    if down is None:
        scratch = buffers.array("scratch", shape)
    else:
        sampled, pulled = buffers.array("sampled", shape), buffers.array("pulled", f.shape)
        # the pull-back is idle while a search runs, so its first rows
        # serve as the trials' scratch
        scratch = pulled.reshape(-1)[:grad.size].reshape(shape)

        def resample(image):
            _in_bands(lambda rows: down.apply(image, out=sampled, rows=rows), sampled)
            return sampled
    accepted: list[float] = []
    rung, owned = start, False

    def objective(trial: np.ndarray) -> float:
        # the n-th trial of a search (from 0; the search is always given
        # f0) fills pair[n % 2], so Step.index names the accepted set
        nonlocal tried
        tried += 1
        return tv_value(trial, w, yop, diffs=pair[tried % 2], scratch=scratch)

    # the first (sampled) iterate's differences, its weights, frozen for
    # every step, and its value
    w, f0 = _sample(f if down is None else resample(f), yop, delta_mu, buffers,
                    scratch=grad)
    diffs = pair[0]
    for _ in range(steps):
        x = f if down is None else sampled
        tv_gradient(x, w, yop, delta_mu, diffs=diffs, out=grad)
        if normalize_direction(grad, out=ghat)[1]:
            break
        tried = -1  # the search's first trial fills pair[0]
        step = backtracking_line_search(x, grad, ghat, objective, params, rung, f0,
                                        trial=grad)
        if step == 0.0:
            break
        t, rung = float(step), step.rung
        accepted.append(step)
        new = f if owned else np.empty(f.shape)

        def update(rows):
            if down is None:
                band = np.multiply(ghat[rows], t, out=ghat[rows])
            else:  # Dᵀ·ghat reads the coarse rows around these
                band = down.apply_t(ghat, out=pulled, rows=rows)[rows]
                band *= t
            np.subtract(f[rows], band, out=new[rows])

        _in_bands(update, new)
        f, owned = new, True
        if down is None:
            diffs, f0 = pair[step.index % 2], step.value
        else:
            # the pulled-back update re-sampled is the next step's iterate;
            # it may overshoot the coarse step's value
            diffs = pair[0]
            f0 = _value(resample(f), w, yop, 0.0, diffs, grad)
            if f0 > step.value:
                _pullback_log.debug("coarse objective rose after pull-back: %.6g > %.6g",
                                    f0, step.value)
    return f, accepted


# -- the scale passes of ssaTV-1 and ssaTV-2 ---------------------------------

def ssatv1_pass(f: np.ndarray, eps_hu: float, s: int, steps: int,
                params: LineSearchParams, start: int = 0, *,
                buffers: Buffers | None = None) -> tuple[np.ndarray, list[float]]:
    """Weights from the scale-s operator, frozen for ``steps`` descent
    iterations whose first line search starts at rung ``start``; also
    reports the accepted step sizes.  The descent works in ``buffers``
    when given."""
    yop = row_operator(*derivative_kernel(s), np.shape(f)[0])
    return descent_steps(f, yop, steps, params, eps_hu, start=start, buffers=buffers)


@dataclass(frozen=True)
class PyramidLevel:
    """One anisotropic scale and its down-sampler."""

    scale: int
    sampler: RowOperator

    def __post_init__(self):
        if self.sampler.shape[0] < 2:
            raise ValueError("down-sampled height must be >= 2")


def make_pyramid_level(f: np.ndarray, s: int, eps_hu: float) -> PyramidLevel:
    """The scale-``s`` level for ``f``'s height.  It only checks ``eps_hu``:
    the pass takes its weights from its own first down-sampled image."""
    _eps_mu(eps_hu)
    return PyramidLevel(s, down_sampler(np.shape(f)[0], s))


def ssatv2_pass(f: np.ndarray, level: PyramidLevel, eps_hu: float, steps: int,
                params: LineSearchParams, start: int = 0, *,
                buffers: Buffers | None = None) -> tuple[np.ndarray, list[float]]:
    """``steps`` coarse-grid descent iterations pulled back to the fine grid.

    Each iteration: down-sample, take the weighted-TV gradient with the
    weights of the pass's first down-sampled image, find the step on the
    coarse image, then update the fine image along the adjoint-up-sampled
    direction.  The first line search starts at rung ``start``.  The descent
    works in ``buffers`` when given.
    """
    down, height = level.sampler, np.shape(f)[0]
    if height != down.shape[1]:
        raise ValueError(f"image height {height} != level height {down.shape[1]} "
                         f"(scale {level.scale})")
    return descent_steps(f, forward_diff_op(down.shape[0]), steps, params, eps_hu,
                         down if level.scale > 1 else None, start, buffers=buffers)


def normalize_direction(g: np.ndarray,
                        out: np.ndarray | None = None) -> tuple[np.ndarray, bool]:
    """Max-abs scaling of the descent direction, into ``out`` when given;
    flags an all-zero gradient, whose direction is all zeros.  The peak is
    the larger of the row bands' peaks, which is exact."""
    scaled = np.empty(np.shape(g)) if out is None else out
    peak = float(np.max(_in_bands(
        lambda rows: np.max(np.abs(g[rows], out=scaled[rows])), scaled)))
    if peak == 0.0:
        return scaled, True
    _in_bands(lambda rows: np.divide(g[rows], peak, out=scaled[rows]), scaled)
    return scaled, False


class Step(float):
    """Step size ``t`` found by :func:`backtracking_line_search`, 0.0 when no
    step qualifies.  It is a float, so callers that only need ``t`` use it as
    one; an accepted step also carries the rung ``k`` with
    ``t = t0*beta^k``, for the next search of the same descent to start
    from, the objective value of its trial image ``f - t*ghat``, and the
    ``index`` of that trial among those the search evaluated, from 0."""

    __slots__ = ("rung", "value", "index")

    def __new__(cls, t: float, rung: int | None = None, value: float | None = None,
                index: int | None = None):
        step = super().__new__(cls, t)
        step.rung, step.value, step.index = rung, value, index
        return step


def _rung(params: LineSearchParams, k: int) -> float:
    """t0*beta^k, always built by the same k repeated multiplications, so a
    rung has the same bits however the search reached it."""
    t = params.t0
    for _ in range(k):
        t *= params.beta
    return t


def backtracking_line_search(f: np.ndarray, g: np.ndarray, ghat: np.ndarray,
                             objective: Callable[[np.ndarray], float],
                             params: LineSearchParams, start: int = 0,
                             f0: float | None = None,
                             trial: np.ndarray | None = None) -> Step:
    """Largest step t0*beta^k (k <= max_shrinks) with sufficient decrease of
    ``objective`` along -ghat; 0.0 when no step qualifies.

    The search tries rung ``start`` (0 <= start <= max_shrinks) first.  While
    the test fails it shrinks one rung at a time; if the first trial passes it
    grows one rung at a time while the test still passes, never above t0.
    When the objective is convex along the line, as the frozen-weight TV
    value is, the rungs that pass are contiguous, so every ``start`` finds
    the rung a scan down from t0 finds; a start near it only saves
    evaluations.  If no rung from ``start`` down passes, the search tries
    the rungs above ``start`` from t0 before it gives up, so a failed search
    is a failed scan from t0 whatever the objective.  The accepted trial is
    the last or the second-last one evaluated.

    ``f0`` is ``objective(f)`` when the caller already has it.  Each trial
    image ``f - t*ghat`` is written into ``trial`` when it is given; that
    buffer may be ``g``, which is read only before the first trial.
    """
    if not 0 <= start <= params.max_shrinks:
        raise ValueError(f"start must be in 0..{params.max_shrinks}, got {start}")
    slope = float(np.vdot(g, ghat))
    if f0 is None:
        f0 = objective(f)
    tried = 0

    def attempt(k: int) -> Step | None:
        nonlocal tried
        t = _rung(params, k)
        image = np.empty(np.shape(f)) if trial is None else trial

        def form(rows):
            band = np.multiply(ghat[rows], t, out=image[rows])
            np.subtract(f[rows], band, out=band)

        _in_bands(form, image)
        value = objective(image)
        tried += 1
        if not value <= f0 - params.alpha * t * slope:
            return None
        return Step(t, k, value, tried - 1)

    k = start
    step = attempt(k)
    if step is None:
        for k in (*range(start + 1, params.max_shrinks + 1), *range(start)):
            step = attempt(k)
            if step is not None:
                return step
        return Step(0.0)
    while k > 0:
        k -= 1
        larger = attempt(k)
        if larger is None:
            break
        step = larger
    return step
