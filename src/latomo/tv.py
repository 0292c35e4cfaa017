"""Weighted total variation: gradient operator, value, weights, descent step.

All functions work on plain 2-D float arrays shaped (height, width) with
row index = Y (axis conventions in :mod:`latomo.core`).  X derivatives are
backward differences; Y derivatives go through a :class:`RowOperator`, a
banded matrix along the row axis with out-of-range taps clamped to the edge.
The gradient of the weighted TV value is computed with the operator's exact
transpose, so finite-difference checks agree to rounding error.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .core import MU_PER_HU

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
            raise ValueError("alpha must be in (0, 0.5)")
        if not 0 < self.beta < 1:
            raise ValueError("beta must be in (0, 1)")
        if not self.t0 > 0:
            raise ValueError("t0 must be > 0")
        if self.max_shrinks < 0:
            raise ValueError("max_shrinks must be >= 0")


class RowOperator:
    """Linear filter along the row (Y) axis with edge-clamped taps, keeping
    rows 0, stride, 2*stride, ...

    Output row i is sum_k taps[k] * f[clip(i*stride + anchor - k)].  Taps
    falling off the grid fold onto the edge row, which keeps zero-sum kernels
    exactly zero on constant images and makes the transpose (``apply_t``) the
    exact adjoint including the boundary bookkeeping; with a stride > 1 it is
    the adjoint up-sampler.  ``shape`` is (output rows, input rows).
    """

    def __init__(self, taps, anchor: int, height: int, stride: int = 1):
        taps = np.asarray(taps, dtype=np.float64)
        kept = -(-height // stride)  # ceil division
        rows = np.repeat(np.arange(kept), taps.size)
        ks = np.tile(np.arange(taps.size), kept)
        cols = np.clip(rows * stride + anchor - ks, 0, height - 1)
        data = np.tile(taps, kept)
        mat = sp.coo_matrix((data, (rows, cols)), shape=(kept, height)).tocsr()
        mat.sum_duplicates()
        self.shape = mat.shape
        self._mat = mat
        self._mat_t = mat.T.tocsr()

    def apply(self, f: np.ndarray) -> np.ndarray:
        return self._mat @ f

    def apply_t(self, v: np.ndarray) -> np.ndarray:
        return self._mat_t @ v


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


def _dx(f: np.ndarray) -> np.ndarray:
    out = np.zeros_like(f)
    out[:, 1:] = f[:, 1:] - f[:, :-1]
    return out


# -- generic weighted-TV machinery (parameterized by the Y operator) --------

def tv_value(f: np.ndarray, w: np.ndarray, yop: RowOperator,
             delta_mu: float = 0.0) -> float:
    """Weighted TV value; ``delta_mu > 0`` gives the smoothed functional that
    :func:`tv_gradient` differentiates exactly."""
    gx = _dx(f)
    gy = yop.apply(f)
    return float(np.sum(w * np.sqrt(gx * gx + gy * gy + delta_mu * delta_mu)))


def tv_weights(f: np.ndarray, eps_mu: float, yop: RowOperator) -> np.ndarray:
    gx = _dx(f)
    gy = yop.apply(f)
    return 1.0 / (np.sqrt(gx * gx + gy * gy) + eps_mu)


def tv_gradient(f: np.ndarray, w: np.ndarray, yop: RowOperator,
                delta_mu: float) -> np.ndarray:
    """Exact gradient of the ``delta_mu``-smoothed weighted TV value."""
    gx = _dx(f)
    gy = yop.apply(f)
    norm = np.sqrt(gx * gx + gy * gy + delta_mu * delta_mu)
    tx = w * gx / norm
    ty = w * gy / norm
    g = tx.copy()
    g[:, :-1] -= tx[:, 1:]
    g += yop.apply_t(ty)
    return g


def descent_steps(f: np.ndarray, w: np.ndarray, yop: RowOperator, steps: int,
                  params: LineSearchParams, delta_mu: float,
                  down: RowOperator | None = None) -> tuple[np.ndarray, list[float]]:
    """Runs ``steps`` normalized-gradient descent steps with frozen weights;
    directions come from the smoothed gradient, acceptance from the plain
    TV value.  Returns the image and the accepted step sizes.

    ``delta_mu`` (mm^-1) is the smoothing floor of the gradient-magnitude
    denominators; callers tie it to the reweighting floor.  Magnitudes below
    it count as flat, so their descent contribution fades out instead of
    flipping sign at the kink, which keeps backtracking steps usable; a much
    smaller floor makes the direction a raw subgradient and stalls the
    descent orders of magnitude below any useful step size.

    With a down-sampler ``down`` the value, weights and search live on the
    grid of ``down.apply(f)`` and each step is taken along
    ``down.apply_t(ghat)`` on the grid of ``f``.
    """
    objective = lambda arr: tv_value(arr, w, yop)
    accepted: list[float] = []
    for _ in range(steps):
        f_s = f if down is None else down.apply(f)
        g = tv_gradient(f_s, w, yop, delta_mu)
        ghat, converged = normalize_direction(g)
        if converged:
            break
        t = backtracking_line_search(f_s, g, ghat, objective, params)
        if t == 0.0:
            break
        f = f - t * (ghat if down is None else down.apply_t(ghat))
        accepted.append(t)
        if down is not None and _pullback_log.isEnabledFor(logging.DEBUG):
            # fine-grid update re-sampled; small excess possible by design
            predicted = objective(f_s - t * ghat)
            realized = objective(down.apply(f))
            if realized > predicted:
                _pullback_log.debug(
                    "coarse objective rose after pull-back: %.6g > %.6g",
                    realized, predicted,
                )
    return f, accepted


def update_weights(f: np.ndarray, eps_hu: float) -> np.ndarray:
    """Reweighting: w = 1 / (||gradient|| + eps), with eps given in HU."""
    if not eps_hu > 0:
        raise ValueError("eps must be > 0")
    f = np.asarray(f, dtype=np.float64)
    return tv_weights(f, MU_PER_HU * eps_hu, forward_diff_op(f.shape[0]))


def normalize_direction(g: np.ndarray) -> tuple[np.ndarray, bool]:
    """Max-abs scaling of the descent direction; flags an all-zero gradient."""
    peak = float(np.max(np.abs(g)))
    if peak == 0.0:
        return np.zeros_like(g), True
    return g / peak, False


def backtracking_line_search(f: np.ndarray, g: np.ndarray, ghat: np.ndarray,
                             objective: Callable[[np.ndarray], float],
                             params: LineSearchParams) -> float:
    """Largest step t0*beta^k (k <= max_shrinks) with sufficient decrease of
    ``objective`` along -ghat; returns 0.0 when no step qualifies."""
    slope = float(np.vdot(g, ghat))
    f0 = objective(f)
    t = params.t0
    for _ in range(params.max_shrinks + 1):
        if objective(f - t * ghat) <= f0 - params.alpha * t * slope:
            return t
        t *= params.beta
    return 0.0
