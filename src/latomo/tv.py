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
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .core import MU_PER_HU, ParameterError, is_count

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
    out = np.empty_like(f)
    np.subtract(f[:, 1:], f[:, :-1], out=out[:, 1:])
    out[:, 0] = 0.0
    return out


# -- generic weighted-TV machinery (parameterized by the Y operator) --------

def _eps_mu(eps_hu: float) -> float:
    """The reweighting floor ``eps_hu`` (HU) in mm^-1.  It is also the
    descent's smoothing floor, so both are derived here and only here."""
    if not 0 < eps_hu < math.inf:
        raise ValueError(f"eps_hu must be > 0 and finite, got {eps_hu}")
    return MU_PER_HU * eps_hu


def _magnitude(f: np.ndarray, yop: RowOperator,
               delta_mu: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X and Y differences of ``f`` and their ``delta_mu``-smoothed magnitude."""
    gx = _dx(f)
    gy = yop.apply(f)
    norm = gx * gx
    norm += gy * gy
    if delta_mu:  # a sum of squares is never -0.0, so + 0.0 would change no bit
        norm += delta_mu * delta_mu
    return gx, gy, np.sqrt(norm, out=norm)


def tv_value(f: np.ndarray, w: np.ndarray, yop: RowOperator,
             delta_mu: float = 0.0) -> float:
    """Weighted TV value; ``delta_mu > 0`` gives the smoothed functional that
    :func:`tv_gradient` differentiates exactly."""
    return float(np.sum(w * _magnitude(f, yop, delta_mu)[2]))


def tv_weights(f: np.ndarray, eps_hu: float, yop: RowOperator) -> np.ndarray:
    """Reweighting: w = 1 / (|grad f| + eps), with the floor eps given in HU."""
    eps_mu = _eps_mu(eps_hu)
    return 1.0 / (_magnitude(f, yop)[2] + eps_mu)


def tv_gradient(f: np.ndarray, w: np.ndarray, yop: RowOperator,
                delta_mu: float) -> np.ndarray:
    """Exact gradient of the ``delta_mu``-smoothed weighted TV value."""
    gx, gy, norm = _magnitude(f, yop, delta_mu)
    tx = w * gx / norm
    ty = w * gy / norm
    g = tx.copy()
    g[:, :-1] -= tx[:, 1:]
    g += yop.apply_t(ty)
    return g


def descent_steps(f: np.ndarray, w: np.ndarray, yop: RowOperator, steps: int,
                  params: LineSearchParams, eps_hu: float,
                  down: RowOperator | None = None) -> tuple[np.ndarray, list[float]]:
    """Runs ``steps`` normalized-gradient descent steps with frozen weights;
    directions come from the smoothed gradient, acceptance from the plain
    TV value.  Returns the image and the accepted step sizes.

    The smoothing floor of the gradient-magnitude denominators is the
    reweighting floor ``eps_hu`` of :func:`tv_weights`.  Magnitudes below
    it count as flat, so their descent contribution fades out instead of
    flipping sign at the kink, which keeps backtracking steps usable; a much
    smaller floor makes the direction a raw subgradient and stalls the
    descent orders of magnitude below any useful step size.

    Each step's line search starts at the rung the previous step accepted,
    and returns the step a scan down from ``params.t0`` returns, bit for bit.
    Without a down-sampler the accepted trial image is the next iterate and
    its TV value the next search's starting value, so neither is computed
    twice.

    With a down-sampler ``down`` the value, weights and search live on the
    grid of ``down.apply(f)`` and each step is taken along
    ``down.apply_t(ghat)`` on the grid of ``f``.
    """
    delta_mu = _eps_mu(eps_hu)
    objective = lambda arr: tv_value(arr, w, yop)
    accepted: list[float] = []
    rung, f0 = 0, None
    for _ in range(steps):
        f_s = f if down is None else down.apply(f)
        g = tv_gradient(f_s, w, yop, delta_mu)
        ghat, converged = normalize_direction(g)
        if converged:
            break
        step = backtracking_line_search(f_s, g, ghat, objective, params, rung, f0)
        if step == 0.0:
            break
        t, rung = float(step), step.rung
        accepted.append(t)
        if down is None:
            f, f0 = step.trial, step.value
            continue
        f = f - t * down.apply_t(ghat)
        if _pullback_log.isEnabledFor(logging.DEBUG):
            # fine-grid update re-sampled; small excess possible by design
            realized = objective(down.apply(f))
            if realized > step.value:
                _pullback_log.debug(
                    "coarse objective rose after pull-back: %.6g > %.6g",
                    realized, step.value,
                )
    return f, accepted


def normalize_direction(g: np.ndarray) -> tuple[np.ndarray, bool]:
    """Max-abs scaling of the descent direction; flags an all-zero gradient."""
    peak = float(np.max(np.abs(g)))
    if peak == 0.0:
        return np.zeros_like(g), True
    return g / peak, False


class Step(float):
    """Step size ``t`` found by :func:`backtracking_line_search`, 0.0 when no
    step qualifies.  It is a float, so callers that only need ``t`` use it as
    one; an accepted step also carries where its search ended, for the next
    search of the same descent to start from: the rung ``k`` with
    ``t = t0*beta^k``, the trial image ``f - t*ghat`` and its objective
    value."""

    __slots__ = ("rung", "trial", "value")

    def __new__(cls, t: float, rung: int | None = None,
                trial: np.ndarray | None = None, value: float | None = None):
        step = super().__new__(cls, t)
        step.rung, step.trial, step.value = rung, trial, value
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
                             f0: float | None = None) -> Step:
    """Largest step t0*beta^k (k <= max_shrinks) with sufficient decrease of
    ``objective`` along -ghat; 0.0 when no step qualifies.

    The search tries rung ``start`` (0 <= start <= max_shrinks) first.  While
    the test fails it shrinks one rung at a time; if the first trial passes it
    grows one rung at a time while the test still passes, never above t0.
    When the objective is convex along the line, as the frozen-weight TV
    value is, the rungs that pass are contiguous, so every ``start`` finds
    the rung a scan down from t0 finds; a start near it only saves
    evaluations.  ``f0`` is ``objective(f)`` when the caller already has it.
    """
    slope = float(np.vdot(g, ghat))
    if f0 is None:
        f0 = objective(f)

    def attempt(k: int) -> Step | None:
        t = _rung(params, k)
        trial = f - t * ghat
        value = objective(trial)
        if not value <= f0 - params.alpha * t * slope:
            return None
        return Step(t, k, trial, value)

    k = start
    step = attempt(k)
    if step is None:
        while step is None and k < params.max_shrinks:
            k += 1
            step = attempt(k)
        return Step(0.0) if step is None else step
    while k > 0:
        k -= 1
        larger = attempt(k)
        if larger is None:
            break
        step = larger
    return step
