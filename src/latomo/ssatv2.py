"""Scale-space anisotropic TV, variant 2: regularize a Y-down-sampled image.

The image is low-pass filtered and sub-sampled along Y only, a weighted-TV
descent direction is found on the coarse grid, and the step is pulled back
to the fine grid through the exact adjoint of the sampler.  The sampler pair
is realized as one sparse matrix and its transpose, so the adjoint identity
holds to rounding error including the clamped-boundary bookkeeping.  The
descent is :func:`latomo.tv.descent_steps` given that pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import MU_PER_HU
from .ssatv1 import LowPassKernel, binomial_kernel
from .tv import LineSearchParams, descent_steps, forward_diff_op, row_operator, tv_weights


def delta_kernel() -> LowPassKernel:
    """Single-tap identity low-pass (used at scale 1)."""
    return LowPassKernel((1.0,), 0, 0.0)


def down_height(height: int, s: int) -> int:
    return -(-height // s)  # ceil division


_sampler_cache: dict[tuple, tuple[sp.csr_matrix, sp.csr_matrix]] = {}


def _sampler(height: int, s: int, lowpass: LowPassKernel):
    """Sparse down-sampling matrix (filter rows, keep every s-th) and its
    transpose."""
    if s < 1:
        raise ValueError("scale must be >= 1")
    key = (lowpass.taps_array().tobytes(), int(height), int(s))
    pair = _sampler_cache.get(key)
    if pair is None:
        filt = row_operator(lowpass.taps_array(), lowpass.half_length, height)
        down = filt._mat[::s].tocsr()
        _sampler_cache[key] = pair = (down, down.T.tocsr())
    return pair


def downsample_y(f: np.ndarray, s: int, lowpass: LowPassKernel) -> np.ndarray:
    """Low-pass filter along Y (clamped edges), keep rows 0, s, 2s, ..."""
    f = np.asarray(f, dtype=np.float64)
    down, _ = _sampler(f.shape[0], s, lowpass)
    return down @ f


def upsample_adjoint_y(g_d: np.ndarray, s: int, lowpass: LowPassKernel,
                       target_height: int) -> np.ndarray:
    """Exact adjoint of :func:`downsample_y` for the given fine height."""
    g_d = np.asarray(g_d, dtype=np.float64)
    if g_d.shape[0] != down_height(target_height, s):
        raise ValueError(
            f"coarse height {g_d.shape[0]} does not match "
            f"ceil({target_height}/{s})"
        )
    _, up = _sampler(target_height, s, lowpass)
    return up @ g_d


@dataclass(frozen=True)
class PyramidLevel:
    """One anisotropic scale: its sampler kernel and the coarse-grid weights,
    frozen for the pass at that scale."""

    scale: int
    lowpass: LowPassKernel
    down_height: int
    weights: np.ndarray

    def __post_init__(self):
        if self.down_height < 2:
            raise ValueError("down-sampled height must be >= 2")
        if self.weights.shape[0] != self.down_height:
            raise ValueError("weights do not match the down-sampled grid")


def make_pyramid_level(f: np.ndarray, s: int, eps_hu: float) -> PyramidLevel:
    """Level with weights taken from the down-sampled current image."""
    f = np.asarray(f, dtype=np.float64)
    lowpass = delta_kernel() if s == 1 else binomial_kernel(s)
    h_d = down_height(f.shape[0], s)
    f_d = downsample_y(f, s, lowpass)
    w_d = tv_weights(f_d, MU_PER_HU * eps_hu, forward_diff_op(h_d))
    return PyramidLevel(s, lowpass, h_d, w_d)


def ssatv2_pass(f: np.ndarray, level: PyramidLevel, eps_hu: float, steps: int,
                params: LineSearchParams) -> tuple[np.ndarray, list[float]]:
    """``steps`` coarse-grid descent iterations pulled back to the fine grid.

    Each iteration: down-sample, take the weighted-TV gradient with the
    level's frozen weights, find the step on the coarse image, then update
    the fine image along the adjoint-up-sampled direction.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    f = np.asarray(f, dtype=np.float64)
    sampler = _sampler(f.shape[0], level.scale, level.lowpass)
    return descent_steps(f, level.weights, forward_diff_op(level.down_height),
                         steps, params, MU_PER_HU * eps_hu, sampler=sampler)
