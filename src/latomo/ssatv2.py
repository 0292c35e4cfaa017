"""Scale-space anisotropic TV, variant 2: regularize a Y-down-sampled image.

The image is low-pass filtered and sub-sampled along Y only, a weighted-TV
descent direction is found on the coarse grid, and the step is pulled back
to the fine grid through the exact adjoint of the sampler.  The sampler is
one strided :class:`latomo.tv.RowOperator`, whose transpose is the adjoint
up-sampler including the clamped-boundary bookkeeping.  The descent is
:func:`latomo.tv.descent_steps` given that sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MU_PER_HU
from .ssatv1 import binomial_kernel
from .tv import (
    LineSearchParams,
    RowOperator,
    descent_steps,
    forward_diff_op,
    row_operator,
    tv_weights,
)


def down_sampler(height: int, s: int) -> RowOperator:
    """Binomial low-pass along Y keeping rows 0, s, 2s, ... of ``height``
    rows; the identity at scale 1.  ``apply_t`` is the exact adjoint
    up-sampler."""
    if s == 1:
        return row_operator((1.0,), 0, height)
    lowpass = binomial_kernel(s)
    return row_operator(lowpass.taps, lowpass.half_length, height, stride=s)


@dataclass(frozen=True)
class PyramidLevel:
    """One anisotropic scale: its down-sampler and the coarse-grid weights,
    frozen for the pass at that scale."""

    scale: int
    sampler: RowOperator
    weights: np.ndarray

    def __post_init__(self):
        if self.sampler.shape[0] < 2:
            raise ValueError("down-sampled height must be >= 2")
        if self.weights.shape[0] != self.sampler.shape[0]:
            raise ValueError("weights do not match the down-sampled grid")


def make_pyramid_level(f: np.ndarray, s: int, eps_hu: float) -> PyramidLevel:
    """Level with weights taken from the down-sampled current image."""
    f = np.asarray(f, dtype=np.float64)
    down = down_sampler(f.shape[0], s)
    f_d = down.apply(f)
    w_d = tv_weights(f_d, MU_PER_HU * eps_hu, forward_diff_op(f_d.shape[0]))
    return PyramidLevel(s, down, w_d)


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
    down = level.sampler
    return descent_steps(f, level.weights, forward_diff_op(down.shape[0]),
                         steps, params, MU_PER_HU * eps_hu, down=down)
