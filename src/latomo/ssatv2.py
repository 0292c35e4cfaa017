"""Scale-space anisotropic TV, variant 2: regularize a Y-down-sampled image.

The image is low-pass filtered and sub-sampled along Y only, a weighted-TV
descent direction is found on the coarse grid, and the step is pulled back
to the fine grid through the exact adjoint of the sampler.  The sampler is
one strided :class:`latomo.tv.RowOperator`, whose transpose is the adjoint
up-sampler including the clamped-boundary bookkeeping.  The descent is
:func:`latomo.tv.descent_steps` given that sampler; at scale 1 the sampler
is the identity and the descent is the un-sampled weighted-TV step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ssatv1 import binomial_kernel
from .tv import (
    Buffers,
    LineSearchParams,
    RowOperator,
    _eps_mu,
    descent_steps,
    forward_diff_op,
    row_operator,
)


def down_sampler(height: int, s: int) -> RowOperator:
    """Binomial low-pass along Y keeping rows 0, s, 2s, ... of ``height``
    rows; the identity at scale 1.  ``apply_t`` is the exact adjoint
    up-sampler."""
    if s == 1:
        return row_operator((1.0,), 0, height)
    return row_operator(binomial_kernel(s), s, height, stride=s)


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
    f = np.asarray(f, dtype=np.float64)
    down = level.sampler
    if f.shape[0] != down.shape[1]:
        raise ValueError(
            f"image height {f.shape[0]} != level height {down.shape[1]} "
            f"(scale {level.scale})"
        )
    return descent_steps(f, forward_diff_op(down.shape[0]), steps, params, eps_hu,
                         down if level.scale > 1 else None, start, buffers=buffers)
