"""Scale-space anisotropic TV, variant 1: widened Y-derivative stencils.

At scale s the plain Y difference is replaced by a smoothed multi-tap
difference: a binomial low-pass kernel (std dev sqrt(s/2)) convolved with
[1, -1] and rescaled to l1 norm 2.  Scale 1 degenerates to the ordinary
weighted-TV step.
"""

from __future__ import annotations

import math

import numpy as np

from .tv import Buffers, LineSearchParams, descent_steps, row_operator


def binomial_kernel(s: int) -> np.ndarray:
    """Normalized binomial taps C(2s, j) / 4^s: symmetric, length 2s+1, unit
    sum, std dev exactly sqrt(s/2)."""
    if s < 1:
        raise ValueError("scale must be >= 1")
    taps = np.array([math.comb(2 * s, j) for j in range(2 * s + 1)], dtype=np.float64)
    return taps / 4.0 ** s


def derivative_kernel(s: int) -> tuple[np.ndarray, int]:
    """Scale-s smoothed difference ``(taps, anchor)``: the binomial kernel
    convolved with [1, -1], rescaled to l1 norm 2, so the taps are
    antisymmetric with zero sum.  Scale 1 is the plain difference [1, -1].

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


def ssatv1_pass(f: np.ndarray, eps_hu: float, s: int, steps: int,
                params: LineSearchParams, start: int = 0, *,
                buffers: Buffers | None = None) -> tuple[np.ndarray, list[float]]:
    """Weights from the scale-s operator, frozen for ``steps`` descent
    iterations whose first line search starts at rung ``start``; also
    reports the accepted step sizes.  The descent works in ``buffers``
    when given."""
    f = np.asarray(f, dtype=np.float64)
    yop = row_operator(*derivative_kernel(s), f.shape[0])
    return descent_steps(f, yop, steps, params, eps_hu, start=start, buffers=buffers)
