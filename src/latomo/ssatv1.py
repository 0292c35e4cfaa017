"""Scale-space anisotropic TV, variant 1: widened Y-derivative stencils.

At scale s the plain Y difference is replaced by a smoothed multi-tap
difference: a binomial low-pass kernel (std dev sqrt(s/2)) convolved with
[1, -1] and rescaled to l1 norm 2.  Scale 1 degenerates to the ordinary
weighted-TV step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MU_PER_HU
from .tv import LineSearchParams, RowOperator, descent_steps, row_operator, tv_weights


@dataclass(frozen=True)
class LowPassKernel:
    """Symmetric 1-D smoothing kernel of length 2L+1 with unit tap sum."""

    taps: tuple[float, ...]
    half_length: int
    sigma: float

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        if taps.size != 2 * self.half_length + 1:
            raise ValueError("tap count must be 2*half_length + 1")
        if abs(taps.sum() - 1.0) > 1e-12:
            raise ValueError("taps must sum to 1")
        if np.any(np.abs(taps - taps[::-1]) > 1e-12):
            raise ValueError("taps must be symmetric")
        object.__setattr__(self, "taps", tuple(float(t) for t in taps))

    def taps_array(self) -> np.ndarray:
        return np.asarray(self.taps, dtype=np.float64)


@dataclass(frozen=True)
class DerivKernel:
    """Signed derivative-like kernel applied along Y.

    The response at row y is sum_k taps[k] * f[y + anchor - k]; the anchor
    centers every scale on the same half-pixel as the plain difference
    f[y] - f[y-1].
    """

    taps: tuple[float, ...]
    anchor: int
    scale: int

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        if abs(taps.sum()) > 1e-12:
            raise ValueError("derivative taps must sum to 0")
        if abs(np.abs(taps).sum() - 2.0) > 1e-12:
            raise ValueError("derivative taps must have l1 norm 2")
        if np.any(np.abs(taps + taps[::-1]) > 1e-12):
            raise ValueError("derivative taps must be antisymmetric")
        object.__setattr__(self, "taps", tuple(float(t) for t in taps))

    def taps_array(self) -> np.ndarray:
        return np.asarray(self.taps, dtype=np.float64)

    def offsets(self) -> np.ndarray:
        """Row offsets multiplied by each tap (descending)."""
        return self.anchor - np.arange(len(self.taps))


def binomial_kernel(s: int) -> LowPassKernel:
    """Normalized binomial taps C(2s, j) / 4^s; std dev exactly sqrt(s/2)."""
    if s < 1:
        raise ValueError("scale must be >= 1")
    taps = np.array([math.comb(2 * s, j) for j in range(2 * s + 1)], dtype=np.float64)
    taps /= 4.0 ** s
    return LowPassKernel(tuple(taps), s, math.sqrt(s / 2.0))


def derivative_kernel(s: int) -> DerivKernel:
    """Scale-s smoothed difference: binomial kernel convolved with [1, -1],
    rescaled to l1 norm 2.  Scale 1 is the plain difference [1, -1]."""
    if s < 1:
        raise ValueError("scale must be >= 1")
    if s == 1:
        return DerivKernel((1.0, -1.0), 0, 1)
    taps = np.convolve(binomial_kernel(s).taps_array(), [1.0, -1.0])
    taps *= 2.0 / np.abs(taps).sum()
    return DerivKernel(tuple(taps), s, s)


def y_operator(kernel: DerivKernel, height: int) -> RowOperator:
    """The Y operator of ``kernel`` on a grid of ``height`` rows, with
    edge-clamped taps."""
    return row_operator(kernel.taps_array(), kernel.anchor, height)


def ssatv1_pass(f: np.ndarray, eps_hu: float, s: int, steps: int,
                params: LineSearchParams) -> tuple[np.ndarray, list[float]]:
    """Weights from the scale-s operator, frozen for ``steps`` descent
    iterations; also reports the accepted step sizes."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    f = np.asarray(f, dtype=np.float64)
    yop = y_operator(derivative_kernel(s), f.shape[0])
    w = tv_weights(f, MU_PER_HU * eps_hu, yop)
    return descent_steps(f, w, yop, steps, params, MU_PER_HU * eps_hu)
