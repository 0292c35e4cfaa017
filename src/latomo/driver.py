"""Main reconstruction loops: SART sweeps interleaved with TV regularization.

Every outer iteration runs one full SART sweep (views in acquisition order),
clamps to nonnegative values, applies the selected regularizer, clamps
again, and appends one row of convergence metrics.  The logged objective is
the isotropic weighted-TV value of the iterate (weights recomputed from the
iterate itself) so runs of different algorithms are directly comparable.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import MU_PER_HU, FanBeamGeometry, ImageGrid, RoiRect, Sinogram, roi_rmse
from .projector import Projector
from .ssatv1 import ssatv1_pass
from .ssatv2 import make_pyramid_level, ssatv2_pass
from .tv import (
    LineSearchParams,
    descent_steps,
    forward_diff_op,
    tv_value,
    update_weights,
)

ALGORITHMS = ("sart", "wtv", "ssatv1", "ssatv2")

# Built-in inner-step budgets for 2-5 levels, coarse to fine, summing to 10.
_DEFAULT_BUDGETS = {
    2: (5, 5),
    3: (4, 3, 3),
    4: (2, 2, 3, 3),
    5: (2, 2, 2, 2, 2),
}


@dataclass(frozen=True)
class ScaleSchedule:
    """Ordered (scale, inner steps) pairs, strictly decreasing powers of two
    ending at scale 1."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        scales = [s for s, _ in self.entries]
        if not scales or scales[-1] != 1:
            raise ValueError("schedule must end at scale 1")
        for s in scales:
            if s < 1 or s & (s - 1):
                raise ValueError(f"scale {s} is not a power of two")
        if any(nxt >= cur for cur, nxt in zip(scales[:-1], scales[1:])):
            raise ValueError("scales must be strictly decreasing")
        if any(m < 1 for _, m in self.entries):
            raise ValueError("inner step counts must be >= 1")

    @property
    def total_steps(self) -> int:
        return sum(m for _, m in self.entries)


def make_scale_schedule(l_max: int, total_steps: int = 10,
                        budgets=None) -> ScaleSchedule:
    """Schedule with scales 2^(l_max-1), ..., 2, 1.

    Without ``budgets`` one level takes all ``total_steps`` and deeper
    schedules use the built-in 10-step allocations; custom budgets are given
    coarse to fine and must sum to ``total_steps``.
    """
    if not 1 <= l_max <= 5:
        raise ValueError("l_max must be in 1..5")
    scales = [2 ** level for level in range(l_max - 1, -1, -1)]
    if budgets is None and l_max == 1:
        budgets = (total_steps,)
    if budgets is None:
        if total_steps != 10:
            raise ValueError(
                "built-in budgets cover total_steps=10; pass budgets explicitly"
            )
        budgets = _DEFAULT_BUDGETS[l_max]
    budgets = tuple(int(b) for b in budgets)
    if len(budgets) != l_max:
        raise ValueError(f"budgets: expected {l_max} entries, got {len(budgets)}")
    if sum(budgets) != total_steps:
        raise ValueError(
            f"budgets: sum {sum(budgets)} != total inner steps {total_steps}"
        )
    return ScaleSchedule(tuple(zip(scales, budgets)))


@dataclass(frozen=True)
class ReconConfig:
    algorithm: str
    geometry: FanBeamGeometry
    width: int
    height: int
    pixel_size: float
    origin: tuple[float, float] = (0.0, 0.0)
    relaxation: float = 0.8
    eps_hu: float = 5.0
    tv_steps: int = 10
    levels: int = 1
    budgets: tuple[int, ...] | None = None
    line_search: LineSearchParams = field(default_factory=LineSearchParams)
    iterations: int = 500

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if not 0 < self.relaxation <= 1:
            raise ValueError("relaxation must be in (0, 1]")
        if not self.eps_hu > 0:
            raise ValueError("eps_hu must be > 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.algorithm != "sart" and self.tv_steps < 1:
            raise ValueError(f"tv_steps must be >= 1 for {self.algorithm}")
        if self.algorithm in ("ssatv1", "ssatv2"):
            coarsest = self.schedule().entries[0][0]
            if self.algorithm == "ssatv2" and -(-self.height // coarsest) < 2:
                raise ValueError(
                    f"levels = {self.levels} down-samples height = {self.height} "
                    f"to fewer than 2 rows at scale {coarsest}"
                )

    def schedule(self) -> ScaleSchedule:
        return make_scale_schedule(self.levels, self.tv_steps, self.budgets)


@dataclass
class LogRow:
    iteration: int
    roi_rmse_hu: float | None
    full_rmse_hu: float | None
    objective: float
    step_sizes: tuple[float, ...]
    wall_ms: float


CSV_HEADER = "iter,roi_rmse_hu,full_rmse_hu,objective,steps_accepted,wall_ms"


@dataclass
class ConvergenceLog:
    rows: list[LogRow] = field(default_factory=list)

    def roi_rmse_series(self) -> list[float]:
        return [row.roi_rmse_hu for row in self.rows]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for row in self.rows:
            writer.writerow([
                row.iteration,
                "" if row.roi_rmse_hu is None else f"{row.roi_rmse_hu:.10g}",
                "" if row.full_rmse_hu is None else f"{row.full_rmse_hu:.10g}",
                f"{row.objective:.10g}",
                len(row.step_sizes),
                f"{row.wall_ms:.3f}",
            ])
        return buf.getvalue()

    def write_csv(self, path):
        Path(path).write_text(self.to_csv())


def _check_sinogram(geom: FanBeamGeometry, sino: Sinogram):
    if sino.num_views != geom.num_views:
        raise ValueError(
            f"sinogram has {sino.num_views} views, geometry expects {geom.num_views}"
        )
    if sino.num_channels != geom.detector_channels:
        raise ValueError(
            f"sinogram has {sino.num_channels} channels, geometry expects "
            f"{geom.detector_channels}"
        )
    if not np.allclose(sino.view_angles, geom.view_angles_deg(), rtol=0.0, atol=1e-9):
        raise ValueError("sinogram view angles do not match the geometry")
    if not np.all(np.isfinite(sino.data)):
        raise ValueError("sinogram has non-finite values")


def _regularization_phase(f: np.ndarray, config: ReconConfig) -> tuple[np.ndarray, tuple[float, ...]]:
    params = config.line_search
    if config.algorithm == "sart":
        return f, ()
    if config.algorithm == "wtv":
        w = update_weights(f, config.eps_hu)
        f, sizes = descent_steps(f, w, forward_diff_op(f.shape[0]),
                                 config.tv_steps, params,
                                 delta_mu=MU_PER_HU * config.eps_hu)
        return f, tuple(sizes)
    sizes_all: list[float] = []
    if config.algorithm == "ssatv1":
        for scale, steps in config.schedule().entries:
            f, sizes = ssatv1_pass(f, config.eps_hu, scale, steps, params)
            sizes_all.extend(sizes)
        return f, tuple(sizes_all)
    # ssatv2: a fresh level per scale, weights seeded from the current image
    for scale, steps in config.schedule().entries:
        level = make_pyramid_level(f, scale, config.eps_hu)
        f, sizes = ssatv2_pass(f, level, config.eps_hu, steps, params)
        sizes_all.extend(sizes)
    return f, tuple(sizes_all)


def check_projector(projector: Projector, config: ReconConfig):
    """Rejects a prebuilt projector that differs from ``config``'s grid or
    scan geometry, naming the first field that differs."""
    field = projector.mismatch(config.width, config.height, config.pixel_size,
                               config.origin, config.geometry)
    if field is not None:
        raise ValueError(f"prebuilt projector {field} does not match the configuration")


def run_reconstruction(config: ReconConfig, sinogram: Sinogram,
                       reference: ImageGrid | None = None,
                       roi: RoiRect | None = None,
                       projector: Projector | None = None,
                       on_iteration=None) -> tuple[ImageGrid, ConvergenceLog]:
    """Reconstruct from ``sinogram`` starting at the zero image.

    ``reference``/``roi`` enable the RMSE columns of the log.  A prebuilt
    ``projector`` (matching geometry and grid) can be shared across runs to
    reuse its traced rays.  ``on_iteration(index, values)`` is called with
    the image array after every outer iteration.
    """
    geom = config.geometry
    _check_sinogram(geom, sinogram)
    if projector is None:
        projector = Projector(geom, config.width, config.height,
                              config.pixel_size, config.origin)
    else:
        check_projector(projector, config)
    if reference is not None and roi is not None:
        roi.validate_for(config.width, config.height)

    f = np.zeros((config.height, config.width))
    log = ConvergenceLog()
    p = sinogram.data
    yop1 = forward_diff_op(config.height)
    for n in range(config.iterations):
        started = time.perf_counter()
        for view in range(geom.num_views):
            f = projector.sart_update_view(f, p[view], view, config.relaxation)
        f = np.maximum(f, 0.0)
        f, step_sizes = _regularization_phase(f, config)
        f = np.maximum(f, 0.0)

        objective = tv_value(f, update_weights(f, config.eps_hu), yop1)
        roi_err = full_err = None
        if reference is not None:
            img = ImageGrid(config.width, config.height, config.pixel_size, f,
                            config.origin)
            full_err = roi_rmse(img, reference)
            roi_err = roi_rmse(img, reference, roi) if roi is not None else None
        wall_ms = (time.perf_counter() - started) * 1e3
        log.rows.append(LogRow(n, roi_err, full_err, objective, step_sizes, wall_ms))
        if on_iteration is not None:
            on_iteration(n, f)
    image = ImageGrid(config.width, config.height, config.pixel_size, f,
                      config.origin)
    return image, log
