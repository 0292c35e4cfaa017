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

from .core import (
    FanBeamGeometry,
    ImageGrid,
    ParameterError,
    RoiRect,
    Sinogram,
    check_count,
    check_lattice,
    is_count,
    roi_rmse,
)
from .projector import Projector
from .tv import (
    Buffers,
    LineSearchParams,
    _eps_mu,
    descent_steps,
    down_sampler,
    forward_diff_op,
    make_pyramid_level,
    reweighted_value,
    ssatv1_pass,
    ssatv2_pass,
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


def make_scale_schedule(levels: int, total_steps: int = 10,
                        budgets=None) -> ScaleSchedule:
    """Schedule with scales 2^(levels-1), ..., 2, 1.

    Without ``budgets`` one level takes all ``total_steps`` and deeper
    schedules use the built-in 10-step allocations; custom budgets are given
    coarse to fine and must sum to ``total_steps``.
    """
    if not 1 <= levels <= 5:
        raise ParameterError("levels", f"levels must be in 1..5, got {levels}")
    scales = [2 ** level for level in range(levels - 1, -1, -1)]
    if budgets is None and levels == 1:
        budgets = (total_steps,)
    if budgets is None:
        if total_steps != 10:
            raise ParameterError(
                "budgets",
                "built-in budgets cover total_steps=10; pass budgets explicitly",
            )
        budgets = _DEFAULT_BUDGETS[levels]
    if not all(is_count(b) for b in budgets):
        raise ParameterError("budgets", f"budgets: expected integers, got {budgets}")
    budgets = tuple(int(b) for b in budgets)
    if len(budgets) != levels:
        raise ParameterError(
            "budgets", f"budgets: expected {levels} entries, got {len(budgets)}")
    if any(b < 1 for b in budgets):
        raise ParameterError(
            "budgets", f"budgets: inner step counts must be >= 1, got {budgets}")
    if sum(budgets) != total_steps:
        raise ParameterError(
            "budgets", f"budgets: sum {sum(budgets)} != total inner steps {total_steps}"
        )
    return ScaleSchedule(tuple(zip(scales, budgets)))


@dataclass(frozen=True)
class ReconConfig:
    algorithm: str
    geometry: FanBeamGeometry
    width: int
    height: int
    pixel_size: float
    relaxation: float = 0.8
    eps_hu: float = 5.0
    tv_steps: int = 10
    levels: int = 1
    budgets: tuple[int, ...] | None = None
    line_search: LineSearchParams = field(default_factory=LineSearchParams)
    iterations: int = 500

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ParameterError("algorithm", f"algorithm must be one of {ALGORITHMS}")
        check_lattice(self.width, self.height, self.pixel_size)
        for name in ("tv_steps", "levels", "iterations"):
            check_count(name, getattr(self, name))
        if not 0 < self.relaxation <= 1:
            raise ParameterError("relaxation", "relaxation must be in (0, 1]")
        _eps_mu(self.eps_hu)  # the regularizer's floor rule
        if self.algorithm in ("sart", "wtv") and self.levels != 1:
            raise ParameterError(
                "levels", f"levels must be 1 for {self.algorithm}, got {self.levels}")
        if self.algorithm == "sart":
            if self.budgets is not None:
                raise ParameterError(
                    "budgets", f"budgets must be unset for sart, got {self.budgets}")
            return
        if self.algorithm in ("ssatv1", "ssatv2"):
            angles = self.geometry.view_angles_deg()
            mid = (angles[0] + angles[-1]) / 2.0
            if not abs(mid % 180.0 - 90.0) < 45.0:
                raise ParameterError(
                    "algorithm",
                    f"{self.algorithm} widens along Y, the streak normal only of "
                    f"scans centred within 45 degrees of 90 (mod 180); the "
                    f"angular range {angles[0]:g}..{angles[-1]:g} degrees is "
                    f"centred on {mid:g}"
                )
        coarsest = self.schedule().entries[0][0]
        if self.algorithm == "ssatv2" and down_sampler(self.height, coarsest).shape[0] < 2:
            raise ParameterError(
                "levels",
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


def _regularization_phase(f: np.ndarray, config: ReconConfig, rungs: dict[int, int],
                          buffers: Buffers) -> tuple[np.ndarray, tuple[float, ...]]:
    """One regularization phase.  ``rungs`` maps each schedule entry to the
    rung its first line search accepted in the previous phase of the run;
    each entry's first search starts there, and the map is updated.  Every
    pass works in the run's ``buffers``."""
    if config.algorithm == "sart":
        return f, ()
    params = config.line_search
    sizes_all: list[float] = []
    for entry, (scale, steps) in enumerate(config.schedule().entries):
        start = rungs.get(entry, 0)
        if config.algorithm == "wtv":
            f, sizes = descent_steps(f, forward_diff_op(f.shape[0]), steps, params,
                                     config.eps_hu, start=start, buffers=buffers)
        elif config.algorithm == "ssatv1":
            f, sizes = ssatv1_pass(f, config.eps_hu, scale, steps, params, start=start,
                                   buffers=buffers)
        else:  # ssatv2: a fresh level per scale
            level = make_pyramid_level(f, scale, config.eps_hu)
            f, sizes = ssatv2_pass(f, level, config.eps_hu, steps, params, start=start,
                                   buffers=buffers)
        if sizes:
            rungs[entry] = sizes[0].rung
        sizes_all.extend(sizes)
    return f, tuple(sizes_all)


def run_reconstruction(config: ReconConfig, sinogram: Sinogram,
                       reference: ImageGrid | None = None,
                       roi: RoiRect | None = None,
                       projector: Projector | None = None,
                       on_iteration=None) -> tuple[ImageGrid, ConvergenceLog]:
    """Reconstruct from ``sinogram`` starting at the zero image.

    ``reference`` (on the configured grid) and ``roi`` enable the RMSE
    columns of the log.  A prebuilt ``projector`` (matching geometry and
    grid) can be shared across runs to reuse its traced rays.
    ``on_iteration(index, values)`` is called with the image array after
    every outer iteration.
    """
    geom = config.geometry
    _check_sinogram(geom, sinogram)
    grid = (config.width, config.height, config.pixel_size)
    if projector is None:
        projector = Projector(geom, *grid)
    else:
        field = projector.mismatch(*grid, geom)
        if field is not None:
            raise ValueError(
                f"prebuilt projector {field} does not match the configuration"
            )
    if reference is not None:
        reference_grid = (reference.width, reference.height, reference.pixel_size)
        if reference_grid != grid:
            raise ValueError(f"reference (width, height, pixel_size) {reference_grid}"
                             f" != configured {grid}")
        if roi is not None:
            roi.validate_for(config.width, config.height)

    f = np.zeros((config.height, config.width))
    log = ConvergenceLog()
    p = sinogram.data
    yop1 = forward_diff_op(config.height)
    rungs: dict[int, int] = {}
    # every image-size buffer of the regularizer and the objective, made once
    # for the whole run: after the first iteration they allocate only each
    # pass's result, whatever heap set-up and the SART sweeps leave behind
    buffers = Buffers()
    for n in range(config.iterations):
        started = time.perf_counter()
        for view in range(geom.num_views):
            f = projector.sart_update_view(f, p[view], view, config.relaxation)
        f = np.maximum(f, 0.0)
        f, step_sizes = _regularization_phase(f, config, rungs, buffers)
        f = np.maximum(f, 0.0)

        objective = reweighted_value(f, config.eps_hu, yop1, buffers=buffers)
        roi_err = full_err = None
        if reference is not None:
            img = ImageGrid(config.width, config.height, config.pixel_size, f)
            full_err = roi_rmse(img, reference)
            roi_err = roi_rmse(img, reference, roi) if roi is not None else None
        wall_ms = (time.perf_counter() - started) * 1e3
        log.rows.append(LogRow(n, roi_err, full_err, objective, step_sizes, wall_ms))
        if on_iteration is not None:
            on_iteration(n, f)
    return ImageGrid(config.width, config.height, config.pixel_size, f), log
