"""Piecewise-constant phantom rasterization and Poisson projection noise.

A phantom is an ordered list of primitives painted last-over-first onto an
air background (-1000 HU).  Pixels are point-sampled at their centers, so
rasterization is exact for the painting order and reproducible across runs.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ImageGrid, ParameterError, RoiRect, Sinogram, hu_to_mu, is_count

log = logging.getLogger(__name__)

AIR_HU = -1000.0

# The largest mean numpy's Poisson sampler draws from (POISSON_LAM_MAX in
# numpy/random/_common.pyx); a larger one raises "lam value too large".
_POISSON_MEAN_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)


def _check_finite(primitive, kind: str):
    """Rejects a NaN or infinite field, which would drop the primitive from
    the raster or paint a non-finite value."""
    for field in dataclasses.fields(primitive):
        value = getattr(primitive, field.name)
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{kind} {field.name} must be finite, got {value}")


@dataclass(frozen=True)
class Ellipse:
    center: tuple[float, float]  # mm
    semi_axes: tuple[float, float]  # mm
    angle_deg: float
    value_hu: float

    def __post_init__(self):
        _check_finite(self, "ellipse")
        if self.semi_axes[0] <= 0 or self.semi_axes[1] <= 0:
            raise ValueError("ellipse semi-axes must be positive")


@dataclass(frozen=True)
class Bar:
    """Axis-aligned rectangle; width along X, height along Y (mm)."""

    center: tuple[float, float]
    width: float
    height: float
    value_hu: float

    def __post_init__(self):
        _check_finite(self, "bar")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("bar extents must be positive")


@dataclass(frozen=True)
class PhantomSpec:
    primitives: tuple
    roi_mm: tuple[float, float, float, float] | None = None  # (x0, y0, x1, y1)


@dataclass(frozen=True)
class NoiseSpec:
    incident_photons: float  # photons per channel without attenuation
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.incident_photons <= _POISSON_MEAN_MAX:
            raise ParameterError(
                "incident_photons",
                f"incident_photons must be > 0 and at most {_POISSON_MEAN_MAX:.6g}, "
                f"the largest Poisson mean numpy draws from, got {self.incident_photons}")
        if not is_count(self.rng_seed) or self.rng_seed < 0:
            raise ParameterError(
                "rng_seed", f"rng_seed must be an integer >= 0, got {self.rng_seed}")


def rasterize(spec: PhantomSpec, width: int, height: int, pixel_size: float) -> ImageGrid:
    """Paint the primitives onto an air background, later primitives winning.

    A pixel takes a primitive's value when its center lies inside: ellipses
    use the closed region, bars the half-open box [min, max) on both axes so
    that edges shared between a bar and its gap are assigned once.  Each
    primitive is evaluated only on the pixels of its bounding box: a bar's
    exactly, an ellipse's widened by two pixels.
    """
    grid = ImageGrid.zeros(width, height, pixel_size)
    xs = grid.x_centers()
    ys = grid.y_centers()
    hu = np.full((height, width), AIR_HU)
    for prim in spec.primitives:
        if isinstance(prim, Ellipse):
            reach = max(prim.semi_axes) + 2.0 * pixel_size
            cols = _span(xs, prim.center[0] - reach, prim.center[0] + reach)
            rows = _span(ys, prim.center[1] - reach, prim.center[1] + reach)
            dx = xs[None, cols] - prim.center[0]
            dy = ys[rows, None] - prim.center[1]
            th = np.radians(prim.angle_deg)
            c, s = np.cos(th), np.sin(th)
            u = (dx * c + dy * s) / prim.semi_axes[0]
            v = (-dx * s + dy * c) / prim.semi_axes[1]
            hu[rows, cols][u * u + v * v <= 1.0] = prim.value_hu
        elif isinstance(prim, Bar):
            x0 = prim.center[0] - prim.width / 2.0
            y0 = prim.center[1] - prim.height / 2.0
            cols = _span(xs, x0, x0 + prim.width)
            hu[_span(ys, y0, y0 + prim.height), cols] = prim.value_hu
        else:
            raise TypeError(f"unknown primitive {prim!r}")
    return grid.with_data(hu_to_mu(hu))


def _span(centers: np.ndarray, lo: float, hi: float) -> slice:
    """The slice of the increasing ``centers`` with lo <= center < hi."""
    return slice(int(np.searchsorted(centers, lo)), int(np.searchsorted(centers, hi)))


def _bar_sequence(x_center: float, value_hu: float, widths, bar_length: float,
                  triple_gap: float) -> list[Bar]:
    """Stacks triples of bars along Y; gap within a triple equals the bar width."""
    total = sum(5.0 * w for w in widths) + triple_gap * (len(widths) - 1)
    y = -total / 2.0
    bars = []
    for w in widths:
        for k in range(3):
            bars.append(Bar((x_center, y + 2 * k * w + w / 2.0), bar_length, w, value_hu))
        y += 5.0 * w + triple_gap
    return bars


def builtin_head_phantom() -> PhantomSpec:
    """Head phantom: elliptical skull/brain with medium-contrast interior
    features, an air sinus cavity and two eye features near the bottom, and
    the left-ear region replaced by two resolution bar sequences stacked
    along Y.

    Bar sequences: 800 HU (high contrast) and 250 HU (medium contrast), five
    triples each, bar widths 0.5..2.5 mm in 0.5 mm steps, gap equal to the
    bar width, bar length 4.5 mm.  The sinus cavity's horizontal-tangent
    arcs are the dominant streak source for a 10-170 degree scan; ``roi_mm``
    covers the area between the eyes, just above the cavity, where those
    streaks land.
    """
    widths = (0.5, 1.0, 1.5, 2.0, 2.5)
    primitives = [
        Ellipse((0.0, 0.0), (76.0, 91.0), 0.0, 800.0),   # skull
        Ellipse((0.0, 0.0), (70.0, 85.0), 0.0, 50.0),    # brain
        Ellipse((0.0, 30.0), (16.0, 22.0), 0.0, 25.0),   # ventricle, -25 HU contrast
        Ellipse((-30.0, 16.0), (10.0, 17.0), 20.0, 100.0),
        Ellipse((30.0, 16.0), (10.0, 17.0), -20.0, 100.0),
        Ellipse((0.0, -12.0), (7.0, 7.0), 0.0, 150.0),   # +100 HU contrast
        Ellipse((0.0, -70.0), (13.0, 9.0), 0.0, -1000.0),  # air sinus cavity
        Ellipse((-25.0, -60.0), (11.0, 9.0), 0.0, 75.0),  # left eye
        Ellipse((25.0, -60.0), (11.0, 9.0), 0.0, 75.0),   # right eye
    ]
    primitives += _bar_sequence(-58.25, 800.0, widths, bar_length=4.5, triple_gap=2.0)
    primitives += _bar_sequence(-53.25, 250.0, widths, bar_length=4.5, triple_gap=2.0)
    return PhantomSpec(tuple(primitives), roi_mm=(-13.0, -59.0, 13.0, -45.0))


def roi_rect_for_grid(roi_mm, width: int, height: int, pixel_size: float) -> RoiRect:
    """Convert a world-mm ROI to the inclusive pixel rectangle of covered centers."""
    x0, y0, x1, y1 = roi_mm
    cx = (width - 1) / 2.0
    cy = (height - 1) / 2.0
    ix0 = int(np.ceil(x0 / pixel_size + cx))
    ix1 = int(np.floor(x1 / pixel_size + cx))
    iy0 = int(np.ceil(y0 / pixel_size + cy))
    iy1 = int(np.floor(y1 / pixel_size + cy))
    ix0, iy0 = max(ix0, 0), max(iy0, 0)
    ix1, iy1 = min(ix1, width - 1), min(iy1, height - 1)
    if ix1 < ix0 or iy1 < iy0:
        raise ValueError("ROI does not cover any pixel center")
    return RoiRect(ix0, iy0, ix1, iy1)


def add_poisson_noise(sino: Sinogram, noise: NoiseSpec) -> Sinogram:
    """Simulate photon counting: N ~ Poisson(N0 * exp(-p)), output -ln(N/N0).

    Zero counts are clamped to one photon before the log; with realistic N0
    this has probability well below 1e-6 and is logged when it happens.
    Deterministic for a fixed seed.
    """
    p = np.asarray(sino.data, dtype=np.float64)
    if not np.all(np.isfinite(p)):
        raise ValueError("sinogram contains non-finite values")
    if np.any(p < 0):
        raise ValueError("line integrals must be nonnegative")
    rng = np.random.default_rng(noise.rng_seed)
    expected = noise.incident_photons * np.exp(-p)
    counts = rng.poisson(expected).astype(np.float64)
    n_zero = int(np.count_nonzero(counts == 0))
    if n_zero:
        log.warning("clamped %d zero photon counts to 1", n_zero)
        counts = np.maximum(counts, 1.0)
    noisy = np.log(noise.incident_photons) - np.log(counts)
    return Sinogram(sino.num_views, sino.num_channels, sino.view_angles, noisy)


# ---------------------------------------------------------------------------
# Phantom spec files: one primitive per line, '#' comments, units mm and HU.
#   ellipse cx cy a b theta_deg value_hu
#   bar     cx cy w h value_hu
# ---------------------------------------------------------------------------

def load_phantom_spec(path) -> PhantomSpec:
    primitives = []
    for lineno, raw_line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0].lower()
        try:
            values = [float(t) for t in tokens[1:]]
            if kind == "ellipse" and len(values) == 6:
                cx, cy, a, b, theta, hu = values
                primitives.append(Ellipse((cx, cy), (a, b), theta, hu))
            elif kind == "bar" and len(values) == 5:
                cx, cy, w, h, hu = values
                primitives.append(Bar((cx, cy), w, h, hu))
            else:
                raise ValueError(f"unrecognized primitive {kind!r}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return PhantomSpec(tuple(primitives))


def save_phantom_spec(spec: PhantomSpec, path):
    """Writes each number with ``repr``, so the file loads back to equal
    primitives."""
    lines = ["# latomo phantom: ellipse cx cy a b theta_deg hu | bar cx cy w h hu"]
    for prim in spec.primitives:
        if isinstance(prim, Ellipse):
            kind, values = "ellipse", (*prim.center, *prim.semi_axes, prim.angle_deg,
                                       prim.value_hu)
        else:
            kind, values = "bar", (*prim.center, prim.width, prim.height, prim.value_hu)
        lines.append(" ".join([kind] + [repr(float(v)) for v in values]))
    Path(path).write_text("\n".join(lines) + "\n")
