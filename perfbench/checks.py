"""Output checks computed apart from latomo.

Every check returns a list of failure messages; an empty list means the
output passed.  The checks recompute what they compare against from the
scan geometry, from the raw-file format, or from a property the method must
have (adjoint identity, nonnegativity, determinism).  None of them compares
against stored output, and none calls latomo's own metrics or readers.
"""

from __future__ import annotations

import csv
import hashlib
import struct
from pathlib import Path

import numpy as np

# 0 HU is 0.02/mm, so one Hounsfield unit is 2e-5/mm.
MU_PER_HU = 2e-5

RAW_HEADER = struct.Struct("<IIf4x")  # width, height, pixel size, reserved

CHORD_RTOL = 1e-9
ADJOINT_RTOL = 1e-10
RMSE_RTOL = 1e-9
RESIDUAL_LIMIT = 0.5


def digest(image) -> str:
    return hashlib.sha256(np.ascontiguousarray(image, dtype="<f8").tobytes()).hexdigest()


def chords(scene, view_index: int) -> np.ndarray:
    """Length (mm) of each channel's source-to-detector segment inside the
    grid square, by Liang-Barsky slab clipping of the segment t in [0, 1]."""
    beta = np.radians(scene.angle_start + scene.increment * view_index)
    direction = np.array([np.cos(beta), np.sin(beta)])
    source = scene.source_to_isocenter * direction
    centre = -(scene.source_to_detector - scene.source_to_isocenter) * direction
    normal = np.array([-direction[1], direction[0]])
    half = scene.size * scene.pixel_size / 2.0
    out = np.empty(scene.channels)
    for k in range(scene.channels):
        offset = (k - (scene.channels - 1) / 2.0) * scene.channel_size
        ray = centre + offset * normal - source
        t_in, t_out = 0.0, 1.0
        for axis in range(2):
            if ray[axis] == 0.0:
                if abs(source[axis]) > half:
                    t_in, t_out = 1.0, 0.0
                continue
            t_a = (-half - source[axis]) / ray[axis]
            t_b = (half - source[axis]) / ray[axis]
            t_in = max(t_in, min(t_a, t_b))
            t_out = min(t_out, max(t_a, t_b))
        out[k] = max(t_out - t_in, 0.0) * float(np.hypot(*ray))
    return out


def check_projector(projector, scene, views, rng) -> list[str]:
    """Ray sums equal the chords, a constant image projects to constant times
    the chord, and forward/back-projection satisfy <Ax, y> = <x, A^T y>."""
    failures = []
    shape = (scene.size, scene.size)
    for view in views:
        chord = chords(scene, view)
        scale = np.abs(chord).max()
        row_sums = projector.view_sums(view).row_sums
        if not np.allclose(row_sums, chord, rtol=CHORD_RTOL, atol=CHORD_RTOL * scale):
            gap = np.abs(row_sums - chord).max()
            failures.append(f"view {view}: ray sums differ from chords by {gap:.3g} mm")
        level = 0.02
        flat = projector.forward_view(np.full(shape, level), view)
        if not np.allclose(flat, level * chord, rtol=CHORD_RTOL,
                           atol=CHORD_RTOL * level * scale):
            gap = np.abs(flat - level * chord).max()
            failures.append(f"view {view}: constant image projects off chord by {gap:.3g}")
        x = rng.standard_normal(shape)
        y = rng.standard_normal(scene.channels)
        ax = projector.forward_view(x, view)
        aty = projector.backproject_view(y, view)
        gap = abs(float(ax @ y) - float(np.sum(x * aty)))
        if gap > ADJOINT_RTOL * np.linalg.norm(ax) * np.linalg.norm(y):
            failures.append(f"view {view}: adjoint identity off by {gap:.3g}")
    return failures


def check_image(image) -> list[str]:
    image = np.asarray(image)
    if not np.all(np.isfinite(image)):
        return ["final image has non-finite pixels"]
    if np.any(image < 0):
        return [f"final image has {int(np.count_nonzero(image < 0))} negative pixels"]
    return []


def roi_slices(roi_mm, size: int, pixel_size: float):
    """Rows and columns whose pixel centres lie inside the mm rectangle."""
    x0, y0, x1, y1 = roi_mm
    centres = (np.arange(size) - (size - 1) / 2.0) * pixel_size
    cols = np.flatnonzero((centres >= x0) & (centres <= x1))
    rows = np.flatnonzero((centres >= y0) & (centres <= y1))
    return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)


def rmse_hu(image, truth, region=(slice(None), slice(None))) -> float:
    diff = (np.asarray(image, dtype=np.float64)[region]
            - np.asarray(truth, dtype=np.float64)[region]) / MU_PER_HU
    return float(np.sqrt(np.mean(diff * diff)))


def check_rmse(image, truth, roi, logged_roi, logged_full, rtol=RMSE_RTOL,
               atol=0.0) -> list[str]:
    """Recomputed ROI and full RMSE match the logged last row and beat the
    zero image."""
    failures = []
    zero = np.zeros_like(np.asarray(truth, dtype=np.float64))
    for name, region, logged in (("roi", roi, logged_roi),
                                 ("full", (slice(None), slice(None)), logged_full)):
        mine = rmse_hu(image, truth, region)
        if logged is None or not np.isclose(mine, logged, rtol=rtol, atol=atol):
            failures.append(f"{name} RMSE {mine:.10g} HU, log says {logged}")
        floor = rmse_hu(zero, truth, region)
        if not mine < floor:
            failures.append(f"{name} RMSE {mine:.6g} HU not below zero image {floor:.6g}")
    return failures


def check_residual(forward, sinogram) -> tuple[float, list[str]]:
    """Relative data residual |Af - p| / |p|; the zero image scores 1."""
    sinogram = np.asarray(sinogram, dtype=np.float64)
    rel = float(np.linalg.norm(forward - sinogram) / np.linalg.norm(sinogram))
    if not rel < RESIDUAL_LIMIT:
        return rel, [f"relative data residual {rel:.4g} not below {RESIDUAL_LIMIT}"]
    return rel, []


def check_digests(digests) -> list[list[str]]:
    """Every repeat of a workload gives the same image, bit for bit; one
    failure list per repeat."""
    return [[] if d == digests[0] else ["image digest differs from repeat 0"]
            for d in digests]


# -- artifacts of `latomo run` ----------------------------------------------

def read_raw(path) -> tuple[np.ndarray, float]:
    """16-byte little-endian header (uint32 width, uint32 height, float32
    pixel size, 4 reserved), then row-major float32 samples."""
    blob = Path(path).read_bytes()
    if len(blob) < RAW_HEADER.size:
        raise ValueError(f"{path}: shorter than the raw header")
    width, height, pixel_size = RAW_HEADER.unpack_from(blob)
    if len(blob) != RAW_HEADER.size + 4 * width * height:
        raise ValueError(f"{path}: {len(blob)} bytes for {width}x{height}")
    data = np.frombuffer(blob, dtype="<f4", offset=RAW_HEADER.size)
    return data.reshape(height, width), float(pixel_size)


def read_pgm_size(path) -> tuple[int, int, int]:
    tokens = Path(path).read_bytes().split(b"\n", 3)
    if tokens[0] != b"P5" or len(tokens) < 4:
        raise ValueError(f"{path}: not a binary PGM")
    width, height = (int(v) for v in tokens[1].split())
    maxval = int(tokens[2])
    if len(tokens[3]) != 2 * width * height:
        raise ValueError(f"{path}: {len(tokens[3])} sample bytes for {width}x{height}")
    return width, height, maxval


def check_artifacts(out: Path, algorithm: str, scene, iterations: int,
                    photons) -> tuple[dict, list[str]]:
    """Parses every artifact of one `latomo run`; returns the arrays the
    other checks need and the failures found in the files themselves."""
    failures = []
    arrays = {}
    size = scene.size
    for name, shape, pitch in (
        ("ground_truth", (size, size), scene.pixel_size),
        (f"recon_{algorithm}", (size, size), scene.pixel_size),
        (f"diff_{algorithm}", (size, size), scene.pixel_size),
        ("sinogram_clean", (scene.views, scene.channels), scene.channel_size),
    ) + ((("sinogram_noisy", (scene.views, scene.channels), scene.channel_size),)
         if photons else ()):
        data, header_pitch = read_raw(out / f"{name}.raw")
        if data.shape != shape or not np.isclose(header_pitch, pitch, rtol=1e-6):
            failures.append(f"{name}.raw: {data.shape} at {header_pitch} mm, "
                            f"expected {shape} at {pitch} mm")
        arrays[name] = data
    for name in ("ground_truth", f"recon_{algorithm}", f"diff_{algorithm}"):
        if read_pgm_size(out / f"{name}.pgm") != (size, size, 65535):
            failures.append(f"{name}.pgm: wrong size or depth")
    if failures:
        return arrays, failures

    recon = arrays[f"recon_{algorithm}"].astype(np.float64)
    truth = arrays["ground_truth"].astype(np.float64)
    diff = arrays[f"diff_{algorithm}"].astype(np.float64)
    # recon and truth were each rounded to float32, and so was their
    # float64 difference: allow those three roundings.
    tolerance = 2.0 ** -23 * (np.abs(recon) + np.abs(truth) + np.abs(diff))
    if np.any(np.abs(diff - (recon - truth)) > tolerance):
        failures.append(f"diff_{algorithm}.raw is not recon - truth")

    with open(out / f"convergence_{algorithm}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["iter"]) for r in rows] != list(range(iterations)):
        failures.append(f"convergence CSV has {len(rows)} rows, expected {iterations}")
    arrays["log"] = rows
    if not (out / "config_echo.ini").is_file():
        failures.append("config_echo.ini missing")
    return arrays, failures
