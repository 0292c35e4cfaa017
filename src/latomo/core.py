"""Domain types, Hounsfield unit conversions, image metrics, and raw/PGM I/O.

Coordinate convention (fixed, used by every module):
  * X increases rightward and is the second (column) array axis.
  * Y increases upward and is the first (row) array axis, i.e. row 0 is the
    bottom of the image.  PGM previews are written top row first so they
    display upright.
  * The grid is centered on the isocenter.

Images are stored as linear attenuation in mm^-1; Hounsfield units are a
display/metric convention converted at the boundaries.

The second core: one daemon worker thread per process, started on first use
and shared by :mod:`latomo.projector` and :mod:`latomo.tv`, takes one half of
a split step while the calling thread runs the other.  Each module decides
what a half is; the size rules that say when a split pays live here.  The
worker is not started when the process may run on one CPU only
(``os.sched_getaffinity``), and a forked child starts its own.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import os
import queue
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

# 0 HU is anchored at 0.02/mm, so one Hounsfield unit is 2e-5/mm.
MU_WATER = 0.02
MU_PER_HU = MU_WATER / 1000.0

_RAW_HEADER = struct.Struct("<IIf4x")  # width, height, pixel size, reserved


class ParameterError(ValueError):
    """A rejected parameter value; ``name`` is the parameter it was passed as,
    so a caller can name the setting the value came from."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


def is_count(value) -> bool:
    """Whether ``value`` is an integer (a bool is not): NaN, inf and 2.5
    are not counts."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(name: str, value):
    """Rejects ``value`` unless it is an integer >= 1, naming ``name``."""
    if not is_count(value):
        raise ParameterError(name, f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ParameterError(name, f"{name} must be >= 1, got {value}")


def _check_positive(name: str, value):
    if not 0 < value < math.inf:  # NaN fails too
        raise ParameterError(name, f"{name} must be > 0 and finite, got {value}")


def check_lattice(width, height, pixel_size):
    """Rejects a pixel lattice unless ``width`` and ``height`` are counts
    >= 1 and ``pixel_size`` is finite and > 0; the ParameterError names the
    field."""
    check_count("width", width)
    check_count("height", height)
    _check_positive("pixel_size", pixel_size)


def _physical_memory() -> int | None:
    """Bytes of physical memory; None where ``os.sysconf`` reports none."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return memory if memory > 0 else None


# -- the second core ---------------------------------------------------------

# The C library's ``sched_getcpu``, or None where a thread's CPUs cannot be
# read or chosen.
try:
    _getcpu = ctypes.CDLL(None).sched_getcpu if hasattr(os, "sched_setaffinity") else None
except (AttributeError, OSError, TypeError):
    _getcpu = None


class _Worker:
    """One daemon thread that runs the calls handed to it in turn.

    Linux wakes a sleeping thread on its waker's CPU when it can, so a half
    handed over would wait there for the caller's half to finish; at 512 x
    512 two half-image multiplies took 159 us split that way and 73 us with
    the worker on the other CPU (2-core x86-64 VM).  So each hand-over keeps
    the worker off the caller's CPU, where the platform lets it choose.
    """

    def __init__(self):
        self._calls: queue.SimpleQueue = queue.SimpleQueue()
        thread = threading.Thread(target=self._serve, name="latomo-worker", daemon=True)
        thread.start()
        self._tid, self._avoided = thread.native_id, None

    def _leave(self, cpu: int) -> None:
        """Lets the thread run on every CPU of the caller's but ``cpu``."""
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            try:
                os.sched_setaffinity(self._tid, others)
            except OSError:  # the thread may not be moved
                pass
        self._avoided = cpu

    def _serve(self):
        while True:
            call, arg, reply = self._calls.get()
            try:
                call(arg)
                error = None
            except BaseException as exc:  # the caller re-raises it
                error = exc
            # a call's closure holds the caller's arrays: drop it before the
            # caller goes on, not when the next call arrives
            del call, arg
            reply.put(error)
            del reply, error

    def start(self, call: Callable[[Any], None], arg) -> queue.SimpleQueue:
        """Hands ``call(arg)`` to the thread; the returned queue receives
        None, or the exception it raised, once it is done."""
        if _getcpu is not None:
            cpu = _getcpu()
            if cpu != self._avoided:
                self._leave(cpu)
        reply: queue.SimpleQueue = queue.SimpleQueue()
        self._calls.put((call, arg, reply))
        return reply


# The process's worker, shared by the projector and the regularizer: None
# until first use, then a _Worker, or False when the process may run on one
# CPU only.
_worker: _Worker | bool | None = None
_worker_lock = threading.Lock()


def _forget_worker():
    """A forked child has none of its parent's threads: it starts its own
    worker on first use."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Fewest stored entries (or plane parameters) a pair of projector halves
# streams for the second one to run on the worker.  Handing a half over and
# back costs 25-90 us, and tasks that are mostly Python contend for the GIL:
# a 64 x 64 SART view update (7 k entries) took 355 us split and 85 us
# inline, a 128 x 128 one (29 k) 307 and 217 us, and a 256 x 256 one (116 k)
# 675 and 799 us (2-core x86-64 VM).
_MIN_SPLIT_ENTRIES = 1 << 16

# Fewest pixels a regularizer block works on for its upper row band to run
# on the worker.  See the "Two cores" paragraph of latomo.tv for the figures.
_MIN_SPLIT_PIXELS = 1 << 16


def _split_worker(size: int, minimum: int) -> _Worker | None:
    """The worker, when the process may run on two CPUs and ``size``
    reaches ``minimum``; else None."""
    global _worker
    if _worker is None:
        with _worker_lock:
            if _worker is None:
                _worker = _Worker() if _cpus() >= 2 else False
    return _worker if _worker and size >= minimum else None


def _beside(worker: _Worker, task: Callable[[Any], None], here, there) -> None:
    """``task(there)`` on ``worker`` while ``task(here)`` runs on this
    thread; an exception from either is raised here once both are done."""
    reply = worker.start(task, there)
    try:
        task(here)
    finally:
        error = reply.get()
    if error is not None:
        raise error


def _both_halves(task: Callable[[int], None], entries: int) -> None:
    """``task(1)`` on the worker thread while ``task(0)`` runs here, or both
    here in turn when the process may run on one CPU only or the halves
    stream fewer than ``_MIN_SPLIT_ENTRIES`` stored entries between them.
    The two must write disjoint memory."""
    worker = _split_worker(entries, _MIN_SPLIT_ENTRIES)
    if worker is None:
        task(0)
        task(1)
    else:
        _beside(worker, task, 0, 1)


def _row_bands(task: Callable[[slice], None], rows: int, pixels: int) -> None:
    """``task(band)`` over row slices that cover ``rows`` rows: the upper
    half on the worker thread while the lower half runs here, or
    ``task(slice(0, rows))`` once here when the process may run on one CPU
    only, the block works on fewer than ``_MIN_SPLIT_PIXELS`` pixels or
    there is one row.  A band must write only its own rows."""
    worker = _split_worker(pixels, _MIN_SPLIT_PIXELS)
    if worker is None or rows < 2:
        task(slice(0, rows))
    else:
        _beside(worker, task, slice(0, rows // 2), slice(rows // 2, rows))


def hu_to_mu(hu):
    """Hounsfield units -> linear attenuation (mm^-1). Accepts scalars or arrays."""
    return MU_WATER * (1.0 + np.asarray(hu, dtype=np.float64) / 1000.0)


def mu_to_hu(mu):
    """Linear attenuation (mm^-1) -> Hounsfield units. Exact inverse of hu_to_mu."""
    return np.asarray(mu, dtype=np.float64) / MU_PER_HU - 1000.0


@dataclass(frozen=True)
class ImageGrid:
    """2-D attenuation image on a regular, isotropic pixel lattice.

    ``data`` has shape (height, width), row 0 at the bottom (smallest Y);
    the lattice is centered on the isocenter.
    """

    width: int
    height: int
    pixel_size: float
    data: np.ndarray

    def __post_init__(self):
        check_lattice(self.width, self.height, self.pixel_size)
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.shape != (self.height, self.width):
            raise ValueError(
                f"data shape {arr.shape} != (height, width) {(self.height, self.width)}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("image values must be finite")
        object.__setattr__(self, "data", arr)

    @classmethod
    def zeros(cls, width, height, pixel_size):
        check_lattice(width, height, pixel_size)  # before allocating
        return cls(width, height, pixel_size, np.zeros((height, width)))

    def with_data(self, data: np.ndarray) -> "ImageGrid":
        return ImageGrid(self.width, self.height, self.pixel_size, data)

    def x_centers(self) -> np.ndarray:
        """World X of pixel centers per column (mm)."""
        return (np.arange(self.width) - (self.width - 1) / 2.0) * self.pixel_size

    def y_centers(self) -> np.ndarray:
        """World Y of pixel centers per row (mm), increasing with row index."""
        return (np.arange(self.height) - (self.height - 1) / 2.0) * self.pixel_size

    def to_hu(self) -> np.ndarray:
        return mu_to_hu(self.data)


@dataclass(frozen=True)
class Sinogram:
    """Line integrals indexed by (view, channel); ``data`` shape (num_views, num_channels)."""

    num_views: int
    num_channels: int
    view_angles: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        angles = np.asarray(self.view_angles, dtype=np.float64)
        if angles.shape != (self.num_views,):
            raise ValueError("view_angles length must equal num_views")
        if self.num_views > 1 and not np.all(np.diff(angles) > 0):
            raise ValueError("view_angles must be strictly increasing")
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.shape != (self.num_views, self.num_channels):
            raise ValueError(
                f"data shape {arr.shape} != (num_views, num_channels) "
                f"{(self.num_views, self.num_channels)}"
            )
        object.__setattr__(self, "view_angles", angles)
        object.__setattr__(self, "data", arr)


@dataclass(frozen=True)
class FanBeamGeometry:
    """Fan-beam scan trajectory with a flat, equally spaced detector.

    The source travels on the circle of radius ``source_to_isocenter`` (mm);
    its angular position is measured in degrees from the +X axis.  The
    detector is centered on the ray through the isocenter, perpendicular to
    it, at distance ``source_to_detector`` from the source.  Its sinogram
    (views x channels x 8 bytes) must fit in physical memory, where the
    platform reports it, and in one numpy array.
    """

    source_to_detector: float
    source_to_isocenter: float
    detector_channels: int
    channel_size: float
    angle_start: float
    angle_end: float
    angle_increment: float

    def __post_init__(self):
        # `not a < b` forms, so NaN fails every check
        for name in ("source_to_isocenter", "source_to_detector", "channel_size",
                     "angle_increment"):
            _check_positive(name, getattr(self, name))
        check_count("detector_channels", self.detector_channels)
        for name in ("angle_start", "angle_end"):
            if not -math.inf < getattr(self, name) < math.inf:
                raise ParameterError(
                    name, f"{name} must be finite, got {getattr(self, name)}")
        if not self.source_to_detector > self.source_to_isocenter:
            raise ParameterError(
                "source_to_detector",
                f"source_to_detector must exceed source_to_isocenter "
                f"{self.source_to_isocenter}, got {self.source_to_detector}")
        if not self.angle_end >= self.angle_start:
            raise ParameterError(
                "angle_end", f"angle_end must be >= angle_start {self.angle_start}, "
                             f"got {self.angle_end}")
        # num_views before its rounding down, as a float: an infinite count
        # fails numpy's bound, which holds wherever memory goes unreported
        views = (self.angle_end - self.angle_start) / self.angle_increment + 1.0
        for limit, what in ((_physical_memory(), "physical memory"),
                            (np.iinfo(np.intp).max, "numpy's largest array")):
            if limit is not None and not views * self.detector_channels * 8 <= limit:
                raise ParameterError("angle_increment", (
                    f"angle_increment {self.angle_increment} gives a sinogram of "
                    f"{views:.6g} views x {self.detector_channels} channels x 8 bytes, "
                    f"more than the {limit} bytes of {what}"))

    @property
    def num_views(self) -> int:
        span = self.angle_end - self.angle_start
        return int(np.floor(span / self.angle_increment + 1e-9)) + 1

    def view_angles_deg(self) -> np.ndarray:
        return self.angle_start + self.angle_increment * np.arange(self.num_views)

    @property
    def half_fan_angle_deg(self) -> float:
        half_width = self.detector_channels * self.channel_size / 2.0
        return float(np.degrees(np.arctan2(half_width, self.source_to_detector)))

    @property
    def fov_radius(self) -> float:
        """Radius (mm) of the circle seen by every ray fan."""
        return self.source_to_isocenter * float(
            np.sin(np.radians(self.half_fan_angle_deg))
        )


@dataclass(frozen=True)
class RoiRect:
    """Inclusive pixel-index rectangle: columns x0..x1, rows y0..y1."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        for name in ("x0", "y0", "x1", "y1"):
            value = getattr(self, name)
            if not is_count(value):
                raise ParameterError(name, f"ROI corner {name} must be an integer, "
                                           f"got {value!r}")
        if self.x0 < 0 or self.y0 < 0 or self.x1 < self.x0 or self.y1 < self.y0:
            raise ValueError("invalid ROI rectangle")

    def validate_for(self, width: int, height: int):
        if self.x1 >= width or self.y1 >= height:
            raise ValueError(f"ROI {self} exceeds grid {width}x{height}")

    def slices(self) -> tuple[slice, slice]:
        return slice(self.y0, self.y1 + 1), slice(self.x0, self.x1 + 1)


def roi_rmse(img: ImageGrid, reference: ImageGrid, roi: RoiRect | None = None) -> float:
    """Root-mean-square error in HU over ``roi`` (whole grid when omitted)."""
    if (img.width, img.height) != (reference.width, reference.height):
        raise ValueError("image dimensions differ")
    if roi is None:
        roi = RoiRect(0, 0, img.width - 1, img.height - 1)
    roi.validate_for(img.width, img.height)
    ys, xs = roi.slices()
    diff_hu = (img.data[ys, xs] - reference.data[ys, xs]) / MU_PER_HU
    return float(np.sqrt(np.mean(diff_hu * diff_hu)))


# ---------------------------------------------------------------------------
# Raw float dump: 16-byte header (uint32 width, uint32 height, float32 pixel
# size, 4 reserved bytes), then float32 row-major samples, all little-endian.
# ---------------------------------------------------------------------------

def write_raw(path, array2d: np.ndarray, pixel_size: float):
    arr = np.ascontiguousarray(np.asarray(array2d, dtype="<f4"))
    if arr.ndim != 2:
        raise ValueError("expected a 2-D array")
    height, width = arr.shape
    with open(path, "wb") as fh:
        fh.write(_RAW_HEADER.pack(width, height, float(pixel_size)))
        fh.write(arr.tobytes())


def read_raw(path) -> tuple[np.ndarray, float]:
    """Returns (float32 array of shape (height, width), pixel size)."""
    blob = Path(path).read_bytes()
    if len(blob) < _RAW_HEADER.size:
        raise ValueError(f"{path}: truncated header")
    width, height, pixel_size = _RAW_HEADER.unpack_from(blob)
    expected = _RAW_HEADER.size + 4 * width * height
    if len(blob) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(blob)}")
    data = np.frombuffer(blob, dtype="<f4", offset=_RAW_HEADER.size)
    return data.reshape(height, width).copy(), float(pixel_size)


def write_raw_image(path, img: ImageGrid):
    write_raw(path, img.data, img.pixel_size)


def write_raw_sinogram(path, sino: Sinogram, channel_size: float = 0.0):
    # width = channels, height = views; the header's size slot carries the
    # channel pitch (0 when unknown). View angles live in the run config.
    write_raw(path, sino.data, channel_size)


def write_pgm16_values(path, values: np.ndarray, window: tuple[float, float]):
    """16-bit PGM of a (height, width) array: clamp to ``window``, map
    affinely to 0..65535.  Rows are emitted top-first (largest Y first) so
    viewers show the image upright."""
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("window must satisfy high > low")
    values = np.asarray(values, dtype=np.float64)
    height, width = values.shape
    scaled = (np.clip(values, lo, hi) - lo) / (hi - lo) * 65535.0
    samples = np.round(scaled).astype(">u2")[::-1, :]  # big-endian per PGM spec
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n65535\n".encode("ascii"))
        fh.write(np.ascontiguousarray(samples).tobytes())


def write_pgm16(path, img: ImageGrid, window_hu: tuple[float, float]):
    """16-bit PGM preview of an image with a caller-specified HU window."""
    write_pgm16_values(path, img.to_hu(), window_hu)
