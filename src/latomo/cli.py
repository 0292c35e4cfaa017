"""Configuration-driven experiment runner and command line interface.

``latomo run <config>`` executes the full pipeline for one algorithm:
rasterize the phantom, simulate the fan-beam sinogram, optionally add
Poisson noise, reconstruct, and write images, difference images, PGM
previews, and the convergence CSV into the output directory.  Configs are
INI-style ``key = value`` files; every value can be overridden on the
command line with ``--set section.key=value``.

Exit codes: 0 success, 1 invalid configuration or parameters, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .core import (
    MU_PER_HU,
    FanBeamGeometry,
    ImageGrid,
    ParameterError,
    RoiRect,
    Sinogram,
    write_pgm16,
    write_pgm16_values,
    write_raw,
    write_raw_image,
    write_raw_sinogram,
)
from .driver import ReconConfig, run_reconstruction
from .phantom import (
    NoiseSpec,
    PhantomSpec,
    add_poisson_noise,
    builtin_head_phantom,
    load_phantom_spec,
    rasterize,
    roi_rect_for_grid,
)
from .projector import Projector
from .tv import LineSearchParams

log = logging.getLogger(__name__)


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


DEFAULT_CONFIG = """\
# latomo experiment configuration (full-scale defaults)
[phantom]
spec = builtin

[grid]
width = 512
height = 512
pixel_size = 0.5

[geometry]
source_to_detector = 1088
source_to_isocenter = 544
detector_channels = 768
channel_size = 0.5
angle_start = 10
angle_end = 170
angle_increment = 1

[noise]
# photons per channel without attenuation, or `none` for a clean scan
photons = none
seed = 0

[recon]
algorithm = wtv
relaxation = 0.8
eps_hu = 5
steps = 10
levels = 1
# budgets: inner steps per scale, coarse to fine; empty = built-in table
budgets =
alpha = 0.3
ls_beta = 0.6
t0 = 4e-4
max_shrinks = 30
iterations = 500

[roi]
# `builtin` uses the phantom's published rectangle; or give mm coordinates
# as `x0 y0 x1 y1`; or `none`
region = builtin

[output]
dir = out
window = 0 100
diff_window = -25 25
"""

# --desk: CI-sized variant of the same experiment, applied before any --set
DESK_SETS = [
    "grid.width=256",
    "grid.height=256",
    "grid.pixel_size=1.0",
    "geometry.detector_channels=384",
    "geometry.channel_size=1.0",
    "recon.iterations=200",
]


@dataclass
class ExperimentConfig:
    phantom: PhantomSpec
    noise: NoiseSpec | None
    recon: ReconConfig
    roi: RoiRect | None  # on the recon grid; None logs full-image RMSE only
    window: tuple[float, float]
    diff_window: tuple[float, float]
    output_dir: Path
    resolved: configparser.ConfigParser


def _parse(text: str, source: str) -> configparser.ConfigParser:
    # values are taken as written: a `%` is a character, not interpolation
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    cp.read_string(text, source=source)
    return cp


def load_config(config_path=None, sets=()) -> configparser.ConfigParser:
    """The built-in defaults, overlaid with the INI file at ``config_path``
    when one is given, then with ``sets`` (``section.key=value`` strings) in
    order.  Unknown sections and keys are rejected."""
    cp = _parse(DEFAULT_CONFIG, "<defaults>")
    if config_path is not None:
        path = Path(config_path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        try:
            user = _parse(text, str(path))
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
        if user.defaults():
            raise ConfigError(f"{path}: unknown section [{user.default_section}]")
        for section in user.sections():
            for key, value in user.items(section, raw=True):
                if not cp.has_option(section, key):
                    raise ConfigError(f"{section}.{key}: unknown key in {path}")
                cp.set(section, key, value)
            if not cp.has_section(section):  # an empty section of its own
                raise ConfigError(f"{path}: unknown section [{section}]")
    for assignment in sets:
        if "=" not in assignment:
            raise ConfigError(f"--set expects section.key=value, got {assignment!r}")
        target, value = assignment.split("=", 1)
        if "." not in target:
            raise ConfigError(f"--set expects section.key=value, got {assignment!r}")
        section, key = target.split(".", 1)
        section, key = section.strip(), key.strip()
        if not cp.has_section(section):
            raise ConfigError(f"--set: unknown section {section!r}")
        if not cp.has_option(section, key):
            raise ConfigError(f"--set: unknown key {section}.{key}")
        cp.set(section, key, value.strip())
    return cp


def _get(cp, key, convert, kind):
    section, option = key.split(".")
    raw = cp.get(section, option)
    try:
        return convert(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected {kind}, got {raw!r}") from None


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _integral(raw: str) -> int:
    value = float(raw)
    if not value.is_integer():
        raise ValueError(raw)
    return int(value)


def _photons(raw: str) -> float | None:
    return None if raw.strip().lower() in ("none", "off", "") else _finite(raw)


def _budgets(raw: str) -> tuple[int, ...] | None:
    return tuple(int(b) for b in raw.replace(",", " ").split()) or None


_FINITE = (_finite, "a finite number")
_COUNT = (_integral, "an integer")

# INI key -> (the object it configures, the field it sets there, the reader
# of its value, what the reader's error says it expects).  Every key but
# phantom.spec, roi.region and output.* is read here, and a ParameterError
# a constructor raises for a field is reported under the key that set it.
PARAMETERS = {
    "geometry.source_to_detector": ("geometry", "source_to_detector", *_FINITE),
    "geometry.source_to_isocenter": ("geometry", "source_to_isocenter", *_FINITE),
    "geometry.detector_channels": ("geometry", "detector_channels", *_COUNT),
    "geometry.channel_size": ("geometry", "channel_size", *_FINITE),
    "geometry.angle_start": ("geometry", "angle_start", *_FINITE),
    "geometry.angle_end": ("geometry", "angle_end", *_FINITE),
    "geometry.angle_increment": ("geometry", "angle_increment", *_FINITE),
    "noise.photons": ("noise", "incident_photons", _photons, "`none` or a finite number"),
    "noise.seed": ("noise", "rng_seed", *_COUNT),
    "grid.width": ("recon", "width", *_COUNT),
    "grid.height": ("recon", "height", *_COUNT),
    "grid.pixel_size": ("recon", "pixel_size", *_FINITE),
    "recon.algorithm": ("recon", "algorithm", lambda raw: raw.strip().lower(), "a name"),
    "recon.relaxation": ("recon", "relaxation", *_FINITE),
    "recon.eps_hu": ("recon", "eps_hu", *_FINITE),
    "recon.steps": ("recon", "tv_steps", *_COUNT),
    "recon.levels": ("recon", "levels", *_COUNT),
    "recon.budgets": ("recon", "budgets", _budgets, "integers"),
    "recon.alpha": ("line_search", "alpha", *_FINITE),
    "recon.ls_beta": ("line_search", "beta", *_FINITE),
    "recon.t0": ("line_search", "t0", *_FINITE),
    "recon.max_shrinks": ("line_search", "max_shrinks", *_COUNT),
    "recon.iterations": ("recon", "iterations", *_COUNT),
}
_KEYS = {(target, name): key for key, (target, name, *_) in PARAMETERS.items()}


def _window(low: float, high: float, name: str) -> tuple[float, float]:
    """The display window ``name``, if both ends are finite and low < high."""
    if not (math.isfinite(low) and math.isfinite(high) and low < high):
        raise ValueError(f"{name}: expected two finite numbers, low < high, "
                         f"got {low:g} {high:g}")
    return low, high


def _get_window(cp, key) -> tuple[float, float]:
    def conv(raw):
        parts = raw.replace(",", " ").split()
        if len(parts) != 2:
            raise ValueError(raw)
        return _window(float(parts[0]), float(parts[1]), key)
    return _get(cp, f"output.{key}", conv, "two finite numbers, low < high")


def _load_phantom(spec: str):
    """The built-in head phantom, or the phantom spec file at ``spec``."""
    if spec.lower() == "builtin":
        return builtin_head_phantom()
    try:
        return load_phantom_spec(spec)
    except OSError as exc:
        raise ConfigError(f"phantom.spec: cannot read {spec}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"phantom.spec: {exc}") from None


def build_experiment(cp: configparser.ConfigParser) -> ExperimentConfig:
    fields = {"geometry": {}, "noise": {}, "recon": {}, "line_search": {}}
    for key, (target, name, convert, kind) in PARAMETERS.items():
        fields[target][name] = _get(cp, key, convert, kind)

    def build(cls, target, **given):
        try:
            return cls(**fields[target], **given)
        except ParameterError as exc:
            raise ConfigError(f"{_KEYS[target, exc.name]}: {exc}") from None

    geometry = build(FanBeamGeometry, "geometry")
    noise = None
    if fields["noise"]["incident_photons"] is not None:
        noise = build(NoiseSpec, "noise")
    recon = build(ReconConfig, "recon", geometry=geometry,
                  line_search=build(LineSearchParams, "line_search"))

    spec = _load_phantom(cp.get("phantom", "spec").strip())
    roi_raw = cp.get("roi", "region").strip().lower()
    roi_mm = None
    if roi_raw == "builtin":
        roi_mm = spec.roi_mm
        if roi_mm is None:
            log.warning("phantom publishes no ROI; RMSE is logged full-image only")
    elif roi_raw not in ("none", ""):
        parts = roi_raw.replace(",", " ").split()
        if len(parts) != 4:
            raise ConfigError("roi.region: expected `builtin`, `none`, or 4 numbers")
        try:
            roi_mm = tuple(_finite(p) for p in parts)
        except ValueError:
            raise ConfigError(
                f"roi.region: expected finite numbers, got {roi_raw!r}"
            ) from None
    roi = None
    if roi_mm is not None:
        try:
            roi = roi_rect_for_grid(roi_mm, recon.width, recon.height, recon.pixel_size)
        except ValueError as exc:
            raise ConfigError(f"roi.region: {exc}") from None

    return ExperimentConfig(
        phantom=spec,
        noise=noise,
        recon=recon,
        roi=roi,
        window=_get_window(cp, "window"),
        diff_window=_get_window(cp, "diff_window"),
        output_dir=Path(cp.get("output", "dir")),
        resolved=cp,
    )


def prepare_scene(cfg: ExperimentConfig) -> tuple[ImageGrid, Projector, Sinogram, Sinogram]:
    """The configured scene: ``(truth, projector, clean, measured)``.  The
    phantom is rasterized on the recon grid, the projector traced for its
    geometry, and ``measured`` is the clean sinogram with the configured
    noise, or the clean sinogram itself when the config sets none."""
    recon, geom = cfg.recon, cfg.recon.geometry
    log.info("rasterizing phantom (%dx%d at %g mm)", recon.width, recon.height,
             recon.pixel_size)
    truth = rasterize(cfg.phantom, recon.width, recon.height, recon.pixel_size)
    projector = Projector(geom, recon.width, recon.height, recon.pixel_size)
    log.info("simulating %d views x %d channels", geom.num_views, geom.detector_channels)
    clean = Sinogram(geom.num_views, geom.detector_channels,
                     geom.view_angles_deg(), projector.forward(truth.data))
    mirrored, reflected = projector.mirrored_views, projector.reflected_views
    log.info("projector: %d views traced, %d mirrored, %d reflected, %.1f MB",
             geom.num_views - mirrored - reflected, mirrored, reflected,
             projector.nbytes / 2**20)
    measured = clean if cfg.noise is None else add_poisson_noise(clean, cfg.noise)
    return truth, projector, clean, measured


def run_experiment(config_path, sets=()) -> Path:
    """Execute one configured reconstruction; returns the output directory."""
    cfg = build_experiment(load_config(config_path, sets))
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config_echo.ini", "w") as fh:
        cfg.resolved.write(fh)

    truth, projector, clean, measured = prepare_scene(cfg)
    recon, geom = cfg.recon, cfg.recon.geometry
    write_raw_image(out / "ground_truth.raw", truth)
    write_pgm16(out / "ground_truth.pgm", truth, cfg.window)
    write_raw_sinogram(out / "sinogram_clean.raw", clean, geom.channel_size)
    if cfg.noise is not None:
        write_raw_sinogram(out / "sinogram_noisy.raw", measured, geom.channel_size)

    algorithm = recon.algorithm
    log.info("reconstructing with %s (%d iterations)", algorithm, recon.iterations)
    image, conv_log = run_reconstruction(recon, measured, reference=truth,
                                         roi=cfg.roi, projector=projector)
    write_raw_image(out / f"recon_{algorithm}.raw", image)
    write_pgm16(out / f"recon_{algorithm}.pgm", image, cfg.window)
    diff = image.data - truth.data
    write_raw(out / f"diff_{algorithm}.raw", diff, recon.pixel_size)
    write_pgm16_values(out / f"diff_{algorithm}.pgm", diff / MU_PER_HU,
                       cfg.diff_window)
    conv_log.write_csv(out / f"convergence_{algorithm}.csv")
    final = conv_log.rows[-1]
    log.info("done: final ROI RMSE %s HU, full RMSE %s HU",
             "n/a" if final.roi_rmse_hu is None else f"{final.roi_rmse_hu:.2f}",
             "n/a" if final.full_rmse_hu is None else f"{final.full_rmse_hu:.2f}")
    return out


def _column_names(paths: list[Path]) -> list[str]:
    """Each CSV's stem, or ``parent/stem`` where another file has its stem;
    a file named twice keeps one name."""
    def clashing(names):  # the names that two different files would take
        files = {}
        for path, name in zip(paths, names):
            files.setdefault(name, set()).add(path.resolve())
        return {name for name, found in files.items() if len(found) > 1}

    clash = clashing([path.stem for path in paths])
    names = [f"{p.parent.name}/{p.stem}" if p.stem in clash else p.stem for p in paths]
    for name in clashing(names):
        both = " and ".join(str(p) for p, n in zip(paths, names) if n == name)
        raise ConfigError(f"compare: {both} both give the column {name}")
    return names


def compare_runs(log_paths, out_path) -> int:
    """Merge convergence CSVs into one table: iter plus one ROI-RMSE column
    per run, named by the CSV's stem, or by ``parent/stem`` where two files
    share a stem.  Shorter runs are padded with empty cells (with a
    warning).  Returns the number of data rows written."""
    if not log_paths:
        raise ConfigError("compare: need at least one CSV")
    paths = [Path(path) for path in log_paths]
    columns = []
    for path, name in zip(paths, _column_names(paths)):
        try:
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            raise ConfigError(f"compare: cannot read {path}: {exc}") from None
        if not rows or "roi_rmse_hu" not in rows[0] or "iter" not in rows[0]:
            raise ConfigError(f"compare: {path} is not a convergence CSV")
        columns.append((name, [row["roi_rmse_hu"] for row in rows]))
    length = max(len(series) for _, series in columns)
    if any(len(series) != length for _, series in columns):
        log.warning("compare: iteration counts differ; padding short columns")
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iter"] + [name for name, _ in columns])
        for i in range(length):
            writer.writerow(
                [i] + [series[i] if i < len(series) else "" for _, series in columns]
            )
    return length


def _cmd_run(args) -> int:
    run_experiment(args.config, sets=(DESK_SETS if args.desk else []) + args.set)
    return 0


def _cmd_compare(args) -> int:
    n = compare_runs(args.csvs, args.out)
    log.info("wrote %s (%d rows)", args.out, n)
    return 0


def _cmd_phantom(args) -> int:
    window = _window(*args.window, "--window")
    img = rasterize(_load_phantom(args.spec), args.width, args.height, args.pixel_size)
    write_raw_image(args.out, img)
    if args.pgm:
        write_pgm16(args.pgm, img, window)
    log.info("wrote %s", args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latomo",
        description="Limited-angle fan-beam CT reconstruction experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("config", help="INI experiment configuration")
    p_run.add_argument("--set", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="override a config value")
    p_run.add_argument("--desk", action="store_true",
                       help="desk-scale preset: 256^2 grid, 384x1mm detector, "
                            "200 iterations")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="merge convergence CSVs for plotting")
    p_cmp.add_argument("csvs", nargs="+", help="convergence CSV files")
    p_cmp.add_argument("--out", default="compare.csv", help="merged CSV path")
    p_cmp.set_defaults(func=_cmd_compare)

    p_ph = sub.add_parser("phantom", help="rasterize a phantom spec to a raw image")
    p_ph.add_argument("spec", help="phantom spec file or `builtin`")
    p_ph.add_argument("--out", required=True, help="raw image output path")
    p_ph.add_argument("--width", type=int, default=512)
    p_ph.add_argument("--height", type=int, default=512)
    p_ph.add_argument("--pixel-size", type=float, default=0.5, dest="pixel_size")
    p_ph.add_argument("--pgm", help="also write a PGM preview here")
    p_ph.add_argument("--window", type=float, nargs=2, default=(0.0, 100.0),
                      help="HU window for the PGM preview")
    p_ph.set_defaults(func=_cmd_phantom)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # I/O and other runtime failures
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
