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
import sys
from dataclasses import dataclass
from pathlib import Path

from .core import (
    MU_PER_HU,
    FanBeamGeometry,
    RoiRect,
    Sinogram,
    write_pgm16,
    write_pgm16_values,
    write_raw,
    write_raw_image,
    write_raw_sinogram,
)
from .driver import ReconConfig, check_projector, run_reconstruction
from .phantom import (
    NoiseSpec,
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

# --desk: CI-sized variant of the same experiment
DESK_OVERRIDES = {
    ("grid", "width"): "256",
    ("grid", "height"): "256",
    ("grid", "pixel_size"): "1.0",
    ("geometry", "detector_channels"): "384",
    ("geometry", "channel_size"): "1.0",
    ("recon", "iterations"): "200",
}


@dataclass
class ExperimentConfig:
    phantom_spec: str
    noise: NoiseSpec | None
    recon: ReconConfig
    roi_mode: str  # builtin | none | mm
    roi_mm: tuple[float, float, float, float] | None
    window: tuple[float, float]
    diff_window: tuple[float, float]
    output_dir: Path
    resolved: configparser.ConfigParser


def _parser_with_defaults() -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read_string(DEFAULT_CONFIG)
    return cp


def _load_ini(config_path, sets=(), desk=False) -> configparser.ConfigParser:
    cp = _parser_with_defaults()
    path = Path(config_path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if desk:
        for (section, key), value in DESK_OVERRIDES.items():
            cp.set(section, key, value)
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


def _get(cp, section, key, convert, kind):
    raw = cp.get(section, key)
    try:
        return convert(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: expected {kind}, got {raw!r}") from None


def _get_float(cp, section, key) -> float:
    return _get(cp, section, key, float, "a number")


def _integral(raw: str) -> int:
    value = float(raw)
    if not value.is_integer():
        raise ValueError(raw)
    return int(value)


def _get_int(cp, section, key) -> int:
    return _get(cp, section, key, _integral, "an integer")


def _get_pair(cp, section, key) -> tuple[float, float]:
    def conv(raw):
        parts = raw.replace(",", " ").split()
        if len(parts) != 2:
            raise ValueError(raw)
        return float(parts[0]), float(parts[1])
    return _get(cp, section, key, conv, "two numbers")


def build_experiment(cp: configparser.ConfigParser) -> ExperimentConfig:
    try:
        geometry = FanBeamGeometry(
            source_to_detector=_get_float(cp, "geometry", "source_to_detector"),
            source_to_isocenter=_get_float(cp, "geometry", "source_to_isocenter"),
            detector_channels=_get_int(cp, "geometry", "detector_channels"),
            channel_size=_get_float(cp, "geometry", "channel_size"),
            angle_start=_get_float(cp, "geometry", "angle_start"),
            angle_end=_get_float(cp, "geometry", "angle_end"),
            angle_increment=_get_float(cp, "geometry", "angle_increment"),
        )
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from None

    seed = _get_int(cp, "noise", "seed")
    photons_raw = cp.get("noise", "photons").strip().lower()
    if photons_raw in ("none", "off", ""):
        noise = None
    else:
        try:
            noise = NoiseSpec(float(photons_raw), seed)
        except ValueError as exc:
            raise ConfigError(f"noise.photons: {exc}") from None

    budgets_raw = cp.get("recon", "budgets").strip()
    budgets = None
    if budgets_raw:
        try:
            budgets = tuple(int(b) for b in budgets_raw.replace(",", " ").split())
        except ValueError:
            raise ConfigError(
                f"recon.budgets: expected integers, got {budgets_raw!r}"
            ) from None
    try:
        line_search = LineSearchParams(
            alpha=_get_float(cp, "recon", "alpha"),
            beta=_get_float(cp, "recon", "ls_beta"),
            t0=_get_float(cp, "recon", "t0"),
            max_shrinks=_get_int(cp, "recon", "max_shrinks"),
        )
        recon = ReconConfig(
            algorithm=cp.get("recon", "algorithm").strip().lower(),
            geometry=geometry,
            width=_get_int(cp, "grid", "width"),
            height=_get_int(cp, "grid", "height"),
            pixel_size=_get_float(cp, "grid", "pixel_size"),
            relaxation=_get_float(cp, "recon", "relaxation"),
            eps_hu=_get_float(cp, "recon", "eps_hu"),
            tv_steps=_get_int(cp, "recon", "steps"),
            levels=_get_int(cp, "recon", "levels"),
            budgets=budgets,
            line_search=line_search,
            iterations=_get_int(cp, "recon", "iterations"),
        )
    except ValueError as exc:
        raise ConfigError(f"recon: {exc}") from None

    roi_raw = cp.get("roi", "region").strip().lower()
    roi_mm = None
    if roi_raw == "builtin":
        roi_mode = "builtin"
    elif roi_raw in ("none", ""):
        roi_mode = "none"
    else:
        roi_mode = "mm"
        parts = roi_raw.replace(",", " ").split()
        if len(parts) != 4:
            raise ConfigError("roi.region: expected `builtin`, `none`, or 4 numbers")
        try:
            roi_mm = tuple(float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"roi.region: expected numbers, got {roi_raw!r}") from None

    return ExperimentConfig(
        phantom_spec=cp.get("phantom", "spec").strip(),
        noise=noise,
        recon=recon,
        roi_mode=roi_mode,
        roi_mm=roi_mm,
        window=_get_pair(cp, "output", "window"),
        diff_window=_get_pair(cp, "output", "diff_window"),
        output_dir=Path(cp.get("output", "dir")),
        resolved=cp,
    )


def _load_phantom(cfg: ExperimentConfig):
    if cfg.phantom_spec.lower() == "builtin":
        return builtin_head_phantom()
    try:
        return load_phantom_spec(cfg.phantom_spec)
    except OSError as exc:
        raise ConfigError(f"phantom.spec: cannot read {cfg.phantom_spec}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"phantom.spec: {exc}") from None


def _resolve_roi(cfg: ExperimentConfig, spec) -> RoiRect | None:
    if cfg.roi_mode == "none":
        return None
    roi_mm = cfg.roi_mm if cfg.roi_mode == "mm" else spec.roi_mm
    if roi_mm is None:
        log.warning("phantom publishes no ROI; RMSE is logged full-image only")
        return None
    recon = cfg.recon
    try:
        return roi_rect_for_grid(roi_mm, recon.width, recon.height, recon.pixel_size)
    except ValueError as exc:
        raise ConfigError(f"roi.region: {exc}") from None


def run_experiment(config_path, sets=(), desk=False,
                   projector: Projector | None = None) -> Path:
    """Execute one configured reconstruction; returns the output directory."""
    cfg = build_experiment(_load_ini(config_path, sets, desk))
    spec = _load_phantom(cfg)
    roi = _resolve_roi(cfg, spec)
    recon, geom = cfg.recon, cfg.recon.geometry
    if projector is not None:
        check_projector(projector, recon)

    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config_echo.ini", "w") as fh:
        cfg.resolved.write(fh)

    log.info("rasterizing phantom (%dx%d at %g mm)", recon.width, recon.height,
             recon.pixel_size)
    truth = rasterize(spec, recon.width, recon.height, recon.pixel_size)
    write_raw_image(out / "ground_truth.raw", truth)
    write_pgm16(out / "ground_truth.pgm", truth, cfg.window)

    if projector is None:
        projector = Projector(geom, recon.width, recon.height, recon.pixel_size)
    log.info("simulating %d views x %d channels", geom.num_views, geom.detector_channels)
    clean = Sinogram(geom.num_views, geom.detector_channels,
                     geom.view_angles_deg(), projector.forward(truth.data))
    write_raw_sinogram(out / "sinogram_clean.raw", clean, geom.channel_size)
    mirrored = projector.mirrored_views
    log.info("projector: %d views stored, %d mirrored, %.1f MB",
             geom.num_views - mirrored, mirrored, projector.nbytes / 2**20)
    measured = clean
    if cfg.noise is not None:
        measured = add_poisson_noise(clean, cfg.noise)
        write_raw_sinogram(out / "sinogram_noisy.raw", measured,
                           geom.channel_size)

    algorithm = recon.algorithm
    log.info("reconstructing with %s (%d iterations)", algorithm, recon.iterations)
    image, conv_log = run_reconstruction(recon, measured, reference=truth,
                                         roi=roi, projector=projector)
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


def compare_runs(log_paths, out_path) -> int:
    """Merge convergence CSVs into one table: iter plus one ROI-RMSE column
    per run.  Shorter runs are padded with empty cells (with a warning).
    Returns the number of data rows written."""
    if not log_paths:
        raise ConfigError("compare: need at least one CSV")
    columns = []
    for path in log_paths:
        path = Path(path)
        try:
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            raise ConfigError(f"compare: cannot read {path}: {exc}") from None
        if not rows or "roi_rmse_hu" not in rows[0] or "iter" not in rows[0]:
            raise ConfigError(f"compare: {path} is not a convergence CSV")
        columns.append((path.stem, [row["roi_rmse_hu"] for row in rows]))
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
    run_experiment(args.config, sets=args.set, desk=args.desk)
    return 0


def _cmd_compare(args) -> int:
    n = compare_runs(args.csvs, args.out)
    log.info("wrote %s (%d rows)", args.out, n)
    return 0


def _cmd_phantom(args) -> int:
    if args.spec.lower() == "builtin":
        spec = builtin_head_phantom()
    else:
        spec = load_phantom_spec(args.spec)
    img = rasterize(spec, args.width, args.height, args.pixel_size)
    write_raw_image(args.out, img)
    if args.pgm:
        write_pgm16(args.pgm, img, tuple(args.window))
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
