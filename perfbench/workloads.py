"""The benchmark's workloads and the loop that measures one of them.

One operation is one whole repeat of a workload: set-up (phantom, projector
trace, simulated sinogram, noise), the outer iterations, and the output
checks.  A run repeats the operation until ``--seconds`` have passed and
reports medians over its repeats.  Import this module only after the thread
variables are pinned (see run.py).
"""

from __future__ import annotations

import configparser
import gc
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
import layers
from latomo import cli, core, driver, phantom, projector as projector_mod
from latomo.tv import LineSearchParams

CHECKED_VIEWS = 4
PHOTONS = 5e6  # fewview-noisy-ssatv1's dose, also used by the noise probe


@dataclass(frozen=True)
class Scene:
    """Square grid centred on the isocentre and a flat fan-beam detector."""

    size: int
    pixel_size: float
    channels: int
    channel_size: float
    increment: float
    angle_start: float = 10.0
    angle_end: float = 170.0
    source_to_detector: float = 1088.0
    source_to_isocenter: float = 544.0

    @property
    def views(self) -> int:
        return int(round((self.angle_end - self.angle_start) / self.increment)) + 1

    def geometry(self):
        return core.FanBeamGeometry(
            self.source_to_detector, self.source_to_isocenter, self.channels,
            self.channel_size, self.angle_start, self.angle_end, self.increment)


@dataclass(frozen=True)
class Workload:
    name: str
    scene: Scene
    algorithm: str
    levels: int
    iterations: int
    photons: float | None = None
    via_cli: bool = False


DESK = Scene(256, 1.0, 384, 1.0, 1.0)
FULL = Scene(512, 0.5, 768, 0.5, 1.0)  # `latomo run` built-in defaults

WORKLOADS = {w.name: w for w in (
    Workload("desk-ssatv2", DESK, "ssatv2", levels=3, iterations=18),
    Workload("fewview-noisy-ssatv1", replace(DESK, increment=4.0), "ssatv1",
             levels=5, iterations=50, photons=PHOTONS),
    Workload("full-cli-wtv", FULL, "wtv", levels=1, iterations=2, via_cli=True),
)}


class Timeline:
    """Clock marks of one repeat: start, start of the first SART sweep, the
    end of every outer iteration (from ``on_iteration``) and the end."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.start = time.perf_counter()
        self.recon_start = self.end = None
        self.iteration_ends = []

    def begin_recon(self):
        self.recon_start = time.perf_counter()
        if self.tracer:
            self.tracer.recon_start()

    def iteration_end(self, index, values):
        self.iteration_ends.append(time.perf_counter())
        if self.tracer:
            self.tracer.iteration_end(index, values)

    def finish(self):
        self.end = time.perf_counter()


@dataclass
class Outcome:
    setup_s: float
    iteration_s: list[float]
    tail_s: float  # from the last iteration to the end, e.g. writing artifacts
    roi_rmse_hu: float
    full_rmse_hu: float
    digest: str
    residual: float
    failures: list[str] = field(default_factory=list)
    layers: dict | None = None

    @classmethod
    def timed(cls, timeline: Timeline, *args):
        marks = [timeline.recon_start] + timeline.iteration_ends
        return cls(timeline.recon_start - timeline.start, list(np.diff(marks)),
                   timeline.end - marks[-1], *args)

    @property
    def recon_s(self) -> float:
        return sum(self.iteration_s)

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.recon_s + self.tail_s


def _check_views(scene: Scene, rng) -> list[int]:
    return sorted(int(v) for v in rng.choice(scene.views, CHECKED_VIEWS, replace=False))


# Layers a workload may never reach.  After a traced repeat, each one whose
# metrics came out absent is called once on the repeat's own final image and
# sinogram, through the same wrapped bindings, so every workload reports
# every layer.  Each probe is (metric prefix, events it calls, function).

def _probe_ssatv1(image, sinogram, seed, workdir):
    eps, params = driver.ReconConfig.eps_hu, LineSearchParams()
    for scale, steps in driver.make_scale_schedule(5).entries:
        image, _ = driver.ssatv1_pass(image, eps, scale, steps, params)


def _probe_ssatv2(image, sinogram, seed, workdir):
    eps, params = driver.ReconConfig.eps_hu, LineSearchParams()
    for scale, steps in driver.make_scale_schedule(3).entries:
        level = driver.make_pyramid_level(image, scale, eps)
        image, _ = driver.ssatv2_pass(image, level, eps, steps, params)


def _probe_noise(image, sinogram, seed, workdir):
    phantom.add_poisson_noise(sinogram, phantom.NoiseSpec(PHOTONS, seed))


def _probe_write(image, sinogram, seed, workdir):
    cli.write_raw(workdir / "probe.raw", image, 1.0)
    cli.write_pgm16_values(workdir / "probe.pgm", image / core.MU_PER_HU, (0.0, 100.0))


def _probe_config(image, sinogram, seed, workdir):
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read_string(cli.DEFAULT_CONFIG)
    cli.build_experiment(cp)


PROBES = (
    ("ssatv1.", {"ssatv1_pass"}, _probe_ssatv1),
    ("ssatv2.", {"level", "ssatv2_pass"}, _probe_ssatv2),
    ("phantom.noise_ms", {"noise"}, _probe_noise),
    ("core.write_ms", {"write"}, _probe_write),
    ("cli.config_ms", {"config"}, _probe_config),
)


def _traced_layers(tracer, image, sinogram, seed, workdir) -> dict:
    """The repeat's per-layer metrics, with every layer it did not reach
    measured by its probe, timed as one outer iteration of its own.  A
    layer whose wrap point is gone stays absent."""
    values = tracer.layer_metrics()
    probes = [(prefix, probe) for prefix, events, probe in PROBES
              if events <= tracer.present
              and any(v is None for k, v in values.items() if k.startswith(prefix))]
    if not probes:
        return values
    image = np.asarray(image, dtype=np.float64)
    tracer.reset()
    tracer.recon_start()
    for _, probe in probes:
        probe(image, sinogram, seed, workdir)
    tracer.iteration_end(0, None)
    probed = tracer.layer_metrics()
    for prefix, _ in probes:
        for name, value in values.items():
            if value is None and name.startswith(prefix):
                values[name] = probed[name]
    for name in ("probe.raw", "probe.pgm"):
        (workdir / name).unlink(missing_ok=True)
    return values


def run_direct(w: Workload, seed: int, rng, workdir: Path, tracer=None) -> Outcome:
    """Desk-style run: set-up built from latomo's public functions on one
    prebuilt projector, then ``run_reconstruction``."""
    timeline = Timeline(tracer)
    scene = w.scene
    size, pixel = scene.size, scene.pixel_size
    geom = scene.geometry()
    spec = phantom.builtin_head_phantom()
    truth = phantom.rasterize(spec, size, size, pixel)
    roi = phantom.roi_rect_for_grid(spec.roi_mm, size, size, pixel)
    projector = projector_mod.Projector(geom, size, size, pixel)
    sinogram = core.Sinogram(geom.num_views, geom.detector_channels,
                             geom.view_angles_deg(), projector.forward(truth.data))
    if w.photons:
        sinogram = phantom.add_poisson_noise(sinogram, phantom.NoiseSpec(w.photons, seed))
    config = driver.ReconConfig(w.algorithm, geom, size, size, pixel,
                                levels=w.levels, iterations=w.iterations)
    timeline.begin_recon()
    image, log = driver.run_reconstruction(
        config, sinogram, reference=truth, roi=roi, projector=projector,
        on_iteration=timeline.iteration_end)
    timeline.finish()

    last = log.rows[-1]
    region = checks.roi_slices(spec.roi_mm, size, pixel)
    failures = checks.check_image(image.data)
    failures += checks.check_rmse(image.data, truth.data, region,
                                  last.roi_rmse_hu, last.full_rmse_hu)
    residual, found = checks.check_residual(projector.forward(image.data), sinogram.data)
    failures += found
    failures += checks.check_projector(projector, scene, _check_views(scene, rng), rng)
    if len(log.rows) != w.iterations:
        failures.append(f"log has {len(log.rows)} rows, expected {w.iterations}")
    outcome = Outcome.timed(timeline, last.roi_rmse_hu, last.full_rmse_hu,
                            checks.digest(image.data), residual, failures)
    if tracer:
        outcome.layers = _traced_layers(tracer, image.data, sinogram, seed, workdir)
    return outcome


def _cli_config(w: Workload, seed: int, out: Path) -> str:
    lines = ["[recon]", f"algorithm = {w.algorithm}", f"levels = {w.levels}",
             f"iterations = {w.iterations}", "[output]", f"dir = {out}"]
    if w.photons:
        lines += ["[noise]", f"photons = {w.photons:g}", f"seed = {seed}"]
    s = w.scene
    if s != FULL:
        lines += ["[grid]", f"width = {s.size}", f"height = {s.size}",
                  f"pixel_size = {s.pixel_size}", "[geometry]",
                  f"detector_channels = {s.channels}", f"channel_size = {s.channel_size}",
                  f"angle_increment = {s.increment}"]
    return "\n".join(lines) + "\n"


def run_cli(w: Workload, seed: int, rng, workdir: Path, tracer=None) -> Outcome:
    """`latomo run` on a config that sets only the algorithm, its levels, the
    iteration count and the output directory.  Two bindings in latomo.cli
    are wrapped for the whole run: ``Projector``, to keep the projector for
    the checks, and ``run_reconstruction``, to mark where set-up ends and
    where each iteration ends."""
    out = workdir / "out"
    config_path = workdir / "experiment.ini"
    config_path.write_text(_cli_config(w, seed, out))
    made = []
    real_projector, real_recon = cli.Projector, cli.run_reconstruction

    def keep_projector(*args, **kwargs):
        made.append(real_projector(*args, **kwargs))
        return made[-1]

    def mark_recon(*args, **kwargs):
        timeline.begin_recon()
        return real_recon(*args, on_iteration=timeline.iteration_end, **kwargs)

    cli.Projector, cli.run_reconstruction = keep_projector, mark_recon
    timeline = Timeline(tracer)
    try:
        code = cli.main(["run", str(config_path)])
        timeline.finish()
    finally:
        cli.Projector, cli.run_reconstruction = real_projector, real_recon
    if code != 0 or len(made) != 1 or not timeline.iteration_ends:
        raise RuntimeError(f"latomo run exited with {code}")

    scene = w.scene
    arrays, failures = checks.check_artifacts(out, w.algorithm, scene, w.iterations,
                                              w.photons)
    if failures:
        raise RuntimeError("; ".join(failures))
    image, truth = arrays[f"recon_{w.algorithm}"], arrays["ground_truth"]
    measured = arrays["sinogram_noisy" if w.photons else "sinogram_clean"]
    last = arrays["log"][-1]
    logged_roi, logged_full = float(last["roi_rmse_hu"]), float(last["full_rmse_hu"])
    region = checks.roi_slices(phantom.builtin_head_phantom().roi_mm, scene.size,
                               scene.pixel_size)
    failures += checks.check_image(image)
    # The CSV carries 10 significant digits of RMSE on float64 images; the
    # artifacts are float32, which moves the RMSE by well under 1e-3 HU.
    failures += checks.check_rmse(image, truth, region, logged_roi, logged_full,
                                  rtol=1e-6, atol=1e-3)
    projector = made.pop()
    residual, found = checks.check_residual(
        projector.forward(image.astype(np.float64)), measured)
    failures += found
    failures += checks.check_projector(projector, scene, _check_views(scene, rng), rng)
    shutil.rmtree(out)
    outcome = Outcome.timed(timeline, logged_roi, logged_full, checks.digest(image),
                            residual, failures)
    if tracer:
        geom = scene.geometry()
        sinogram = core.Sinogram(geom.num_views, geom.detector_channels,
                                 geom.view_angles_deg(), measured.astype(np.float64))
        outcome.layers = _traced_layers(tracer, image, sinogram, seed, workdir)
    return outcome


def run_once(w: Workload, seed: int, index: int, workdir: Path, tracer=None) -> Outcome:
    rng = np.random.default_rng([seed, index])
    if tracer:
        tracer.reset()
    if w.via_cli:
        outcome = run_cli(w, seed, rng, workdir, tracer)
    else:
        outcome = run_direct(w, seed, rng, workdir, tracer)
    return outcome


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path,
            report=None) -> dict:
    """Repeats the workload until ``seconds`` have passed and returns the
    result object the benchmark prints.  With ``trace`` the repeats alternate
    traced and untraced, traced first, so the tracing overhead is measured in
    the same process; only per-layer metrics are reported then."""
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = layers.Tracer() if trace else None
    outcomes: list[tuple[bool, Outcome | None]] = []
    start = time.perf_counter()
    try:
        while True:
            traced = trace and len(outcomes) % 2 == 0
            gc.collect()
            try:
                if traced:
                    with tracer:
                        outcome = run_once(w, seed, len(outcomes), workdir, tracer)
                else:
                    outcome = run_once(w, seed, len(outcomes), workdir)
            except Exception:  # a failed operation; the run goes on
                outcome = None
                if report:
                    report(f"repeat {len(outcomes)} failed:\n{traceback.format_exc()}")
            outcomes.append((traced, outcome))
            if report and outcome:
                report(f"repeat {len(outcomes) - 1}{' traced' if traced else ''}: "
                       f"setup {outcome.setup_s:.3f} s, recon {outcome.recon_s:.3f} s, "
                       f"wall {outcome.wall_s:.3f} s, roi {outcome.roi_rmse_hu:.4f} HU, "
                       f"full {outcome.full_rmse_hu:.4f} HU, residual {outcome.residual:.4f}"
                       + "".join(f"\n  check failed: {f}" for f in outcome.failures))
            done = time.perf_counter() - start >= seconds
            if done and (not trace or len(outcomes) >= 2):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    finished = [o for _, o in outcomes if o is not None]
    digests = [o.digest for o in finished]
    for o, found in zip(finished, checks.check_digests(digests)):
        o.failures += found
    good = [(t, o) for t, o in outcomes if o is not None and not o.failures]
    failed = len(outcomes) - len(good)
    if trace:
        metrics = _layer_metrics(good)
    elif finished:
        metrics = _end_to_end([o for _, o in good] or finished)
    else:
        metrics = {}
    return {"correct": bool(good), "attempted": len(outcomes), "failed": failed,
            "metrics": metrics}


def _median(values):
    return statistics.median(values) if values else None


def _end_to_end(outcomes: list[Outcome]) -> dict:
    """Medians over the repeats.  The iterations are taken one index at a
    time, median over the repeats, and summed: a slow spell on a shared
    machine then has to hit the same iteration of most repeats to show."""
    setup_s = _median([o.setup_s for o in outcomes])
    recon_s = sum(_median(times) for times in zip(*(o.iteration_s for o in outcomes)))
    tail_s = _median([o.tail_s for o in outcomes])
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "recon_s": {"value": recon_s, "unit": "s"},
        "wall_s": {"value": setup_s + recon_s + tail_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "roi_rmse_hu": {"value": _median([o.roi_rmse_hu for o in outcomes]), "unit": "HU"},
        "full_rmse_hu": {"value": _median([o.full_rmse_hu for o in outcomes]), "unit": "HU"},
    }


def _layer_metrics(good: list[tuple[bool, Outcome]]) -> dict:
    """Medians over the traced repeats, except counts, which repeat exactly,
    and the trace's RSS growth, which only the first repeat of a process
    shows in full: later ones reuse memory the allocator kept."""
    traced = [o for t, o in good if t]
    plain = [o for t, o in good if not t]
    out = {}
    for name, (unit, _) in layers.METRICS.items():
        values = [o.layers.get(name) for o in traced]
        if not values or None in values:
            value = None
        elif unit == "count" or name == "projector.trace_rss_mb":
            value = values[0]
        else:
            value = _median(values)
        out[name] = {"value": value, "unit": unit}
    if traced and plain:
        ratio = _median([o.recon_s for o in traced]) / _median([o.recon_s for o in plain])
        out["trace.overhead_pct"]["value"] = 100.0 * (ratio - 1.0)
    return out
