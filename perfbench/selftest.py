"""Tests of the benchmark itself; they are not part of latomo's suite.

    python3 -m pytest -q perfbench/selftest.py

A small-grid smoke run of every workload, plain and traced; each output
check fed a deliberately corrupted output; and the printed metric names
against BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from latomo.projector import Projector  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = workloads.Scene(64, 4.0, 96, 4.0, 1.0)


def smoke(workload):
    """The same workload on a 64^2 grid over 2 iterations."""
    return replace(workload, scene=replace(SMOKE, increment=workload.scene.increment),
                   iterations=2)


def names(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def smoke_runs(request, tmp_path_factory):
    w = smoke(workloads.WORKLOADS[request.param])
    work = tmp_path_factory.mktemp(request.param)
    plain = workloads.measure(w, 7, 0.0, False, work / "plain")
    traced = workloads.measure(w, 7, 0.0, True, work / "traced")
    return w, plain, traced


def test_smoke_run_passes_every_check(smoke_runs):
    _, plain, traced = smoke_runs
    for result in (plain, traced):
        assert result["correct"] and result["failed"] == 0
    assert plain["attempted"] == 1 and traced["attempted"] == 2
    assert all(m["value"] > 0 for m in plain["metrics"].values())


def test_metric_names_match_benchmark_json(smoke_runs):
    _, plain, traced = smoke_runs
    assert {k: m["unit"] for k, m in plain["metrics"].items()} == names("end_to_end")
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == names("per_layer")
    assert set(layers.METRICS) == set(names("per_layer"))
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_traced_run_reaches_the_workload_layers(smoke_runs):
    w, _, traced = smoke_runs
    values = {k: m["value"] for k, m in traced["metrics"].items()}
    for name in ("projector.trace_s", "projector.sweep_ms", "tv.steps_accepted",
                 "driver.iter_ms", "driver.reg_ms", "phantom.rasterize_ms",
                 "trace.overhead_pct"):
        assert values[name] is not None, name
    assert values["projector.view_updates"] == w.iterations * w.scene.views
    variant = {"ssatv1": "ssatv1.pass_ms.s16", "ssatv2": "ssatv2.pass_ms.s4",
               "wtv": "cli.config_ms"}[w.algorithm]
    assert values[variant] is not None


def test_traced_run_reports_every_layer(smoke_runs):
    """Layers the workload does not reach are measured by their probes."""
    _, _, traced = smoke_runs
    absent = [k for k, m in traced["metrics"].items()
              if not isinstance(m["value"], (int, float))]
    assert absent == []


def test_renamed_wrap_point_is_reported_absent(monkeypatch, tmp_path):
    renamed = tuple(
        (module, path + "_renamed" if path == "ssatv1_pass" else path, event)
        for module, path, event in layers.WRAP_POINTS)
    monkeypatch.setattr(layers, "WRAP_POINTS", renamed)
    w = smoke(workloads.WORKLOADS["fewview-noisy-ssatv1"])
    result = workloads.measure(w, 7, 0.0, True, tmp_path)
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    assert values["ssatv1.pass_ms.s1"] is None and values["driver.reg_ms"] is None
    assert values["tv.steps_accepted"] is not None


# -- every check rejects a corrupted output --------------------------------------

SCENE = replace(SMOKE, increment=20.0)


@pytest.fixture(scope="module")
def projector():
    return Projector(SCENE.geometry(), SCENE.size, SCENE.size, SCENE.pixel_size)


class ScaledForward:
    """A projector whose forward projection is off by ``factor``."""

    def __init__(self, inner, factor=1.01, sums=1.0):
        self.inner, self.factor, self.sums = inner, factor, sums

    def forward_view(self, values, view):
        return self.factor * self.inner.forward_view(values, view)

    def backproject_view(self, residual, view):
        return self.inner.backproject_view(residual, view)

    def view_sums(self, view):
        sums = self.inner.view_sums(view)
        return replace(sums, row_sums=self.sums * sums.row_sums)


def test_projector_checks(projector):
    views = range(SCENE.views)
    rng = np.random.default_rng(0)
    assert checks.check_projector(projector, SCENE, views, rng) == []
    scaled = checks.check_projector(ScaledForward(projector), SCENE, views, rng)
    assert any("constant image" in f for f in scaled)
    assert any("adjoint" in f for f in scaled)
    sums = checks.check_projector(ScaledForward(projector, 1.0, 1.01), SCENE, views, rng)
    assert sums and all("ray sums" in f for f in sums)


def test_image_check_rejects_negative_and_nan():
    image = np.full((8, 8), 0.02)
    assert checks.check_image(image) == []
    image[3, 4] = -1e-9
    assert checks.check_image(image)
    image[3, 4] = np.nan
    assert checks.check_image(image)


def test_rmse_check():
    truth = np.full((16, 16), 0.02)
    image = truth + 2e-5
    roi = checks.roi_slices((-2.0, -2.0, 2.0, 2.0), 16, 1.0)
    assert checks.check_rmse(image, truth, roi, 1.0, 1.0) == []
    assert checks.check_rmse(image, truth, roi, 1.0, 1.01)
    assert checks.check_rmse(np.zeros_like(truth), truth, roi, 1000.0, 1000.0)


def test_residual_check(projector):
    truth = np.full((SCENE.size, SCENE.size), 0.02)
    sino = projector.forward(truth)
    assert checks.check_residual(projector.forward(truth), sino)[1] == []
    rel, failures = checks.check_residual(projector.forward(0 * truth), sino)
    assert rel == 1.0 and failures


def test_digest_check():
    image = np.arange(12.0).reshape(3, 4)
    same = checks.digest(image)
    image[1, 1] = np.nextafter(image[1, 1], 1e9)
    assert checks.check_digests([same, same]) == [[], []]
    assert checks.check_digests([same, same, checks.digest(image)])[2]


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    w = smoke(workloads.WORKLOADS["full-cli-wtv"])
    out = tmp_path_factory.mktemp("cli") / "out"
    from latomo import cli
    config = out.parent / "experiment.ini"
    config.write_text(workloads._cli_config(w, 7, out))
    assert cli.main(["run", str(config)]) == 0
    return w, out


def corrupt(src, dst, edit):
    shutil.copytree(src, dst)
    edit(dst)
    return dst


def test_artifact_checks(cli_outputs, tmp_path):
    w, out = cli_outputs
    args = (w.algorithm, w.scene, w.iterations, w.photons)
    assert checks.check_artifacts(out, *args)[1] == []

    def bump_diff(d):
        raw = bytearray((d / "diff_wtv.raw").read_bytes())
        value = np.frombuffer(raw, "<f4", 1, 16 + 4 * 100)[0]
        raw[16 + 400:16 + 404] = np.float32(value + 1e-4).tobytes()
        (d / "diff_wtv.raw").write_bytes(bytes(raw))

    def drop_row(d):
        lines = (d / "convergence_wtv.csv").read_text().splitlines()
        (d / "convergence_wtv.csv").write_text("\n".join(lines[:-1]) + "\n")

    def wrong_pitch(d):
        raw = bytearray((d / "recon_wtv.raw").read_bytes())
        raw[8:12] = np.float32(w.scene.pixel_size * 2).tobytes()
        (d / "recon_wtv.raw").write_bytes(bytes(raw))

    for edit in (bump_diff, drop_row, wrong_pitch):
        broken = corrupt(out, tmp_path / edit.__name__, edit)
        assert checks.check_artifacts(broken, *args)[1], edit.__name__
    truncated = corrupt(out, tmp_path / "truncated",
                        lambda d: (d / "ground_truth.raw").write_bytes(b"\0" * 20))
    with pytest.raises(ValueError):
        checks.check_artifacts(truncated, *args)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "desk-ssatv2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
