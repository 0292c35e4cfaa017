import os
import subprocess
import sys
from pathlib import Path

import pytest

from latomo.cli import main

ROOT = Path(__file__).resolve().parents[1]

# a 32^2 scene small enough for a few seconds per comparison
SMALL = ["grid.width=32", "grid.height=32", "grid.pixel_size=8", "recon.iterations=2"]
SCAN_120 = ["geometry.angle_start=30", "geometry.angle_end=150"]


def run_script(sets, *args):
    # the script runs in a fresh interpreter, so importing latomo.cli there
    # also imports the package root, which no other test covers
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [sys.executable, str(ROOT / "scripts" / "run_comparison.py"), *args]
    for assignment in sets:
        command += ["--set", assignment]
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)


def test_run_comparison_smoke(tmp_path):
    out = tmp_path / "comparison"
    result = run_script(SMALL + [f"output.dir={out}"], "--levels", "2")
    assert result.returncode == 0, result.stderr
    for name in ("wtv", "ssatv1_l2", "ssatv2_l2"):
        assert name in result.stdout
        assert (out / f"convergence_{name}.csv").exists()
    header = (out / "compare.csv").read_text().splitlines()[0]
    assert header == "iter,convergence_wtv,convergence_ssatv1_l2,convergence_ssatv2_l2"


def test_run_comparison_runs_every_algorithm_on_a_120_degree_scan(tmp_path):
    out = tmp_path / "comparison"
    result = run_script(SMALL + SCAN_120 + [f"output.dir={out}"], "--levels", "3")
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in out.glob("convergence_*.csv")) == [
        "convergence_ssatv1_l3.csv", "convergence_ssatv2_l3.csv", "convergence_wtv.csv"]


def lone_run_log(tmp_path, sets, algorithm="wtv", levels=1):
    """`latomo run --desk` of one algorithm with the script's noise seed:
    its convergence log, every line without its timing column."""
    config = tmp_path / "empty.ini"
    config.write_text("")
    argv = ["run", str(config), "--desk"]
    for assignment in sets + ["noise.seed=42", f"recon.algorithm={algorithm}",
                              f"recon.levels={levels}", f"output.dir={tmp_path / 'cli'}"]:
        argv += ["--set", assignment]
    assert main(argv) == 0
    return without_wall_ms(tmp_path / "cli" / f"convergence_{algorithm}.csv")


def without_wall_ms(path):
    lines = path.read_text().splitlines()
    assert lines[0].endswith(",wall_ms") and len(lines) == 4
    return [line.rsplit(",", 1)[0] for line in lines]


def test_run_comparison_wtv_matches_latomo_run(tmp_path):
    """The script's scene is `latomo run --desk`'s with noise seed 42: same
    --set values, same wtv convergence log but for the timing column."""
    sets = SMALL + ["noise.photons=1e5", "recon.iterations=3"]
    result = run_script(sets + [f"output.dir={tmp_path / 'script'}"], "--levels", "2")
    assert result.returncode == 0, result.stderr
    assert (without_wall_ms(tmp_path / "script" / "convergence_wtv.csv")
            == lone_run_log(tmp_path, sets))


def test_run_comparison_ssatv2_does_not_depend_on_the_runs_before_it(tmp_path):
    """`ssatv2 l2` runs last in the script, after `wtv` and `ssatv1 l2` in
    the same process on the same projector; its log equals a lone
    `latomo run` of it but for the timing column."""
    sets = SMALL + ["noise.photons=1e5", "recon.iterations=3"]
    result = run_script(sets + [f"output.dir={tmp_path / 'script'}"], "--levels", "2")
    assert result.returncode == 0, result.stderr
    assert (without_wall_ms(tmp_path / "script" / "convergence_ssatv2_l2.csv")
            == lone_run_log(tmp_path, sets, "ssatv2", 2))


@pytest.mark.parametrize("sets, levels, key", [
    ([], ["2", "6"], "recon.levels"),
    (["grid.width=16", "grid.height=16"], ["5"], "recon.levels"),
    (["roi.region=none"], ["2"], "roi.region"),
], ids=["level-6", "too-few-rows", "no-roi"])
def test_run_comparison_rejects_a_bad_config_before_any_run(tmp_path, sets, levels, key):
    out = tmp_path / "comparison"
    result = run_script(SMALL + sets + [f"output.dir={out}"], "--levels", *levels)
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {key}: ")
    assert "Traceback" not in result.stderr
    assert not out.exists()


def test_run_comparison_labels_the_iteration_it_reads(tmp_path):
    """A run shorter than 100 iterations reports its mid-run figures at its
    last iteration, under that iteration's number."""
    out = tmp_path / "comparison"
    result = run_script(SMALL + ["recon.iterations=5", f"output.dir={out}"], "--levels", "2")
    assert result.returncode == 0, result.stderr
    assert "at iter 100" not in result.stdout
    lines = result.stdout.splitlines()
    assert sum("at iter 5 " in line for line in lines) == 3  # wtv, ssatv1, ssatv2
    assert any(line.strip().startswith("ssatv1 l=2 at iter 5:") for line in lines)


def test_run_comparison_wtv_takes_no_per_level_budgets(tmp_path):
    """Budgets given for the scale-space runs' levels leave wtv its one
    schedule entry of recon.steps, as a lone `latomo run` of it has."""
    sets = SMALL + ["recon.iterations=3", "recon.steps=4"]
    out = tmp_path / "script"
    result = run_script(sets + ["recon.budgets=1 1 2", f"output.dir={out}"], "--levels", "3")
    assert result.returncode == 0, result.stderr
    assert (without_wall_ms(out / "convergence_wtv.csv")
            == lone_run_log(tmp_path, sets))
