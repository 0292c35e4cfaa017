import logging
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from latomo.cli import (
    ConfigError,
    build_experiment,
    compare_runs,
    main,
    run_experiment,
    _load_ini,
)
from latomo.projector import Projector

TINY = """\
[grid]
width = 48
height = 48
pixel_size = 4.0

[geometry]
detector_channels = 72
channel_size = 5.0
angle_increment = 8

[recon]
algorithm = wtv
iterations = 3

[output]
dir = {out}
"""


def write_config(tmp_path, text=None, name="exp.ini"):
    path = tmp_path / name
    path.write_text((text or TINY).format(out=tmp_path / "out"))
    return path


class TestConfigParsing:
    def test_defaults_describe_full_experiment(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("[output]\ndir = x\n")
        cfg = build_experiment(_load_ini(path))
        assert cfg.recon.width == 512 and cfg.recon.pixel_size == 0.5
        assert cfg.recon.geometry.num_views == 161
        assert cfg.recon.iterations == 500
        assert cfg.recon.relaxation == 0.8
        assert cfg.noise is None

    def test_desk_preset(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("[output]\ndir = x\n")
        cfg = build_experiment(_load_ini(path, desk=True))
        assert cfg.recon.width == 256 and cfg.recon.pixel_size == 1.0
        assert cfg.recon.geometry.detector_channels == 384
        assert cfg.recon.iterations == 200
        assert cfg.recon.geometry.num_views == 161

    def test_set_overrides(self, tmp_path):
        path = write_config(tmp_path)
        cfg = build_experiment(
            _load_ini(path, sets=["recon.algorithm=ssatv2", "recon.levels=3"])
        )
        assert cfg.recon.algorithm == "ssatv2"
        assert cfg.recon.levels == 3

    def test_set_rejects_unknown_key(self, tmp_path):
        path = write_config(tmp_path)
        with pytest.raises(ConfigError, match="unknown key"):
            _load_ini(path, sets=["recon.turbo=1"])

    def test_budget_sum_error_names_field(self, tmp_path):
        path = write_config(tmp_path)
        with pytest.raises(ConfigError, match="budgets"):
            build_experiment(_load_ini(path, sets=[
                "recon.algorithm=ssatv1", "recon.levels=3",
                "recon.budgets=3 3 3",  # sums to 9, steps is 10
            ]))

    def test_step_budget_errors_name_field(self, tmp_path):
        path = write_config(tmp_path)
        for sets, field in (
            (["recon.steps=0"], "tv_steps"),
            (["recon.steps=-3"], "tv_steps"),
            (["recon.max_shrinks=-1"], "max_shrinks"),
        ):
            with pytest.raises(ConfigError, match=field):
                build_experiment(_load_ini(path, sets=sets))

    def test_non_numeric_value_names_field(self, tmp_path):
        path = write_config(tmp_path)
        with pytest.raises(ConfigError, match="grid.width"):
            build_experiment(_load_ini(path, sets=["grid.width=wide"]))
        with pytest.raises(ConfigError, match="recon.iterations"):
            build_experiment(_load_ini(path, sets=["recon.iterations=2.7"]))
        with pytest.raises(ConfigError, match="noise.seed"):  # even without noise
            build_experiment(_load_ini(path, sets=["noise.seed=abc"]))
        assert build_experiment(_load_ini(path, sets=["recon.iterations=2e1"])
                                ).recon.iterations == 20

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            _load_ini(tmp_path / "nope.ini")

    def test_roi_modes(self, tmp_path):
        path = write_config(tmp_path)
        assert build_experiment(_load_ini(path)).roi_mode == "builtin"
        cfg = build_experiment(_load_ini(path, sets=["roi.region=none"]))
        assert cfg.roi_mode == "none"
        cfg = build_experiment(_load_ini(path, sets=["roi.region=-10 -50 10 -30"]))
        assert cfg.roi_mode == "mm" and cfg.roi_mm == (-10.0, -50.0, 10.0, -30.0)


class TestRunExperiment:
    def test_writes_all_artifacts(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="latomo.cli")
        path = write_config(tmp_path)
        out = run_experiment(path)
        # 10-170 degrees in 8-degree steps: 21 views, 10 mirror pairs
        assert re.search(r"projector: 11 views stored, 10 mirrored, [0-9.]+ MB",
                         caplog.text)
        for name in (
            "config_echo.ini",
            "ground_truth.raw",
            "ground_truth.pgm",
            "sinogram_clean.raw",
            "recon_wtv.raw",
            "recon_wtv.pgm",
            "diff_wtv.raw",
            "diff_wtv.pgm",
            "convergence_wtv.csv",
        ):
            assert (out / name).exists(), name
        assert not (out / "sinogram_noisy.raw").exists()

    def test_mismatched_projector_rejected_before_any_write(self, tmp_path):
        path = write_config(tmp_path)
        geometry = build_experiment(_load_ini(path)).recon.geometry
        projector = Projector(geometry, 48, 48, 2.0)  # the config says 4 mm
        with pytest.raises(ValueError, match="pixel_size"):
            run_experiment(path, projector=projector)
        assert not (tmp_path / "out").exists()
        assert projector.nbytes == 0

    def test_too_short_pyramid_rejected_before_any_write(self, tmp_path):
        # 16 rows at scale 16 leave one coarse row
        path = write_config(tmp_path)
        sets = ["grid.height=16", "recon.algorithm=ssatv2", "recon.levels=5"]
        with pytest.raises(ConfigError, match=r"levels = 5 .*height = 16"):
            run_experiment(path, sets=sets)
        assert not (tmp_path / "out").exists()
        argv = ["run", str(path)] + [arg for s in sets for arg in ("--set", s)]
        assert main(argv) == 1
        assert not (tmp_path / "out").exists()

    def test_noise_artifact_and_clean_reproducibility(self, tmp_path):
        path = write_config(tmp_path)
        out = run_experiment(path, sets=["noise.photons=5e6", "noise.seed=42"])
        noisy = (out / "sinogram_noisy.raw").read_bytes()
        clean = (out / "sinogram_clean.raw").read_bytes()
        assert noisy != clean

        rerun_dir = tmp_path / "rerun"
        out2 = run_experiment(path, sets=[
            "noise.photons=5e6", "noise.seed=42", f"output.dir={rerun_dir}",
        ])
        assert (out2 / "sinogram_noisy.raw").read_bytes() == noisy
        assert (out2 / "recon_wtv.raw").read_bytes() == (out / "recon_wtv.raw").read_bytes()

    def test_echoed_config_reproduces_run(self, tmp_path):
        path = write_config(tmp_path)
        out = run_experiment(path)
        echo = out / "config_echo.ini"
        redo_dir = tmp_path / "redo"
        out2 = run_experiment(echo, sets=[f"output.dir={redo_dir}"])
        for name in ("ground_truth.raw", "sinogram_clean.raw", "recon_wtv.raw",
                     "diff_wtv.raw"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes(), name
        # CSV identical except the wall-time column
        strip = lambda p: [",".join(line.split(",")[:5])
                           for line in (p).read_text().splitlines()]
        assert strip(out / "convergence_wtv.csv") == strip(out2 / "convergence_wtv.csv")


class TestCompareRuns:
    def make_log(self, path, n, base=10.0):
        lines = ["iter,roi_rmse_hu,full_rmse_hu,objective,steps_accepted,wall_ms"]
        for i in range(n):
            lines.append(f"{i},{base - i},{base - i},1.0,10,5.0")
        Path(path).write_text("\n".join(lines) + "\n")

    def test_identical_logs_give_identical_columns(self, tmp_path):
        a = tmp_path / "run_a.csv"
        self.make_log(a, 5)
        out = tmp_path / "merged.csv"
        compare_runs([a, a], out)
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[0] == ["iter", "run_a", "run_a"]
        for row in rows[1:]:
            assert row[1] == row[2]

    def test_short_column_is_padded(self, tmp_path, caplog):
        a, b = tmp_path / "long.csv", tmp_path / "short.csv"
        self.make_log(a, 6)
        self.make_log(b, 3)
        out = tmp_path / "merged.csv"
        with caplog.at_level("WARNING"):
            n = compare_runs([a, b], out)
        assert n == 6
        rows = out.read_text().splitlines()
        assert len(rows) == 7
        assert rows[-1].endswith(",")  # padded cell
        assert any("padding" in rec.message for rec in caplog.records)

    def test_rejects_non_log_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError):
            compare_runs([bad], tmp_path / "merged.csv")


class TestMain:
    def test_run_and_exit_codes(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["run", str(path)]) == 0

    def test_invalid_config_exits_one(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["run", str(path), "--set", "recon.algorithm=magic"]) == 1

    def test_missing_config_exits_one(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.ini")]) == 1

    def test_phantom_subcommand(self, tmp_path):
        out = tmp_path / "head.raw"
        pgm = tmp_path / "head.pgm"
        code = main(["phantom", "builtin", "--out", str(out), "--width", "64",
                     "--height", "64", "--pixel-size", "3.0", "--pgm", str(pgm)])
        assert code == 0
        assert out.exists() and pgm.exists()
        from latomo.core import read_raw_image
        img = read_raw_image(out)
        assert img.width == 64 and img.data.max() > 0.03  # skull present

    def test_compare_subcommand(self, tmp_path):
        log = tmp_path / "c.csv"
        TestCompareRuns().make_log(log, 4)
        merged = tmp_path / "m.csv"
        assert main(["compare", str(log), "--out", str(merged)]) == 0
        assert merged.exists()
