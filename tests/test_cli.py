import configparser
import dataclasses
import logging
import math
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latomo.cli import (
    DEFAULT_CONFIG,
    DESK_SETS,
    ConfigError,
    build_experiment,
    compare_runs,
    main,
    load_config,
    run_experiment,
)
from latomo.core import read_raw
from latomo.phantom import builtin_head_phantom, roi_rect_for_grid

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
        cfg = build_experiment(load_config(path))
        assert cfg.recon.width == 512 and cfg.recon.pixel_size == 0.5
        assert cfg.recon.geometry.num_views == 161
        assert cfg.recon.iterations == 500
        assert cfg.recon.relaxation == 0.8
        assert cfg.noise is None

    def test_desk_preset(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("[output]\ndir = x\n")
        cfg = build_experiment(load_config(path, DESK_SETS))
        assert cfg.recon.width == 256 and cfg.recon.pixel_size == 1.0
        assert cfg.recon.geometry.detector_channels == 384
        assert cfg.recon.iterations == 200
        assert cfg.recon.geometry.num_views == 161

    def test_set_overrides(self, tmp_path):
        path = write_config(tmp_path)
        cfg = build_experiment(
            load_config(path, sets=["recon.algorithm=ssatv2", "recon.levels=3"])
        )
        assert cfg.recon.algorithm == "ssatv2"
        assert cfg.recon.levels == 3

    def test_set_rejects_unknown_key(self, tmp_path):
        path = write_config(tmp_path)
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path, sets=["recon.turbo=1"])

    @pytest.mark.parametrize("typo, message", [
        ("[recon]\niteration = 1", r"^recon\.iteration: unknown key"),
        ("[recon]\nalgoritm = ssatv1", r"^recon\.algoritm: unknown key"),
        ("[gird]\nwidth = 64\n[recon]", r"^gird\.width: unknown key"),
        ("[gird]\n[recon]", r"unknown section \[gird\]"),
        ("[DEFAULT]\nwidth = 64\n[recon]", r"unknown section \[DEFAULT\]"),
    ], ids=["iterations-typo", "algorithm-typo", "section-typo", "empty-section",
            "default-section"])
    def test_file_rejects_unknown_key(self, tmp_path, capsys, typo, message):
        # once resolved silently to the defaults: wtv, 500 iterations, 512^2
        path = write_config(tmp_path, TINY.replace("[recon]", typo, 1))
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        assert main(["run", str(path)]) == 1
        assert "unknown" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_percent_in_file_value_is_a_character(self, tmp_path, capsys, monkeypatch):
        # once rejected as interpolation syntax, naming no key
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, TINY + "\n[phantom]\nspec = 100%.phantom\n")
        with pytest.raises(ConfigError, match=r"^phantom\.spec: cannot read 100%\.phantom"):
            build_experiment(load_config(path))
        assert main(["run", str(path)]) == 1
        assert "error: phantom.spec: cannot read 100%.phantom" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_percent_in_set_value_runs_and_is_echoed(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "100%"
        argv = ["run", str(path), "--set", f"output.dir={out}",
                "--set", "recon.iterations=1"]
        assert main(argv) == 0
        echo = out / "config_echo.ini"
        assert f"dir = {out}\n" in echo.read_text()
        assert load_config(echo).get("output", "dir") == str(out)

    def test_budget_sum_error_names_field(self, tmp_path):
        path = write_config(tmp_path)
        with pytest.raises(ConfigError, match="budgets"):
            build_experiment(load_config(path, sets=[
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
                build_experiment(load_config(path, sets=sets))

    def test_non_numeric_value_names_field(self, tmp_path):
        path = write_config(tmp_path)
        with pytest.raises(ConfigError, match="grid.width"):
            build_experiment(load_config(path, sets=["grid.width=wide"]))
        with pytest.raises(ConfigError, match="recon.iterations"):
            build_experiment(load_config(path, sets=["recon.iterations=2.7"]))
        with pytest.raises(ConfigError, match="noise.seed"):  # even without noise
            build_experiment(load_config(path, sets=["noise.seed=abc"]))
        assert build_experiment(load_config(path, sets=["recon.iterations=2e1"])
                                ).recon.iterations == 20

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.ini")

    def test_roi_modes(self, tmp_path):
        path = write_config(tmp_path)
        assert build_experiment(load_config(path)).roi == roi_rect_for_grid(
            builtin_head_phantom().roi_mm, 48, 48, 4.0)
        cfg = build_experiment(load_config(path, sets=["roi.region=none"]))
        assert cfg.roi is None
        cfg = build_experiment(load_config(path, sets=["roi.region=-10 -50 10 -30"]))
        assert cfg.roi == roi_rect_for_grid((-10.0, -50.0, 10.0, -30.0), 48, 48, 4.0)

    def test_desk_sets_yield_to_user_sets(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("[output]\ndir = x\n")
        cfg = build_experiment(load_config(path, DESK_SETS + ["grid.width=128"]))
        assert cfg.recon.width == 128 and cfg.recon.height == 256


# One `--set` on top of a runnable config; each case once passed
# build_experiment and failed later, after files were written, or not at all.
BAD_VALUES = [
    ("geometry.channel_size=nan", "geometry.channel_size"),
    ("geometry.angle_start=nan", "geometry.angle_start"),
    ("geometry.angle_increment=nan", "geometry.angle_increment"),
    ("geometry.angle_end=inf", "geometry.angle_end"),
    ("geometry.source_to_detector=inf", "geometry.source_to_detector"),
    ("noise.photons=inf", "noise.photons"),
    ("recon.eps_hu=inf", "recon.eps_hu"),
    ("recon.t0=inf", "recon.t0"),
    ("roi.region=-10 nan 10 -30", "roi.region"),
    ("output.window=0 inf", "output.window"),
    ("output.window=100 0", "output.window"),
    ("output.diff_window=5 5", "output.diff_window"),
]


@pytest.mark.parametrize("assignment, key", BAD_VALUES,
                         ids=[a for a, _ in BAD_VALUES])
def test_bad_value_rejected_before_any_write(tmp_path, capsys, assignment, key):
    path = write_config(tmp_path)
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}:"):
        build_experiment(load_config(path, [assignment]))
    assert main(["run", str(path), "--set", assignment]) == 1
    assert f"error: {key}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Sets that a library type rejects, each with the INI key the error must
# name; several keys differ from the parameter names the types use.
NAMED_ERRORS = [
    (["recon.algorithm=ssatv1", "recon.levels=7"], "recon.levels"),
    (["recon.levels=3"], "recon.levels"),
    (["recon.algorithm=sart", "recon.levels=4"], "recon.levels"),
    (["recon.algorithm=sart", "recon.budgets=10"], "recon.budgets"),
    (["recon.algorithm=sart", "recon.steps=0"], "recon.steps"),
    (["recon.algorithm=ssatv2", "recon.levels=5", "grid.height=16"], "recon.levels"),
    (["recon.steps=0"], "recon.steps"),
    (["recon.ls_beta=1.5"], "recon.ls_beta"),
    (["recon.alpha=0.5"], "recon.alpha"),
    (["recon.t0=0"], "recon.t0"),
    (["recon.max_shrinks=-1"], "recon.max_shrinks"),
    (["recon.relaxation=1.5"], "recon.relaxation"),
    (["recon.eps_hu=0"], "recon.eps_hu"),
    (["recon.iterations=0"], "recon.iterations"),
    (["recon.algorithm=magic"], "recon.algorithm"),
    (["recon.algorithm=ssatv1", "geometry.angle_start=0", "geometry.angle_end=40"],
     "recon.algorithm"),
    (["recon.algorithm=ssatv1", "recon.levels=3", "recon.budgets=3 3 3"],
     "recon.budgets"),
    (["recon.algorithm=ssatv1", "recon.levels=3", "recon.steps=7"], "recon.budgets"),
    (["noise.photons=0"], "noise.photons"),
    (["noise.photons=1e5", "noise.seed=-1"], "noise.seed"),
]


@pytest.mark.parametrize("sets, key", NAMED_ERRORS,
                         ids=[" ".join(sets) for sets, _ in NAMED_ERRORS])
def test_error_names_the_ini_key(tmp_path, capsys, sets, key):
    path = write_config(tmp_path)
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}:"):
        build_experiment(load_config(path, sets))
    assert main(["run", str(path)] + [arg for s in sets for arg in ("--set", s)]) == 1
    assert f"error: {key}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_noise_seed_rejected_before_any_write(tmp_path, capsys):
    path = write_config(tmp_path)
    sets = ["noise.photons=1e5", "noise.seed=-1"]
    with pytest.raises(ConfigError, match=r"^noise\.seed:"):
        build_experiment(load_config(path, sets))
    assert main(["run", str(path), "--set", sets[0], "--set", sets[1]]) == 1
    assert "error: noise.seed:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_finite_phantom_spec_rejected_before_any_write(tmp_path, capsys):
    # once passed build_experiment and failed on the nan image after
    # config_echo.ini was written
    spec = tmp_path / "bad.phantom"
    spec.write_text("ellipse 0 0 50 50 0 100\nellipse 0 0 50 50 0 nan\n")
    path = write_config(tmp_path)
    assignment = f"phantom.spec={spec}"
    with pytest.raises(ConfigError, match=rf"^phantom\.spec: .*bad\.phantom:2:"):
        build_experiment(load_config(path, [assignment]))
    assert main(["run", str(path), "--set", assignment]) == 1
    assert "value_hu must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _floats(value):
    """Every float inside a (nested) dataclass, tuple or number."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _floats(getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from _floats(item)
    elif isinstance(value, float):
        yield value


_DEFAULTS = configparser.ConfigParser(inline_comment_prefixes=("#",))
_DEFAULTS.read_string(DEFAULT_CONFIG)
CONFIG_KEYS = [f"{section}.{key}" for section in _DEFAULTS.sections()
               for key in _DEFAULTS[section]]
CONFIG_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e400", "", "x", "3 2", "5 5"]),
    st.floats().map(repr),
    st.integers().map(str),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(key=st.sampled_from(CONFIG_KEYS), value=CONFIG_VALUES)
def test_every_override_is_valid_or_names_its_section(tmp_path_factory, key, value):
    path = tmp_path_factory.getbasetemp() / "override.ini"
    if not path.exists():
        path.write_text("[output]\ndir = out\n")
    sets = ["roi.region=none", f"{key}={value}"]
    try:
        cfg = build_experiment(load_config(path, sets))
    except ConfigError as exc:
        assert str(exc).startswith(key.split(".")[0]), (key, value, str(exc))
        return
    assert all(math.isfinite(x) for x in _floats((cfg.recon, cfg.noise))), (key, value)
    for low, high in (cfg.window, cfg.diff_window):
        assert math.isfinite(low) and math.isfinite(high) and low < high, (key, value)


class TestRunExperiment:
    def test_writes_all_artifacts(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="latomo.cli")
        path = write_config(tmp_path)
        out = run_experiment(path)
        # 10-170 degrees in 8-degree steps: 21 views, 10 mirror pairs and
        # no two angles 90 degrees apart or summing to 90 degrees
        assert re.search(r"projector: 11 views traced, 10 mirrored, 0 reflected, "
                         r"[0-9.]+ MB", caplog.text)
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

    def test_log_counts_reflected_views(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="latomo.cli")
        path = write_config(tmp_path)
        run_experiment(path, sets=["geometry.angle_increment=5", "recon.iterations=1"])
        # 33 views: 10-45, 85 and 90 traced; 50-80 reflect 40-10, 100-130
        # rotate 10-40, and 95 and 135-170 mirror 85 and 45-10
        assert re.search(r"projector: 10 views traced, 9 mirrored, 14 reflected, "
                         r"[0-9.]+ MB", caplog.text)

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

    @pytest.mark.parametrize("assignment, message", [
        ("grid.width=0", "grid.width: width must be >= 1"),
        ("grid.height=0", "grid.height: height must be >= 1"),
        ("grid.pixel_size=-1", "grid.pixel_size: pixel_size must be > 0"),
    ], ids=["width", "height", "pixel_size"])
    def test_bad_grid_rejected_before_any_write(self, tmp_path, capsys,
                                                assignment, message):
        # once failed only after config_echo.ini was written
        path = write_config(tmp_path)
        sets = [assignment, "roi.region=none"]
        with pytest.raises(ConfigError, match=message):
            run_experiment(path, sets=sets)
        argv = ["run", str(path)] + [arg for s in sets for arg in ("--set", s)]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
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
        data, pixel_size = read_raw(out)
        assert data.shape == (64, 64) and pixel_size == 3.0
        assert data.max() > 0.03  # skull present

    @pytest.mark.parametrize("pixel_size", ["inf", "0", "nan"])
    def test_phantom_subcommand_bad_pixel_size_exits_one(self, tmp_path, capsys,
                                                         pixel_size):
        out = tmp_path / "x.raw"
        argv = ["phantom", "builtin", "--out", str(out), "--width", "8",
                "--height", "8", "--pixel-size", pixel_size]
        assert main(argv) == 1
        assert "pixel_size must be > 0 and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("window", [("100", "0"), ("5", "5"), ("nan", "5"),
                                        ("0", "inf")])
    def test_phantom_subcommand_bad_window_writes_nothing(self, tmp_path, capsys, window):
        # an inverted or nan window once failed only at the preview, after
        # the raw image was written
        out, pgm = tmp_path / "x.raw", tmp_path / "x.pgm"
        argv = ["phantom", "builtin", "--out", str(out), "--width", "8", "--height", "8",
                "--pgm", str(pgm), "--window", *window]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error: --window: expected two finite numbers, low < high" in err
        assert not out.exists() and not pgm.exists()

    def test_phantom_subcommand_missing_spec_exits_one(self, tmp_path, capsys):
        missing = tmp_path / "nope.spec"
        out = tmp_path / "x.raw"
        assert main(["phantom", str(missing), "--out", str(out)]) == 1
        assert f"cannot read {missing}" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_subcommand(self, tmp_path):
        log = tmp_path / "c.csv"
        TestCompareRuns().make_log(log, 4)
        merged = tmp_path / "m.csv"
        assert main(["compare", str(log), "--out", str(merged)]) == 0
        assert merged.exists()
