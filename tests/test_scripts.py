import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_comparison_smoke(tmp_path):
    # the script imports the package root, which no other test covers
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = tmp_path / "comparison"
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_comparison.py"), "--size", "32",
         "--pixel-size", "8", "--iterations", "2", "--levels", "2", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    for name in ("wtv", "ssatv1_l2", "ssatv2_l2"):
        assert name in result.stdout
        assert (out / f"convergence_{name}.csv").exists()
    header = (out / "compare.csv").read_text().splitlines()[0]
    assert header == "iter,convergence_wtv,convergence_ssatv1_l2,convergence_ssatv2_l2"
