#!/usr/bin/env python3
"""Convergence comparison across regularizers on one configured scene.

Builds the scene as ``latomo run`` does, from its built-in defaults at desk
scale with noise seed 42 and output in out/comparison, then any ``--set``
overrides.  Runs wTV and both scale-space anisotropic variants at each of
``--levels`` on the one traced projector, writes one convergence CSV per
run plus a merged table, and prints the headline ordering of the final ROI
errors.  Every run's config is checked before the first reconstruction.
"""

import argparse
import sys
import time

from latomo.cli import (
    DESK_SETS,
    ConfigError,
    build_experiment,
    compare_runs,
    load_config,
    prepare_scene,
)
from latomo.driver import run_reconstruction

DEFAULT_SETS = DESK_SETS + ["noise.seed=42", "output.dir=out/comparison"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                    help="override a config value, as `latomo run --set` does")
    ap.add_argument("--levels", type=int, nargs="+", default=[2, 3, 4, 5])
    args = ap.parse_args(argv)

    runs = [("wtv", 1)]
    runs += [("ssatv1", lv) for lv in args.levels]
    runs += [("ssatv2", lv) for lv in args.levels]
    try:
        # wtv runs its one schedule entry of recon.steps, whatever per-level
        # budgets the scale-space runs are given
        configs = [build_experiment(load_config(sets=DEFAULT_SETS + args.set + [
            f"recon.algorithm={algorithm}", f"recon.levels={levels}"]
            + (["recon.budgets="] if algorithm == "wtv" else [])))
            for algorithm, levels in runs]
        if configs[0].roi is None:
            raise ConfigError("roi.region: the comparison ranks runs by ROI RMSE")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    truth, projector, _, measured = prepare_scene(configs[0])
    out = configs[0].output_dir
    out.mkdir(parents=True, exist_ok=True)
    csv_paths = []
    finals = {}
    # the mid-run figures are read at iteration 100, or the last if earlier
    mid = min(100, configs[0].recon.iterations)
    for cfg in configs:
        algorithm, levels = cfg.recon.algorithm, cfg.recon.levels
        name = algorithm if algorithm == "wtv" else f"{algorithm}_l{levels}"
        started = time.time()
        _, log = run_reconstruction(cfg.recon, measured, reference=truth, roi=cfg.roi,
                                    projector=projector)
        series = log.roi_rmse_series()
        finals[name] = series
        path = out / f"convergence_{name}.csv"
        log.write_csv(path)
        csv_paths.append(path)
        print(f"{name:12s} final ROI RMSE {series[-1]:7.3f} HU   "
              f"at iter {mid} {series[mid - 1]:7.3f} HU   "
              f"({time.time() - started:.0f}s)")

    compare_runs(csv_paths, out / "compare.csv")
    print(f"\nmerged table: {out / 'compare.csv'}")

    wtv_final = finals["wtv"][-1]
    wtv_mid = finals["wtv"][mid - 1]
    print(f"\nwTV final {wtv_final:.3f} HU; checks:")
    for lv in args.levels:
        s1 = finals[f"ssatv1_l{lv}"][mid - 1]
        print(f"  ssatv1 l={lv} at iter {mid}: {s1:7.3f} vs wTV {wtv_mid:7.3f}  "
              f"{'faster' if s1 <= wtv_mid else 'SLOWER'}")
    last = None
    for lv in args.levels:
        s2 = finals[f"ssatv2_l{lv}"][-1]
        mono = "" if last is None else ("  (<= prev)" if s2 <= last else "  (ABOVE prev)")
        print(f"  ssatv2 l={lv} final: {s2:7.3f} HU{mono}")
        last = s2
    if f"ssatv2_l3" in finals:
        margin = 1.0 - finals["ssatv2_l3"][-1] / wtv_final
        print(f"  ssatv2 l=3 improves on wTV by {100 * margin:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
