#!/usr/bin/env python3
"""Pinned SHA-256 digests of short reconstructions, for bit-for-bit checks.

Runs ``sart``, ``wtv``, ``ssatv1`` at l1/l3 and ``ssatv2`` at l1/l3/l4 on a
64^2 scene, noiseless and at 1e5 photons, and hashes each final image.
numpy's reductions may sum in another order on another numpy, scipy or
CPU, so the digests are kept per platform key: the numpy and scipy
versions and the SIMD features numpy's dispatch sees.

    python3 scripts/pin_digests.py

replaces this platform's entry in ``tests/digests.json`` and keeps the
others; ``tests/test_digests.py`` checks it.  A change that alters output
bits regenerates the file.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import scipy

from latomo.core import FanBeamGeometry, Sinogram
from latomo.driver import ReconConfig, run_reconstruction
from latomo.phantom import NoiseSpec, add_poisson_noise, builtin_head_phantom, rasterize
from latomo.projector import Projector

DIGESTS = Path(__file__).resolve().parents[1] / "tests" / "digests.json"

GEOMETRY = FanBeamGeometry(400.0, 200.0, 96, 1.6, 10.0, 170.0, 4.0)
GRID = (64, 64, 2.0)
ITERATIONS = 10
PHOTONS, SEED = 1e5, 7
# (algorithm, levels)
RUNS = (("sart", 1), ("wtv", 1), ("ssatv1", 1), ("ssatv1", 3),
        ("ssatv2", 1), ("ssatv2", 3), ("ssatv2", 4))


def platform_key() -> str:
    """numpy and scipy versions and the CPU features numpy dispatches on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    simd = ",".join(sorted(name for name, present in __cpu_features__.items() if present))
    return f"numpy {np.__version__}; scipy {scipy.__version__}; simd {simd}"


def run_name(algorithm: str, levels: int, noisy: bool) -> str:
    name = algorithm if algorithm in ("sart", "wtv") else f"{algorithm}_l{levels}"
    return f"{name}_noisy" if noisy else name


def digests() -> dict[str, str]:
    """SHA-256 of each run's final image, as little-endian float64 bytes."""
    truth = rasterize(builtin_head_phantom(), *GRID)
    projector = Projector(GEOMETRY, *GRID)
    clean = Sinogram(GEOMETRY.num_views, GEOMETRY.detector_channels,
                     GEOMETRY.view_angles_deg(), projector.forward(truth.data))
    noisy = add_poisson_noise(clean, NoiseSpec(PHOTONS, SEED))
    found = {}
    for sinogram, is_noisy in ((clean, False), (noisy, True)):
        for algorithm, levels in RUNS:
            config = ReconConfig(algorithm, GEOMETRY, *GRID, levels=levels,
                                 iterations=ITERATIONS)
            image, _ = run_reconstruction(config, sinogram, projector=projector)
            data = np.ascontiguousarray(image.data, dtype="<f8")
            found[run_name(algorithm, levels, is_noisy)] = hashlib.sha256(
                data.tobytes()).hexdigest()
    return found


def main() -> int:
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    key, found = platform_key(), digests()
    pinned[key] = found
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(found)} digests for {key} to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
