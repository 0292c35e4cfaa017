"""The gradient oracle the TV, ssaTV and acceptance tests share."""

import numpy as np

from latomo.core import MU_PER_HU

# smoothing floor tied to the default 5 HU reweighting floor, as in the driver
DELTA_MU = MU_PER_HU * 5.0


def central_fd(objective, f, step=1e-7):
    """The gradient of ``objective`` at ``f`` by central differences, one
    pixel at a time."""
    out = np.zeros_like(f)
    for idx in np.ndindex(f.shape):
        fp = f.copy()
        fp[idx] += step
        fm = f.copy()
        fm[idx] -= step
        out[idx] = (objective(fp) - objective(fm)) / (2 * step)
    return out
