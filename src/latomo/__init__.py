"""latomo: limited-angle fan-beam CT reconstruction with SART and
weighted / scale-space anisotropic TV regularization."""

from .core import FanBeamGeometry, Sinogram
from .driver import ReconConfig, run_reconstruction
from .phantom import (
    NoiseSpec,
    add_poisson_noise,
    builtin_head_phantom,
    rasterize,
    roi_rect_for_grid,
)
from .projector import Projector

__version__ = "0.1.0"
