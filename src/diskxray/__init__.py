"""Weighted X-ray transforms on the unit disk: SVD, inversion, range tests,
and transfer to constant-curvature disks."""

__version__ = "0.1.0"

from .zernike import CoefficientField, ZernikeIndex  # noqa: F401
from .xray import Sinogram  # noqa: F401
from .ccd import CCDChart  # noqa: F401
