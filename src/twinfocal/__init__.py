"""Numerical model of a coincidence-gated twin-photon confocal microscope.

The package splits along the physics:

* :mod:`twinfocal.specfun`  - Bessel/Airy special functions
* :mod:`twinfocal.optics`   - geometry, pump focus, derived scales
* :mod:`twinfocal.psf`      - instrument point spread functions and widths
* :mod:`twinfocal.coincidence` - samples, crystal dispersion, gated amplitude
* :mod:`twinfocal.scansim`  - scan plans, images, resolution metrics
* :mod:`twinfocal.cli`      - the ``twinfocal`` command line tool

The package exports the ``__all__`` of ``errors`` and of each layer
module above but ``cli``: that list is the one statement of a
module's public names.
"""

from .errors import *
from .specfun import *
from .optics import *
from .psf import *
from .coincidence import *
from .scansim import *
from . import coincidence, errors, optics, psf, scansim, specfun

__version__ = "0.1.0"

__all__ = [*errors.__all__, *specfun.__all__, *optics.__all__, *psf.__all__,
           *coincidence.__all__, *scansim.__all__, "__version__"]
