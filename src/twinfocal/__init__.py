"""Numerical model of a coincidence-gated twin-photon confocal microscope.

The package splits along the physics:

* :mod:`twinfocal.specfun`  - Bessel/Airy special functions
* :mod:`twinfocal.optics`   - geometry, pump focus, derived scales
* :mod:`twinfocal.psf`      - instrument point spread functions and widths
* :mod:`twinfocal.coincidence` - samples, crystal dispersion, gated amplitude
* :mod:`twinfocal.scansim`  - scan plans, images, resolution metrics
* :mod:`twinfocal.cli`      - the ``twinfocal`` command line tool
"""

from .errors import ConfigError, NumericalError, QuadratureError, ScanRangeError
from .specfun import airy_amp, bessel_j0, bessel_j1
from .optics import (
    SPEED_OF_LIGHT,
    MicroscopeConfig,
    PumpFocus,
    airy_radius,
    angular_frequency,
    crossover_waist,
    eta0_inv_sq,
    pump_focus,
    r0,
    sigma_p_sq,
)
from .psf import (
    RadialProfile,
    fwhm,
    psf_confocal,
    psf_twin,
    psf_widefield,
    width_reduction,
)
from .coincidence import (
    Delta,
    DispersionModel,
    Grating,
    QuadratureSpec,
    Raster,
    Slit,
    TwoPoint,
    amplitude,
    coincidence_rate,
    gate,
    inv_group_velocity,
    longitudinal_k,
    walkoff_Ne,
    wavenumber_K,
)
from .scansim import (
    Grid,
    Instrument,
    Line,
    ScanImage,
    ScanPlan,
    dip_contrast,
    min_resolvable_separation,
    scan,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "NumericalError",
    "QuadratureError",
    "ScanRangeError",
    "airy_amp",
    "bessel_j0",
    "bessel_j1",
    "SPEED_OF_LIGHT",
    "MicroscopeConfig",
    "PumpFocus",
    "airy_radius",
    "angular_frequency",
    "crossover_waist",
    "eta0_inv_sq",
    "pump_focus",
    "r0",
    "sigma_p_sq",
    "RadialProfile",
    "fwhm",
    "psf_confocal",
    "psf_twin",
    "psf_widefield",
    "width_reduction",
    "Delta",
    "DispersionModel",
    "Grating",
    "QuadratureSpec",
    "Raster",
    "Slit",
    "TwoPoint",
    "amplitude",
    "coincidence_rate",
    "gate",
    "inv_group_velocity",
    "longitudinal_k",
    "walkoff_Ne",
    "wavenumber_K",
    "Grid",
    "Instrument",
    "Line",
    "ScanImage",
    "ScanPlan",
    "dip_contrast",
    "min_resolvable_separation",
    "scan",
    "__version__",
]
