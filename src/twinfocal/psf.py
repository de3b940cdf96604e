"""Lateral point spread functions and width metrics.

The three instrument responses of a hard circular aperture:

* widefield:  airy_amp(2 pi a y / (lambda_o f))^2
* confocal:   airy_amp(2 pi a y / (lambda_o f))^4
* twin:       airy_amp(2 Omega_o a y/(s0 c))^2 * airy_amp(2 Omega_e a y/(s0 c))^2
              * exp(-4 y^2 / r0^2)

with Omega_j = 2 pi c / lambda_j and r0 the focused pump spot radius.
With degenerate wavelengths and s0 = f the twin arguments are exactly the
confocal argument at 2y, so removing the Gaussian envelope yields a
response that is the confocal one with halved width.  The envelope is the
pump spot intensity exp(-w^2/r0^2) at the same doubled coordinate w = 2y;
the derivation is in the ``coincidence`` module docstring, and
``psf_twin`` is the on-axis ``|K|^2`` of that module's kernel.

All three peak at exactly 1 for y = 0 by construction; no numerical
renormalization is applied.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ScanRangeError, check_positive
from .coincidence import kernel_field
from .optics import MicroscopeConfig, airy_radius
from .specfun import airy_amp

__all__ = [
    "psf_widefield",
    "psf_confocal",
    "psf_twin",
    "fwhm",
    "width_reduction",
]

# Coarse grid used to bracket the half-max crossing before bisection.
_FWHM_GRID = 2048
_FWHM_REL_TOL = 1e-8


# ============================================================================
# point spread functions
# ============================================================================

def _check_offsets(y) -> np.ndarray:
    arr = np.asarray(y, dtype=float)
    # min and max propagate NaN, so two reductions refuse NaN, inf and negatives
    if arr.size and not (arr.min() >= 0.0 and arr.max() < math.inf):
        raise ValueError("scan offset must be finite and non-negative")
    return arr


def _airy_amplitude(y, cfg: MicroscopeConfig, out: np.ndarray | None) -> np.ndarray:
    """The widefield amplitude ``airy_amp(2 pi a y / (lambda_o f))`` at the
    checked offsets ``y``, in ``out`` (which may be ``y``) or a new array."""
    v = np.multiply(_check_offsets(y), 2.0 * math.pi * cfg.a, out=out)
    v /= cfg.lambda_o * cfg.f
    return np.asarray(airy_amp(v, out=out))


def psf_widefield(y, cfg: MicroscopeConfig, out: np.ndarray | None = None):
    """Widefield intensity response at radial offset y [m]; peak 1 at y = 0.
    ``out``, a float array of the shape of ``y``, receives the values if
    given; it may be ``y`` itself."""
    out = _airy_amplitude(y, cfg, out)
    out *= out
    return float(out) if np.ndim(y) == 0 else out


def psf_confocal(y, cfg: MicroscopeConfig, out: np.ndarray | None = None):
    """Confocal intensity response: the widefield amplitude to the fourth
    power.  ``out`` as for ``psf_widefield``."""
    out = _airy_amplitude(y, cfg, out)
    out *= out
    out *= out
    return float(out) if np.ndim(y) == 0 else out


def psf_twin(y, cfg: MicroscopeConfig):
    """Coincidence-detection intensity response of the twin-photon instrument.

    ``|K(y, 0)|^2`` of the coincidence kernel: the product of the two
    single-photon Airy intensities evaluated with doubled arguments
    (signal and idler fold back through the objective) times the
    pump-spot Gaussian at the same doubled coordinate,
    ``exp(-(2y)^2/r0^2) = exp(-4 y^2/r0^2)``.  The Gaussian factor is
    dropped entirely when ``cfg.pump_gaussian`` is False (unfocused pump),
    which makes the argument-doubling identity against the confocal
    response exact.
    """
    arr = _check_offsets(y)
    k = kernel_field(arr, 0.0, cfg)
    out = k.real * k.real
    out += k.imag * k.imag
    return float(out) if np.ndim(y) == 0 else out


# ============================================================================
# width metrics
# ============================================================================

def fwhm(profile: Callable[[float], float], scan_range: float) -> float:
    """Full width at half maximum of a peak-normalized radial intensity.

    Returns ``2 * y_half`` where ``y_half`` is the smallest positive
    offset at which the intensity crosses 0.5, found by bracketing on a
    coarse grid (2048 points over the range) and bisecting (``_bisect``)
    to 1e-8 relative.  Re-crossings from sidelobes beyond the first
    crossing are ignored.

    Parameters
    ----------
    profile : callable
        Intensity of a non-negative offset.
    scan_range : float
        Upper end of the search interval [0, scan_range].

    Raises
    ------
    ScanRangeError
        If the intensity never reaches 0.5 inside the range; widen the
        scan range.
    """
    if not callable(profile):
        raise TypeError("profile must be a callable")
    check_positive(scan_range, "scan_range")
    span = float(scan_range)

    if abs(profile(0.0) - 1.0) > 1e-9:
        raise ValueError("intensity must be peak-normalized to 1 at y = 0")

    grid = np.linspace(0.0, span, _FWHM_GRID)
    lo = 0.0
    for t in grid[1:]:
        if profile(float(t)) < 0.5:
            break
        lo = float(t)
    else:
        raise ScanRangeError(
            f"intensity never fell below half max within [0, {span:g}]; widen the scan range"
        )
    return _bisect(lambda y: profile(y) < 0.5, lo, float(t), _FWHM_REL_TOL)  # 2 * y_half


def _bisect(upper: Callable[[float], bool], lo: float, hi: float, rel_tol: float) -> float:
    """Halve ``[lo, hi]``, where ``upper`` holds at ``hi`` and not at
    ``lo``, at ``0.5 * (lo + hi)`` until it is at most ``rel_tol * hi``
    wide, keeping the half where ``upper`` changes, and return ``lo + hi``
    of the last bracket: twice its midpoint, exactly."""
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if upper(mid):
            hi = mid
        else:
            lo = mid
    return lo + hi


def response_fwhm(response: Callable, cfg: MicroscopeConfig) -> float:
    """FWHM of an instrument response ``response(y, cfg)`` (one of the
    ``psf_*`` functions), searched over four Airy radii of ``cfg``."""
    return fwhm(lambda y: response(y, cfg), scan_range=4.0 * airy_radius(cfg))


def width_reduction(reference: float, narrower: float) -> float:
    """Percent width reduction, ``100 * (1 - narrower / reference)``."""
    if not (reference > 0.0) or not (narrower > 0.0):
        raise ValueError("widths must be positive")
    return 100.0 * (1.0 - narrower / reference)
