"""Instrument responses: point spread functions, the coincidence kernel
and width metrics.

Every instrument's response is defined here.  ``Instrument`` names the
three instruments and ``_instrument_psf`` maps each to its intensity
response; ``coincidence`` chooses from them, in one place, the kernel a
scan integrates.  The three intensity responses of a hard circular
aperture:

* widefield:  airy_amp(2 pi a y / (lambda_o f))^2
* confocal:   airy_amp(2 pi a y / (lambda_o f))^4
* twin:       airy_amp(2 Omega_o a y/(s0 c))^2 * airy_amp(2 Omega_e a y/(s0 c))^2
              * exp(-4 y^2 / r0^2)

with Omega_j = 2 pi c / lambda_j and r0 the focused pump spot radius.
With degenerate wavelengths and s0 = f the twin arguments are exactly the
confocal argument at 2y, so removing the Gaussian envelope yields a
response that is the confocal one with halved width.  The envelope is the
pump spot intensity exp(-w^2/r0^2) at the same doubled coordinate w = 2y.

All three peak at exactly 1 for y = 0 by construction; no numerical
renormalization is applied.

The twin-photon instrument images coherently: a thin sample ``t``
scanned by ``y`` has the coincidence amplitude ``A(y) = integral d^2 u
t(u) K(u - y)`` (``coincidence``) with the complex kernel

    K(v) = exp(-(|v|^2 / 2) * (4 Re(eta0_inv_sq) + i Im(eta0_inv_sq)))
           * airy_amp(2 Omega_o a |v| / (s0 c))
           * airy_amp(2 Omega_e a |v| / (s0 c)),

where ``eta0_inv_sq = 1/r0^2 - 2 i omega_p / (s0 c)`` combines the pump
focal spot with the free propagation to the crystal.  Both down-converted
photons traverse the sample at the same transverse point, so distinct
sample points add coherently in ``A`` before squaring.  For a point-like
sample ``|K(v)|^2`` is exactly the twin-photon response: ``psf_twin`` is
the on-axis ``|K|^2``.  The pump envelope of ``K`` is separable in
``v_x`` and ``v_y``, and ``kernel_field`` evaluates it one component at
a time.

Derivation of K
---------------
Let ``v`` be the position of a sample point relative to the scanned focus.
The pump, the signal and the idler are all confocal with that focus: each
reaches the sample point and the conjugate point ``-v`` on the other side
of the fold through the objective (pupil radius ``a`` at distance ``s0``).

* Pinhole propagators.  Photon ``j`` (frequency ``Omega_j``) leaves ``v``,
  crosses the pupil at ``xi`` and returns inverted, at ``-xi``, to ``-v``.
  The two paraxial legs carry the phase
  ``(Omega_j / (2 s0 c)) (|v - xi|^2 + |xi - v|^2)``; the ``|xi|^2`` terms
  are cancelled by the objective, the cross terms add to
  ``-Omega_j xi . (v - (-v)) / (s0 c)``, and the remaining terms give
  ``Omega_j (|v|^2 + |-v|^2) / (2 s0 c)``.  Averaging the linear phase over
  the pupil disc gives

      h_j(v) = exp(i Omega_j |v|^2 / (s0 c)) * airy_amp(Omega_j a |2 v| / (s0 c)).

  The Airy argument is doubled because the pupil phase is linear in the
  separation ``2 v`` of the two endpoints; this is the argument doubling
  that makes ``twin(y) = confocal(2 y)`` without the pump envelope.
* Pump.  At its focus (``d = f_p``) the pump angular spectrum is
  ``E~_p(Q) ~ exp(-r0^2 |Q|^2 / 2)``, whose field is the real Gaussian
  ``E_p(w) = integral d^2 Q E~_p(Q) exp(i Q . w) ~ exp(-|w|^2 / (2 r0^2))``
  with the spot intensity ``exp(-|w|^2 / r0^2)``.  Thin-crystal transverse
  phase matching hands every pump component ``Q`` to a pair with
  ``q_o + q_e = Q``, and the pair's linear phase on the folded path is
  ``exp(-i (q_o + q_e) . 2 v)``, the same separation the pupil phases see.
  Summing over the angular spectrum therefore samples the pump at the
  separation: the pump factor is ``E_p(2 v) = exp(-2 |v|^2 / r0^2)``.
* Product.  ``K(v) = E_p(2 v) h_o(v) h_e(v)``.  The doubling reaches the
  Gaussian term of ``eta0_inv_sq``: ``-|2 v|^2 / (2 r0^2)`` is
  ``-(|v|^2 / 2) * 4 Re(eta0_inv_sq)``, and ``|K|^2`` carries
  ``exp(-4 |v|^2 / r0^2)``.  It does not reach the quadratic phase: the
  curvature terms depend on each endpoint's own distance from the axis,
  ``|v|`` and ``|-v|``, so the two legs add and are not evaluated at the
  separation.  Summed over both photons they give
  ``(Omega_o + Omega_e) |v|^2 / (s0 c) = omega_p |v|^2 / (s0 c)``, which is
  ``-(|v|^2 / 2) * i Im(eta0_inv_sq)`` as ``eta0_inv_sq`` defines it.  At
  the reference geometry it stays below 1e-3 rad within 1 um of the
  focus; widths do not depend on it, and the 12 mm two-point resolution
  limit is the same to 16 digits with the phase taken at 2 v as well.

With the doubled envelope the pump focus competes with the twin core when
its spot radius ``r0 / 2`` in the twin response reaches the first twin zero
``airy_radius / 2``, i.e. at ``optics.crossover_waist`` where ``r0`` equals
the Airy radius.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable

import numpy as np

from .errors import ScanRangeError, check_positive
from .optics import SPEED_OF_LIGHT, MicroscopeConfig, airy_radius, eta0_inv_sq
from .specfun import _workspace, airy_amp

__all__ = [
    "Instrument",
    "psf_widefield",
    "psf_confocal",
    "psf_twin",
    "fwhm",
    "width_reduction",
]

# Coarse grid used to bracket the half-max crossing before bisection.
_FWHM_GRID = 2048
_FWHM_REL_TOL = 1e-8


class Instrument(Enum):
    WIDEFIELD = "widefield"
    CONFOCAL = "confocal"
    TWIN_PHOTON = "twin"


# ============================================================================
# the coincidence kernel
# ============================================================================

def _twin_alphas(cfg: MicroscopeConfig) -> tuple[float, float]:
    scale = 2.0 * cfg.a / (cfg.s0 * SPEED_OF_LIGHT)
    return cfg.omega_o * scale, cfg.omega_e * scale


def _pump_rate(cfg: MicroscopeConfig) -> complex:
    """``c`` of the twin kernel's pump envelope ``exp(-|v|^2 c / 2)``: the
    pump amplitude, the Gaussian term of ``eta0_inv_sq`` at the doubled
    coordinate, with its Fresnel phase undoubled."""
    eta = eta0_inv_sq(cfg)
    return complex(4.0 * eta.real, eta.imag)


def kernel_field(v_x, v_y, cfg: MicroscopeConfig) -> np.ndarray:
    """Complex coincidence kernel ``K`` at displacement components [m].

    The components broadcast against each other.  The pump envelope
    ``exp(-|v|^2 c / 2)``, ``c = 4 Re(eta0_inv_sq) + i Im(eta0_inv_sq)``,
    is the product of ``exp(-v_x^2 c / 2)`` and ``exp(-v_y^2 c / 2)``,
    each evaluated at its own component's shape: a panel grid of
    ``(k, n, 1)`` by ``(k, 1, n)`` nodes takes ``2 n`` complex
    exponentials per row, not ``n^2``.  Every value still depends on its
    own ``(v_x, v_y)`` alone, and on the axis (``v_y = 0``) the second
    factor is exactly 1.  Arrays of the broadcast shape, the result among
    them, come from the thread's workspace (``specfun.Workspace``).
    """
    work = _workspace()
    xx = np.square(np.asarray(v_x, dtype=float))
    yy = np.square(np.asarray(v_y, dtype=float))
    # where numpy allocates, operators: they are faster on scalars
    out = work.out(xx, yy)
    radius = np.asarray(xx + yy, order="C") if out is None else np.add(xx, yy, out=out)
    np.sqrt(radius, out=radius)
    alpha_o, alpha_e = _twin_alphas(cfg)
    # each Airy factor overwrites its spent argument, an array of its own
    # (a fresh one outside a scan pass); a degenerate pair has two equal
    # factors: evaluate it once
    if alpha_e == alpha_o:
        radius *= alpha_o
        amp = airy_amp(radius, out=radius)
        amp *= amp
    else:
        first = np.asarray(np.multiply(radius, alpha_o, out=work.out(radius)))
        amp = airy_amp(first, out=first)
        radius *= alpha_e
        amp *= airy_amp(radius, out=radius)
    if cfg.pump_gaussian:
        c = _pump_rate(cfg)
        along_x, along_y = np.exp(-0.5 * xx * c), np.exp(-0.5 * yy * c)
        out = work.out(radius, dtype=complex)
        field = along_x * along_y if out is None else np.multiply(along_x, along_y, out=out)
        field *= amp
        return field
    return np.asarray(amp, dtype=complex)


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


def _instrument_psf(instrument: Instrument):
    """The intensity response ``response(y, cfg)`` of ``instrument``, read
    from this module when called."""
    if instrument is Instrument.WIDEFIELD:
        return psf_widefield
    if instrument is Instrument.CONFOCAL:
        return psf_confocal
    return psf_twin


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
