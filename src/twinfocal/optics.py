"""Microscope geometry and the Gaussian pump focus quantities.

The instrument model: a nonlinear crystal pumped by a Gaussian beam of
waist w0 focused through a lens of focal length f_p at distance d, an
objective of aperture radius a and focal length f at distance s0 from the
crystal, and a detection plane at s1.  Down-converted signal ("o") and
idler ("e") beams at lambda_o / lambda_e are detected in coincidence.

All lengths are stored in meters, angles in radians, frequencies in
rad/s.  SPEED_OF_LIGHT is exact by definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_positive, check_real

__all__ = [
    "SPEED_OF_LIGHT",
    "MicroscopeConfig",
    "PumpFocus",
    "angular_frequency",
    "sigma_p_sq",
    "r0",
    "eta0_inv_sq",
    "airy_radius",
    "crossover_waist",
    "pump_focus",
]

SPEED_OF_LIGHT = 299_792_458.0  # [m/s], exact

# Relative slack for the energy-conservation and imaging-condition checks.
_REL_TOL = 1e-9


def angular_frequency(wavelength: float) -> float:
    """Angular frequency 2 pi c / lambda for a vacuum wavelength [rad/s]."""
    check_positive(wavelength, "wavelength")
    return 2.0 * math.pi * SPEED_OF_LIGHT / wavelength


@dataclass(frozen=True)
class MicroscopeConfig:
    """Validated parameter set for one instrument.

    Parameters
    ----------
    lambda_p : float
        Pump vacuum wavelength [m].
    lambda_o, lambda_e : float, optional
        Signal / idler vacuum wavelengths [m].  Default: degenerate at
        twice the pump wavelength.
    a : float
        Objective aperture radius [m].
    f : float
        Objective focal length [m].
    f_p : float
        Pump lens focal length [m].
    w0 : float
        Pump beam waist radius at the lens [m].  Must not exceed ``a``.
    s0 : float
        Crystal-to-objective distance [m].  Default ``f``.
    s1 : float
        Objective-to-detector distance [m].  ``inf`` (the default) means
        collimated detection; a finite value must satisfy the thin-lens
        imaging condition with ``s0`` and ``f``.
    d : float
        Pump-lens-to-crystal distance [m].  Default ``f_p``.  It moves
        only ``sigma_p_sq``: every response (``psf_twin``, the
        coincidence kernel) assumes the crystal at the pump focus.
    pump_gaussian : bool
        When False, the pump is treated as unfocused: the Gaussian
        envelope in the twin point spread function and in the coincidence
        kernel is replaced by 1.  Must be a bool (numpy's included).

    A geometry is refused unless its carrier frequencies and ``r0`` are
    finite and positive, and ``eta0_inv_sq`` finite with a positive real
    part: no response of it could be evaluated otherwise.  It is refused
    too unless ``r0``'s two closed forms, ``sqrt(c lambda_p f_p^2 /
    (pi omega_p w0^2))`` and ``lambda_p f_p / (sqrt(2) pi w0)``, agree to
    1e-12 relative; they are the same expression regrouped, and part only
    where ``w0**2`` is subnormal.
    """

    lambda_p: float = 351e-9
    lambda_o: float | None = None
    lambda_e: float | None = None
    a: float = 2e-2
    f: float = 2e-2
    f_p: float = 2e-2
    w0: float = 1e-3
    s0: float | None = None
    s1: float = math.inf
    d: float | None = None
    pump_gaussian: bool = True

    def __post_init__(self) -> None:
        names = ("lambda_p", "lambda_o", "lambda_e", "a", "f", "f_p", "w0", "s0", "s1", "d")
        for name in names:  # None picks a default from the others for these four
            if getattr(self, name) is not None or name not in ("lambda_o", "lambda_e", "s0", "d"):
                check_real(getattr(self, name), name)
        if self.lambda_o is None:
            object.__setattr__(self, "lambda_o", 2.0 * self.lambda_p)
        if self.lambda_e is None:
            object.__setattr__(self, "lambda_e", 2.0 * self.lambda_p)
        if self.s0 is None:
            object.__setattr__(self, "s0", self.f)
        if self.d is None:
            object.__setattr__(self, "d", self.f_p)
        for name in names:
            value = getattr(self, name)
            if not (value > 0.0):
                raise ConfigError(f"{name} must be strictly positive, got {value!r}")
            if name != "s1" and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        # energy conservation of the down-conversion pair
        residual = abs(1.0 / self.lambda_o + 1.0 / self.lambda_e - 1.0 / self.lambda_p)
        if residual > _REL_TOL / self.lambda_p:
            raise ConfigError(
                "lambda_o, lambda_e, lambda_p violate 1/lambda_o + 1/lambda_e = 1/lambda_p"
            )
        # thin-lens imaging condition; waived for collimated detection (s1 = inf)
        if math.isfinite(self.s1):
            residual = abs(1.0 / self.s0 + 1.0 / self.s1 - 1.0 / self.f)
            if residual > _REL_TOL / self.f:
                raise ConfigError("s0, s1, f violate the imaging condition 1/s0 + 1/s1 = 1/f")
        if self.w0 > self.a:
            raise ConfigError("pump waist w0 must not exceed the aperture radius a")
        if not isinstance(self.pump_gaussian, (bool, np.bool_)):
            raise ConfigError(f"pump_gaussian must be a bool, got {self.pump_gaussian!r}")
        try:  # w0**2 may underflow to 0 and f_p**2 overflow
            eta = eta0_inv_sq(self)
        except ArithmeticError:
            eta = complex(math.nan)
        # the real part of eta0_inv_sq, 1 / r0**2, is positive and finite only if r0 is
        for value in (self.omega_p, self.omega_o, self.omega_e,
                      eta.real, math.hypot(eta.real, eta.imag)):
            check_positive(value, "carrier frequencies, r0 and eta0_inv_sq")
        # the two closed forms of r0 part where w0**2 is subnormal
        value = math.sqrt(_r0_squared(self))
        alt = self.lambda_p * self.f_p / (math.sqrt(2.0) * math.pi * self.w0)
        if not abs(value - alt) <= 1e-12 * value:
            raise ConfigError(f"w0 = {self.w0!r} is too small: r0's closed forms "
                              "disagree beyond 1e-12 relative")

    # -- derived carriers -------------------------------------------------

    @property
    def omega_p(self) -> float:
        """Pump angular frequency [rad/s]."""
        return angular_frequency(self.lambda_p)

    @property
    def omega_o(self) -> float:
        """Signal angular frequency [rad/s]."""
        return angular_frequency(self.lambda_o)

    @property
    def omega_e(self) -> float:
        """Idler angular frequency [rad/s]."""
        return angular_frequency(self.lambda_e)

    @property
    def numerical_aperture(self) -> float:
        """sin(arctan(a/f)); recorded as metadata only, never used in formulas."""
        return math.sin(math.atan2(self.a, self.f))


@dataclass(frozen=True)
class PumpFocus:
    """Bundle of the pump-focus quantities for one configuration."""

    sigma_p_sq: complex  # [m^2]
    r0: float            # [m]
    eta0_inv_sq: complex  # [1/m^2]


def _r0_squared(cfg: MicroscopeConfig) -> float:
    # Shared by sigma_p_sq and r0 so that sigma_p_sq(d = f_p) == -1j * r0**2
    # bitwise, not merely to rounding.
    c_over_wp = SPEED_OF_LIGHT / cfg.omega_p
    return c_over_wp * (cfg.lambda_p / (math.pi * cfg.w0**2)) * cfg.f_p**2


def sigma_p_sq(cfg: MicroscopeConfig) -> complex:
    """Complex squared width of the focused pump at the crystal [m^2].

    ``(c/omega_p) * [d - f_p - i (lambda_p / (pi w0^2)) f_p^2]``.  The real
    part vanishes when the crystal sits in the focal plane (d = f_p); the
    imaginary part is ``-r0**2`` with r0 the focused spot radius.
    """
    c_over_wp = SPEED_OF_LIGHT / cfg.omega_p
    return complex(c_over_wp * (cfg.d - cfg.f_p), -_r0_squared(cfg))


def r0(cfg: MicroscopeConfig) -> float:
    """Focused pump spot radius at the crystal [m].

    ``sqrt(c lambda_p f_p^2 / (pi omega_p w0^2))``, which
    ``MicroscopeConfig`` checks against ``lambda_p f_p / (sqrt(2) pi w0)``.
    """
    return math.sqrt(_r0_squared(cfg))


def eta0_inv_sq(cfg: MicroscopeConfig) -> complex:
    """Inverse squared width of the coincidence kernel envelope [1/m^2].

    ``1/r0^2 - 2 i omega_p / (s0 c)``: the real part carries the pump-spot
    Gaussian decay, the imaginary part the quadratic phase accumulated
    over the crystal-to-objective distance.
    """
    return complex(
        1.0 / _r0_squared(cfg),
        -2.0 * cfg.omega_p / (cfg.s0 * SPEED_OF_LIGHT),
    )


def airy_radius(cfg: MicroscopeConfig) -> float:
    """Classical resolution radius 1.22 lambda_o f / (2 a) [m]."""
    return 1.22 * cfg.lambda_o * cfg.f / (2.0 * cfg.a)


def crossover_waist(cfg: MicroscopeConfig) -> float:
    """Pump waist at which the focused spot matches the Airy radius [m].

    Solves ``r0(w0*) = airy_radius``: below this waist the pump spot is
    larger than the diffraction spot and the Gaussian envelope stops
    mattering; above it the envelope dominates the twin response width.
    """
    return cfg.lambda_p * cfg.f_p / (math.sqrt(2.0) * math.pi * airy_radius(cfg))


def pump_focus(cfg: MicroscopeConfig) -> PumpFocus:
    """All three pump-focus quantities for ``cfg`` in one bundle."""
    return PumpFocus(sigma_p_sq=sigma_p_sq(cfg), r0=r0(cfg), eta0_inv_sq=eta0_inv_sq(cfg))
