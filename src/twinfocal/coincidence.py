"""Coincidence amplitude of the twin-photon microscope over structured samples.

The detected coincidence rate for a thin sample ``t`` scanned by an offset
``y`` is ``gate * |A(y)|^2`` with the coherent amplitude

    A(y) = integral d^2 u  t(u) * K(u - y),
    K(v) = exp(-(|v|^2 / 2) * (4 Re(eta0_inv_sq) + i Im(eta0_inv_sq)))
           * airy_amp(2 Omega_o a |v| / (s0 c))
           * airy_amp(2 Omega_e a |v| / (s0 c)),

where ``eta0_inv_sq = 1/r0^2 - 2 i omega_p / (s0 c)`` combines the pump
focal spot with the free propagation to the crystal.  Both down-converted
photons traverse the sample at the same transverse point, so distinct
sample points add coherently in ``A`` before squaring.  For a point-like
sample ``|K(v)|^2`` is exactly the twin-photon point spread function,
``exp(-4 |v|^2 / r0^2)`` times the two Airy intensities.  The pump
envelope of ``K`` is separable in ``v_x`` and ``v_y``, and
``kernel_field`` evaluates it one component at a time.

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

The gate factor models the coincidence electronics: it is 1 only when the
signal/idler arrival-time offset falls inside the group-delay window
``D * L`` opened by the crystal dispersion, and 0 otherwise.

``sample_amplitudes`` evaluates ``A`` for any sample at any number of
offsets, decides how that work is split, and every amplitude and rate
goes through it; ``twin_rates`` alone forms the rate ``gate * |A|^2``.
Point samples (``Delta``, ``TwoPoint``) need no quadrature: they lower to
unit-weight points ``p_k`` and ``A(y) = sum_k K(p_k - y)`` (``point_sum``,
which evaluates the kernel once per point over all offsets).

Integration strategy: the integrand is smooth on the transmitting region
of every schematic sample shipped here, so each region is covered by
tensor-product Gauss-Legendre panels placed on the sample support (single
square for a slit, one panel per stripe for a grating, one per pixel for
a raster).  Every amplitude evaluation is repeated with doubled node
counts; the coarse/fine disagreement is the convergence estimate.  When
it exceeds the requested tolerance the counts are doubled once more, and
a ``QuadratureError`` reports the estimate if that pass fails too.

Displacement table: every panel of a sample has the same size and nodes,
so its integral ``Pi(d) = integral over the panel of kern(d + g) dg``
depends only on the displacement ``d`` of its centre from the offset.
Both kernels are radial (the twin ``K`` and the classical ``PSF(|v|)``)
and the Gauss-Legendre nodes are symmetric, so ``Pi`` depends only on
``(|dx|, |dy|)``, sorted for square panels.  ``integrate_sample`` builds
one table of these canonical displacements for all offsets of a scan,
evaluates each quadrature pass once per table row, and assembles each
offset's sum ``sum_p w_p Pi[row_p]`` in the panel order of that offset.
Node doubling is still judged per offset, and only the rows of the
offsets that fail are refined again.  The keys are the displacements
rounded to multiples of a quantum, ``2**-46`` of the smaller panel
half-side, a few ulps, and each row is evaluated at its rounded value:
offsets that lie on the lattice of a raster only up to an ulp or two
then share rows, one per distinct lattice displacement, and values move
by about 1e-14 of the peak against integrating every panel at its exact
displacement.  A scan may list at most 2**22 panels.  What stays exact: a
value depends on its key alone, so a scan is bit-identical for any
number of threads or split of the rows and equal bit for bit to
one-offset ``amplitude`` calls; the convergence rule and the
``QuadratureError`` (first failing offset, in the order given) are the
same as for one offset at a time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .errors import ConfigError, QuadratureError
from .optics import SPEED_OF_LIGHT, MicroscopeConfig, eta0_inv_sq, r0
from .specfun import airy_amp

__all__ = [
    "Delta",
    "TwoPoint",
    "Slit",
    "Grating",
    "Raster",
    "SampleTransmittance",
    "DispersionModel",
    "QuadratureSpec",
    "wavenumber_K",
    "inv_group_velocity",
    "walkoff_Ne",
    "longitudinal_k",
    "gate",
    "amplitude",
    "coincidence_rate",
]

# Third zero of the Airy amplitude (third nonzero root of J1); used to cut
# off the oscillatory kernel tail when no Gaussian envelope is present.
_AIRY_ZERO_3 = 10.173468135062722

# Node-doubling checks made before a QuadratureError: the requested counts
# against twice them, then twice against four times.  Far out on the
# kernel's Gaussian tail the integrand changes by orders of magnitude
# across one pixel, and a node count that converges near the response
# core may need one more doubling there.
_DOUBLING_CHECKS = 2

# Most kernel points one call of an extended-sample pass evaluates; a
# panel with more nodes runs alone.  Half the largest call of a
# one-offset-at-a-time evaluation (8 pixels at 96 x 96 nodes), it was the
# fastest of 9 216 to 73 728 points on the twin-photon benchmark study.
_KERNEL_POINT_BUDGET = 4 * 96 ** 2

# Most kernel points one panel may hold at the last node doubling, about
# 192 MiB of kernel arrays, like the largest scan; the default grating
# stripe needs 192 x 1536 = 294 912.  Peak memory per point is the
# tracemalloc peak of one 512 x 512 panel of the twin kernel.
_MAX_PANEL_POINTS = 1 << 21
_BYTES_PER_KERNEL_POINT = 96

# Panel displacements are keyed in multiples of this fraction of the smaller
# panel half-side, a few ulps (see "Displacement table" above).
_KEY_QUANTUM = 2.0 ** -46

# Most panels one scan may list, a fully lit 64 x 64 raster on a line of
# 1024 offsets, and the memory each listed panel takes before any kernel
# work: the tracemalloc peak of listing and keying 2.6e5 to 4.2e6 panels.
_MAX_PANELS = 1 << 22
_BYTES_PER_PANEL = 141


# ============================================================================
# sample transmittances
# ============================================================================

@dataclass(frozen=True)
class Delta:
    """Idealized point sample; scanning it traces the instrument response."""


@dataclass(frozen=True)
class TwoPoint:
    """Two point transmitters at x = +-separation/2 on the scan axis."""

    separation: float

    def __post_init__(self) -> None:
        if not (self.separation > 0.0) or not math.isfinite(self.separation):
            raise ConfigError("two-point separation must be positive and finite")


@dataclass(frozen=True)
class Slit:
    """Fully transmitting square aperture of the given side length [m]."""

    width: float

    def __post_init__(self) -> None:
        if not (self.width > 0.0) or not math.isfinite(self.width):
            raise ConfigError("slit width must be positive and finite")


@dataclass(frozen=True)
class Grating:
    """Periodic stripes transmitting across x: |t| = 1 on stripes of width
    duty * period centered at integer multiples of the period, 0 between."""

    period: float
    duty: float = 0.5

    def __post_init__(self) -> None:
        if not (self.period > 0.0) or not math.isfinite(self.period):
            raise ConfigError("grating period must be positive and finite")
        if not (0.0 < self.duty < 1.0):
            raise ConfigError("grating duty cycle must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class Raster:
    """Pixelated complex transmittance on a square grid of the given pitch.

    ``grid[i, j]`` is the (constant) transmittance of the pixel centered at
    ``x = (j - (ncols-1)/2) * pitch``, ``y = (i - (nrows-1)/2) * pitch``,
    so the pattern is centered on the origin.  Magnitudes must not exceed 1.
    """

    pitch: float
    grid: np.ndarray

    def __post_init__(self) -> None:
        if not (self.pitch > 0.0) or not math.isfinite(self.pitch):
            raise ConfigError("raster pitch must be positive and finite")
        grid = np.asarray(self.grid, dtype=complex)
        object.__setattr__(self, "grid", grid)
        if grid.ndim != 2 or grid.size == 0:
            raise ConfigError("raster grid must be a non-empty 2D array")
        if np.any(~np.isfinite(grid)) or np.any(np.abs(grid) > 1.0 + 1e-12):
            raise ConfigError("raster transmittances must be finite with |t| <= 1")


SampleTransmittance = Union[Delta, TwoPoint, Slit, Grating, Raster]


# ============================================================================
# crystal dispersion
# ============================================================================

@dataclass(frozen=True)
class DispersionModel:
    """Refractive indices and geometry of the down-conversion crystal.

    ``n_o(omega)`` is the ordinary index; ``n_e(omega, psi)`` the
    extraordinary index at propagation angle ``psi`` [rad] from the optic
    axis.  ``theta_e`` is the internal emission angle of the
    extraordinary beam from the pump axis and ``L`` the crystal length
    [m].  No material coefficients ship with the package; callers
    supply the index functions (e.g. Sellmeier fits).
    """

    n_o: Callable[[float], float]
    n_e: Callable[[float, float], float]
    psi: float
    theta_e: float = 0.0
    L: float = 1e-3

    def __post_init__(self) -> None:
        if not callable(self.n_o) or not callable(self.n_e):
            raise ConfigError("n_o and n_e must be callables")
        if not (0.0 < self.psi < 0.5 * math.pi):
            raise ConfigError("phase-matching angle psi must lie in (0, pi/2)")
        if not (self.L > 0.0) or not math.isfinite(self.L):
            raise ConfigError("crystal length must be positive and finite")


def _index_value(func, label: str, *args) -> float:
    try:
        val = float(func(*args))
    except Exception as exc:
        raise ValueError(f"index function {label} not evaluable at {args!r}") from exc
    if not math.isfinite(val):
        raise ValueError(f"index function {label} returned a non-finite value at {args!r}")
    return val


def wavenumber_K(n: Callable[[float], float], omega: float) -> float:
    """Medium wavenumber ``omega * n(omega) / c`` [1/m]."""
    if not (omega > 0.0) or not math.isfinite(omega):
        raise ConfigError("carrier frequency must be positive and finite")
    return omega * _index_value(n, "n", omega) / SPEED_OF_LIGHT


def inv_group_velocity(n: Callable[[float], float], omega: float) -> float:
    """Inverse group velocity ``d(omega n/c)/domega`` [s/m].

    Central finite difference with relative step 1e-6, sharpened by one
    Richardson extrapolation pass (halved step).  For a frequency
    independent index this returns ``n / c`` to ~1e-9 relative.
    """
    if not (omega > 0.0) or not math.isfinite(omega):
        raise ConfigError("carrier frequency must be positive and finite")
    h = 1e-6 * omega

    def phase_k(w: float) -> float:
        return w * _index_value(n, "n", w) / SPEED_OF_LIGHT

    coarse = (phase_k(omega + h) - phase_k(omega - h)) / (2.0 * h)
    fine = (phase_k(omega + 0.5 * h) - phase_k(omega - 0.5 * h)) / h
    return (4.0 * fine - coarse) / 3.0


def walkoff_Ne(n_e: Callable[[float, float], float], omega: float, psi: float) -> float:
    """Angular walk-off coefficient ``(1/n_e) d(n_e)/d(psi)`` [1/rad].

    Central finite difference in the propagation angle with step 1e-6 rad;
    ``psi`` must sit at least one step inside (0, pi/2).
    """
    h = 1e-6
    if not (h < psi < 0.5 * math.pi - h):
        raise ConfigError("psi must lie strictly inside (0, pi/2)")
    upper = _index_value(n_e, "n_e", omega, psi + h)
    lower = _index_value(n_e, "n_e", omega, psi - h)
    center = _index_value(n_e, "n_e", omega, psi)
    return (upper - lower) / (2.0 * h) / center


def longitudinal_k(branch: str, disp: DispersionModel, omega: float,
                   nu: float, k_perp: float) -> float:
    """Longitudinal wavevector component, expanded to second order.

    ``omega`` is the carrier frequency of the branch, ``nu`` the detuning
    from it, and ``k_perp`` the transverse wavevector magnitude [1/m].

    ordinary branch:
        K + nu/u - k_perp^2 / (2 K)
    extraordinary branch:
        K + nu/u - N_e k_perp cos(theta_e)
          + (k_perp^2 / (2 K)) * (N_e cot(psi) - 1)

    with ``K`` the carrier wavenumber, ``1/u`` the inverse group velocity
    and ``N_e`` the walk-off coefficient.
    """
    if branch == "ordinary":
        K = wavenumber_K(disp.n_o, omega)
        u_inv = inv_group_velocity(disp.n_o, omega)
        return K + nu * u_inv - k_perp * k_perp / (2.0 * K)
    if branch == "extraordinary":
        n_along = lambda w: disp.n_e(w, disp.psi)  # noqa: E731
        K = wavenumber_K(n_along, omega)
        u_inv = inv_group_velocity(n_along, omega)
        walkoff = walkoff_Ne(disp.n_e, omega, disp.psi)
        quad = (k_perp * k_perp / (2.0 * K)) * (walkoff / math.tan(disp.psi) - 1.0)
        return K + nu * u_inv - walkoff * k_perp * math.cos(disp.theta_e) + quad
    raise ConfigError(f"branch must be 'ordinary' or 'extraordinary', got {branch!r}")


def gate(t12: float | None, disp: DispersionModel, omega_o: float, omega_e: float) -> float:
    """Coincidence gate: 1.0 iff ``0 < t12 < D L``, the ``delay_window``
    of the group-delay mismatch ``D = 1/u_o - 1/u_e`` at the two carriers,
    else 0.0.

    A non-positive ``D`` closes the window entirely (the gate is 0 for
    every offset); the indices must be physical (>= 1) at the carriers.
    ``t12`` must be given: a dispersion model without it is a ConfigError.
    """
    if t12 is None:
        raise ConfigError("t12 is required when a dispersion model is supplied")
    if not math.isfinite(t12):
        raise ConfigError("arrival-time offset t12 must be finite")
    if _index_value(disp.n_o, "n_o", omega_o) < 1.0:
        raise ConfigError("n_o must be >= 1 at the ordinary carrier")
    n_along = lambda w: disp.n_e(w, disp.psi)  # noqa: E731
    if _index_value(n_along, "n_e", omega_e) < 1.0:
        raise ConfigError("n_e must be >= 1 at the extraordinary carrier")
    return 1.0 if 0.0 < t12 < delay_window(disp, omega_o, omega_e) else 0.0


def delay_window(disp: DispersionModel, omega_o: float, omega_e: float) -> float:
    """Width ``D * L`` [s] of the coincidence gate; <= 0 means it never opens."""
    n_along = lambda w: disp.n_e(w, disp.psi)  # noqa: E731
    mismatch = inv_group_velocity(disp.n_o, omega_o) - inv_group_velocity(n_along, omega_e)
    return mismatch * disp.L


# ============================================================================
# quadrature
# ============================================================================

@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and domain controls for the amplitude integral.

    ``radial_nodes`` Gauss-Legendre nodes resolve each compact support
    dimension (slit side, stripe width, pixel side); ``angular_nodes``
    cover the extended dimension of stripe panels.  ``truncation_radius``
    bounds how far the kernel envelope is followed on extended samples
    (None picks the default described in :func:`default_truncation_radius`).
    """

    radial_nodes: int = 48
    angular_nodes: int = 384
    truncation_radius: float | None = None
    target_rel_tol: float = 1e-8

    def __post_init__(self) -> None:
        counts = (self.radial_nodes, self.angular_nodes)
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) for n in counts):
            raise ConfigError("quadrature node counts must be integers")
        if min(counts) < 8:
            raise ConfigError("quadrature node counts must be at least 8")
        # the largest panel (a grating stripe, or a square) at the last doubling
        points = (2 ** _DOUBLING_CHECKS) ** 2 * self.radial_nodes * max(counts)
        if points > _MAX_PANEL_POINTS:
            raise ConfigError(
                f"quadrature of {points} kernel points per panel at the last node doubling "
                f"exceeds the limit of {_MAX_PANEL_POINTS}; evaluating one panel would need "
                f"about {points * _BYTES_PER_KERNEL_POINT / 2**20:,.0f} MiB")
        if self.truncation_radius is not None and not (
                self.truncation_radius > 0.0 and math.isfinite(self.truncation_radius)):
            raise ConfigError("truncation radius must be positive and finite")
        # Node doubling accepts a discrepancy of 10 * target_rel_tol of the
        # result scale; at 1 or more it would accept any result.
        if not (0.0 < 10.0 * self.target_rel_tol < 1.0):
            raise ConfigError("target relative tolerance must lie in (0, 0.1)")


@lru_cache(maxsize=64)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def _twin_alphas(cfg: MicroscopeConfig) -> tuple[float, float]:
    scale = 2.0 * cfg.a / (cfg.s0 * SPEED_OF_LIGHT)
    return cfg.omega_o * scale, cfg.omega_e * scale


def kernel_field(v_x, v_y, cfg: MicroscopeConfig) -> np.ndarray:
    """Complex coincidence kernel ``K`` at displacement components [m].

    The components broadcast against each other.  The pump envelope
    ``exp(-|v|^2 c / 2)``, ``c = 4 Re(eta0_inv_sq) + i Im(eta0_inv_sq)``,
    is the product of ``exp(-v_x^2 c / 2)`` and ``exp(-v_y^2 c / 2)``,
    each evaluated at its own component's shape: a panel grid of
    ``(k, n, 1)`` by ``(k, 1, n)`` nodes takes ``2 n`` complex
    exponentials per row, not ``n^2``.  Every value still depends on its
    own ``(v_x, v_y)`` alone, and on the axis (``v_y = 0``) the second
    factor is exactly 1.
    """
    vx = np.asarray(v_x, dtype=float)
    vy = np.asarray(v_y, dtype=float)
    xx, yy = vx * vx, vy * vy
    radius = np.sqrt(xx + yy)
    alpha_o, alpha_e = _twin_alphas(cfg)
    amp_o = airy_amp(alpha_o * radius)
    # a degenerate pair has two equal Airy factors: evaluate it once
    amp = amp_o * (amp_o if alpha_e == alpha_o else airy_amp(alpha_e * radius))
    if cfg.pump_gaussian:
        # pump amplitude at the doubled coordinate, undoubled Fresnel phase
        eta = eta0_inv_sq(cfg)
        c = complex(4.0 * eta.real, eta.imag)
        return amp * (np.exp(-0.5 * xx * c) * np.exp(-0.5 * yy * c))
    return np.asarray(amp, dtype=complex)


def default_truncation_radius(cfg: MicroscopeConfig, target_rel_tol: float = 1e-8) -> float:
    """Kernel support radius for extended samples.

    The smaller of ``6 r0`` and the third Airy zero of the wider airy_amp
    factor, provided the pump spot intensity ``exp(-(R/r0)^2)`` left at
    the cut stays below the target tolerance; otherwise ``6 r0`` wins.
    Without a pump Gaussian only the Airy cut applies.

    The rule is stated for the undoubled spot.  The twin kernel's
    envelope ``exp(-2 |v|^2/r0^2)`` is narrower (``|K|`` is down to
    exp(-72) at ``6 r0``, the rate to exp(-144)), so the radius still
    bounds it with room to spare.  It is kept as it is because grating
    scans of the classical instruments share it and their outputs must
    not move.
    """
    alpha_o, alpha_e = _twin_alphas(cfg)
    airy_cut = _AIRY_ZERO_3 / min(alpha_o, alpha_e)
    if not cfg.pump_gaussian:
        return airy_cut
    spot = r0(cfg)
    radius = min(6.0 * spot, airy_cut)
    if math.exp(-((radius / spot) ** 2)) > target_rel_tol:
        radius = 6.0 * spot
    return radius


@dataclass(frozen=True)
class _Panels:
    """Constant-transmittance rectangles ``[x_k - half_x, x_k + half_x] x
    [y_k - half_y, y_k + half_y]`` of weight ``weight[k]``, listed offset
    by offset (``counts[i]`` belong to offset ``i``), with the requested
    Gauss-Legendre node counts ``n_x`` by ``n_y`` per panel."""

    x: np.ndarray
    y: np.ndarray
    weight: np.ndarray
    counts: np.ndarray
    half_x: float
    half_y: float
    n_x: int
    n_y: int


def _panel_sum(points: np.ndarray, half_x: float, half_y: float,
               n_x: int, n_y: int, kern) -> np.ndarray:
    """Integral of ``kern(d + g)`` over the centred panel ``|g_x| <= half_x``,
    ``|g_y| <= half_y``, at every displacement ``d`` (rows of ``points``).

    One ``kern`` call covers as many consecutive rows as fit in
    ``_KERNEL_POINT_BUDGET`` points, and at least one.  A row's value does
    not depend on how the rows were grouped.
    """
    base_x, wx = _gl_nodes(n_x)
    base_y, wy = _gl_nodes(n_y)
    gx, gy = half_x * base_x, half_y * base_y
    step = max(1, _KERNEL_POINT_BUDGET // (n_x * n_y))
    return np.concatenate([
        np.einsum("i,j,kij->k", half_x * wx, half_y * wy, kern(
            points[lo:lo + step, 0, None, None] + gx[None, :, None],
            points[lo:lo + step, 1, None, None] + gy[None, None, :]))
        for lo in range(0, points.shape[0], step)])


def _displacement_table(panels: _Panels, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct canonical displacements ``(|dx|, |dy|)`` of a scan's
    panels from their offsets, one per row, and the row of every panel.

    The pair is sorted for square panels.  Both are rounded to multiples
    of ``_KEY_QUANTUM`` times the smaller half-side, and a row holds those
    multiples, so the value of a row depends on its key alone.
    """
    shift = np.repeat(offsets, panels.counts, axis=0)
    ax, ay = np.abs(panels.x - shift[:, 0]), np.abs(panels.y - shift[:, 1])
    if panels.half_x == panels.half_y and panels.n_x == panels.n_y:
        ax, ay = np.minimum(ax, ay), np.maximum(ax, ay)
    quantum = _KEY_QUANTUM * min(panels.half_x, panels.half_y)
    keys, rows = np.unique(np.rint(ax / quantum) + 1j * np.rint(ay / quantum),
                           return_inverse=True)
    return np.column_stack([keys.real, keys.imag]) * quantum, rows.reshape(-1)


def _offset_sums(values: np.ndarray, weight: np.ndarray, rows: np.ndarray,
                 counts: np.ndarray) -> np.ndarray:
    """``sum_p weight_p values[rows_p]`` over the panels of each offset."""
    per_panel = values[rows]
    ends = np.cumsum(counts)
    return np.array([np.dot(weight[a:b], per_panel[a:b])
                     for a, b in zip(ends - counts, ends)], dtype=complex)


def _check_panel_count(count: int) -> None:
    if count > _MAX_PANELS:
        raise ConfigError(
            f"scan of {count} quadrature panels exceeds the limit of {_MAX_PANELS}; "
            f"listing them would need about {count * _BYTES_PER_PANEL / 2**20:,.0f} MiB")


def _sample_panels(sample: SampleTransmittance, offsets: np.ndarray,
                   cfg: MicroscopeConfig, quad: QuadratureSpec,
                   coherent: bool) -> _Panels:
    """Panels of a slit, grating or raster at every scan offset.

    A slit is one square and a raster one square per pixel, the same at
    every offset.  A grating is one stripe per period within the
    truncation radius of the offset, centred on it along y.  Coherent
    integrals weight raster pixels by ``t``; incoherent ones (classical
    instruments) by ``|t|^2``.  More than ``_MAX_PANELS`` panels are
    refused before any is listed.
    """
    count = offsets.shape[0]
    n = quad.radial_nodes
    if isinstance(sample, Slit):
        half = 0.5 * sample.width
        return _Panels(np.zeros(count), np.zeros(count), np.ones(count),
                       np.ones(count, dtype=int), half, half, n, n)
    if isinstance(sample, Grating):
        radius = quad.truncation_radius or default_truncation_radius(cfg, quad.target_rel_tol)
        lo = np.floor((offsets[:, 0] - radius) / sample.period)
        hi = np.ceil((offsets[:, 0] + radius) / sample.period)
        counts = (hi - lo).astype(int) + 1
        _check_panel_count(int(counts.sum()))
        starts = np.cumsum(counts) - counts
        orders = np.repeat(lo - starts, counts) + np.arange(counts.sum())
        return _Panels(orders * sample.period, np.repeat(offsets[:, 1], counts),
                       np.ones(orders.size), counts,
                       0.5 * sample.duty * sample.period, radius, n, quad.angular_nodes)
    if isinstance(sample, Raster):
        grid = sample.grid
        rows, cols = grid.shape
        jj, ii = np.meshgrid(np.arange(cols), np.arange(rows))
        centers_x = (jj.ravel() - 0.5 * (cols - 1)) * sample.pitch
        centers_y = (ii.ravel() - 0.5 * (rows - 1)) * sample.pitch
        weights = grid.ravel() if coherent else np.abs(grid.ravel()) ** 2
        keep = weights != 0.0
        _check_panel_count(count * int(np.count_nonzero(keep)))
        half = 0.5 * sample.pitch
        return _Panels(np.tile(centers_x[keep], count), np.tile(centers_y[keep], count),
                       np.tile(weights[keep], count),
                       np.full(count, np.count_nonzero(keep)), half, half, n, n)
    raise ConfigError(f"unsupported sample for panel integration: {sample!r}")


def integrate_sample(sample: SampleTransmittance, offsets: np.ndarray,
                     cfg: MicroscopeConfig, quad: QuadratureSpec, kern,
                     coherent: bool = True, map_rows=None) -> np.ndarray:
    """Integral of ``t(u) * kern(u - y)`` over the sample plane at every
    scan offset ``y`` (rows of ``offsets``).

    Each pass integrates the kernel over one panel at every distinct
    displacement of the scan (``_displacement_table``), and each offset's
    sum is assembled from those panel integrals.  ``map_rows(func, points)``
    may apply ``func`` to chunks of the displacement rows, in order, and
    concatenate the results (see ``sample_amplitudes``); by default one
    call covers them all.

    Convergence is judged per offset.  The integral is evaluated once with
    the requested node counts and once with both counts doubled; the
    doubled result is kept where the disagreement between the passes stays
    within ``10 * target_rel_tol`` of the result scale.  The offsets that
    miss it are refined again, through the rows of their own panels: the
    doubled pass becomes the coarse one and the counts are doubled once
    more, up to ``_DOUBLING_CHECKS`` checks, after which a
    ``QuadratureError`` is raised for the first offset, in the order
    given, that still misses it.  The scale guards against spurious
    failures near response zeros by never dropping below 1% of the
    integrated absolute mass at the requested counts.
    """
    panels = _sample_panels(sample, offsets, cfg, quad, coherent)
    result = np.zeros(offsets.shape[0], dtype=complex)
    if panels.x.size == 0:
        return result
    points, rows = _displacement_table(panels, offsets)
    map_rows = map_rows or (lambda func, items: func(items))

    def table(kernel, n_x: int, n_y: int, needed: np.ndarray) -> np.ndarray:
        values = map_rows(lambda chunk: _panel_sum(chunk, panels.half_x, panels.half_y,
                                                   n_x, n_y, kernel), points[needed])
        full = np.zeros(points.shape[0], dtype=values.dtype)
        full[needed] = values
        return full

    weight, counts = panels.weight, panels.counts
    n_x, n_y = panels.n_x, panels.n_y
    needed = np.ones(points.shape[0], dtype=bool)
    coarse = _offset_sums(table(kern, n_x, n_y, needed), weight, rows, counts)
    abs_kern = lambda vx, vy: np.abs(kern(vx, vy))  # noqa: E731
    mass = _offset_sums(table(abs_kern, n_x, n_y, needed), np.abs(weight), rows, counts).real
    pending = np.arange(offsets.shape[0])
    for _ in range(_DOUBLING_CHECKS):
        n_x, n_y = 2 * n_x, 2 * n_y
        fine = _offset_sums(table(kern, n_x, n_y, needed), weight, rows, counts)
        scale = np.maximum(np.maximum(np.abs(coarse), np.abs(fine)), 0.01 * mass)
        error = np.abs(fine - coarse)
        done = (scale == 0.0) | (error <= 10.0 * quad.target_rel_tol * scale)
        result[pending[done]] = fine[done]
        if np.all(done):
            return result
        keep = ~done
        moved = error[keep] / scale[keep]
        kept_panels = np.repeat(keep, counts)
        weight, rows, counts = weight[kept_panels], rows[kept_panels], counts[keep]
        needed = np.zeros(points.shape[0], dtype=bool)
        needed[rows] = True
        pending, coarse, mass = pending[keep], fine[keep], mass[keep]
    raise QuadratureError(
        "amplitude quadrature did not converge: node doubling moved the "
        f"result by {moved[0]:.3e} relative "
        f"(target {quad.target_rel_tol:.1e}); raise the node counts"
    )


# ============================================================================
# amplitude and rate
# ============================================================================

def _one_offset(y) -> np.ndarray:
    """A scan offset, a scalar (along x) or a 2-vector [m], as one row."""
    arr = np.asarray(y, dtype=float).reshape(-1)
    if arr.size not in (1, 2):
        raise ValueError("scan offset must be a scalar or a 2-vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("scan offset must be finite")
    return np.array([[arr[0], arr[1] if arr.size == 2 else 0.0]])


def sample_points(sample: SampleTransmittance) -> np.ndarray | None:
    """Unit-weight points ``(x, y)`` [m] that a point-like sample lowers
    to, one per row; None for samples with extended support."""
    if isinstance(sample, Delta):
        return np.zeros((1, 2))
    if isinstance(sample, TwoPoint):
        half = 0.5 * sample.separation
        return np.array([[-half, 0.0], [half, 0.0]])
    return None


def point_sum(points: np.ndarray, offsets: np.ndarray, kern) -> np.ndarray:
    """``sum_k kern(p_k - y)`` at every scan offset ``y`` (rows of ``offsets``).

    One ``kern`` call per sample point covers all offsets.  With the
    complex twin kernel the sum is the coherent amplitude, which the
    caller squares; with a classical intensity response it is already the
    incoherent image.
    """
    return sum(kern(px - offsets[:, 0], py - offsets[:, 1]) for px, py in points)


def sample_amplitudes(sample: SampleTransmittance, offsets: np.ndarray,
                      cfg: MicroscopeConfig, quad: QuadratureSpec | None, kern=None,
                      coherent: bool = True, map_rows=None) -> np.ndarray:
    """Integral of ``t(u) * kern(u - y)`` at every scan offset ``y`` (rows
    of ``offsets``).

    With the twin kernel ``K`` (``kern`` None) the result is the coherent
    amplitude ``A(y)``; with a classical intensity response and
    ``coherent=False`` it is the incoherent image.  ``map_rows(func,
    items)`` may apply ``func`` to index-ordered chunks of the rows of
    ``items`` and concatenate the results (threads in ``scansim.scan``).
    Point samples hand it their offsets (``point_sum``), extended ones
    the rows of their displacement table (``integrate_sample``).
    """
    if kern is None:
        kern = lambda vx, vy: kernel_field(vx, vy, cfg)  # noqa: E731
    points = sample_points(sample)
    if points is None:
        quad = quad if quad is not None else QuadratureSpec()
        return integrate_sample(sample, offsets, cfg, quad, kern, coherent, map_rows)
    summed = lambda chunk: point_sum(points, chunk, kern)  # noqa: E731
    return map_rows(summed, offsets) if map_rows else summed(offsets)


def twin_rates(sample: SampleTransmittance, offsets: np.ndarray,
               cfg: MicroscopeConfig, quad: QuadratureSpec | None,
               t12: float | None = None, disp: DispersionModel | None = None,
               map_rows=None) -> np.ndarray:
    """Unnormalized coincidence rates ``gate * |A(y)|^2`` at every scan
    offset ``y`` (rows of ``offsets``).  Without a dispersion model the
    gate is 1; a closed gate returns zeros without any kernel work."""
    # The gate is the same at every offset but is evaluated per offset;
    # the benchmark's traced self-check counts these calls.
    gates = 1.0 if disp is None else np.array(
        [gate(t12, disp, cfg.omega_o, cfg.omega_e) for _ in offsets])
    if not np.any(gates):
        return np.zeros(offsets.shape[0])
    amps = sample_amplitudes(sample, offsets, cfg, quad, map_rows=map_rows)
    return gates * (amps.real * amps.real + amps.imag * amps.imag)


def amplitude(y, cfg: MicroscopeConfig, sample: SampleTransmittance,
              quad: QuadratureSpec | None = None) -> complex:
    """Coherent coincidence amplitude ``A(y)`` for a structured sample.

    ``y`` is the scan offset, either a scalar (displacement along x) or a
    2-vector [m].  The result is the raw, unnormalized integral; scanning
    code normalizes per scan.  A point pair sums the kernel at its two
    points; everything else goes through panel quadrature with an
    internal node-doubling check.
    """
    if isinstance(sample, Delta):
        raise ConfigError("amplitude is for structured samples; "
                          "use coincidence_rate for a point sample")
    return complex(sample_amplitudes(sample, _one_offset(y), cfg, quad)[0])


def coincidence_rate(y, cfg: MicroscopeConfig, sample: SampleTransmittance,
                     quad: QuadratureSpec | None = None,
                     t12: float | None = None,
                     disp: DispersionModel | None = None) -> float:
    """``twin_rates`` at the one scan offset ``y``, a scalar or a 2-vector
    [m], which is checked before the gate.  A point sample's rate is
    ``|K(-y)|^2``, the twin-photon response."""
    return float(twin_rates(sample, _one_offset(y), cfg, quad, t12, disp)[0])
