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
offsets, and the classical images the same way with the instrument's
intensity response, integrated incoherently; it decides what the threads
split (``Chunks`` splits it), and every amplitude, rate and image goes
through it.  ``twin_rates`` alone forms the rate ``gate * |A|^2``.
Every sample lowers to weighted cells of one square lattice
(``_sample_lattice``).  Point samples (``Delta``, ``TwoPoint``) lower to
zero-size unit cells ``p_k``: ``A(y) = sum_k K(p_k - y)`` (``point_sum``,
which evaluates the kernel once per point over all offsets).

Integration: the integrand is smooth on the transmitting region of every
schematic sample shipped here.  A slit is one panel cell of pitch
``width``, a raster its pixels, a grating stripes of pitch ``period``
along x that follow the offset in y.  A cell's Gauss-Legendre
integral depends only on ``(|dx|, |dy|)`` of the cell from the offset,
sorted for square cells, as the kernels are radial and the nodes
symmetric.  Its key is the integer cell difference, exact in lattice
units, minus the offset's residual: ``offset / pitch`` rounded to a
multiple of ``2**-44``, less its integer shift.  The offsets of one
residual class share a dense box of keys, and ``_lattice_table`` folds
the boxes to one row per distinct key, so each pass integrates every
displacement once.  After the first pass each offset drops from its
finer passes the lit cells whose first-pass values provably lie close
enough to the truth: a twin panel whose nearest point lies ``d`` from the
offset integrates to at most ``area * exp(-2 Re(eta0_inv_sq) d^2)``, and
the dropped cells' summed error bound stays within 1e-3 of the smallest
error node doubling accepts (``integrate_sample``).  What stays exact: a
value depends on its key alone, and an offset's sum, one ``np.dot`` over
its lit cells in pixel order, and the cells it drops, on its own cells
and mass alone, so a scan is bit-identical for any number of threads or
split of the rows and equal bit for bit to one-offset ``amplitude``
calls; the convergence rule and the ``QuadratureError`` (first failing
offset, in the order given) are the same as for one offset at a time.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .errors import ConfigError, QuadratureError, check_integers, check_positive, check_size
from .optics import SPEED_OF_LIGHT, MicroscopeConfig, eta0_inv_sq, r0
from .specfun import Workspace, _workspace, airy_amp

__all__ = [
    "Delta",
    "TwoPoint",
    "Slit",
    "Grating",
    "Raster",
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

# Node doublings above the requested counts n, so the largest pass takes
# 4 n nodes per side (the ladder of passes: ``integrate_sample``).
_DOUBLING_CHECKS = 2

# Most kernel points one call of an extended-sample pass evaluates; a
# panel with more nodes runs alone.  Of 9 216, 18 432, 36 864 and 73 728
# points, measured in-process on both extended benchmark workloads (seed
# 13, two rounds), 36 864 gave the fastest twin-photon passes (2 threads:
# 97-109 ms against 135-213 ms below it and 106-156 ms above it), and the
# classical passes were level from 18 432 up (152-179 ms) and slower at
# 9 216 (184-186 ms).  Re-measured once the kernels wrote into per-chunk
# workspaces (``Chunks``), which are sized by this budget: at 96 ** 2 points
# the benchmark (seed 11, two 16 s runs per workload, 2 vCPUs) read study_s
# 0.163 s against 0.102-0.103 s on twin_extended and 0.153-0.172 s against
# 0.115-0.136 s on classical_extended, and peak RSS within 0.2 MiB of this
# budget's, so a smaller budget saves no memory.
_KERNEL_POINT_BUDGET = 4 * 96 ** 2

# Fewest kernel points a chunk of a panel pass is given (``Chunks``): a
# smaller pass runs on the calling thread alone.  Measured in-process on the
# six twin_extended benchmark jobs at 2 threads (2 vCPUs; calibrated job
# medians summed, seeds 13 and 11, 15 and 25 rounds): with no clamp 96.9 and
# 98.3 ms, at 2**16 89.3 and 93.2, at 2**17 87.1 and 95.3, at 2**18 88.0 and
# 94.2, and with every pass on one thread 86.8 and 93.3.  The slit line
# (9.0-9.8 ms against 7.5-8.1) and the 16x16 raster grid (8.2-8.6 against
# 6.6-7.4), whose passes all fall below 2**17, gain most; the raster lines,
# whose fine passes exceed it, and the grating are level within the noise.
_MIN_POINTS_PER_CHUNK = 1 << 17

# Workspace bytes per point of a kernel call (see ``Chunks``), for both
# kernels of ``sample_amplitudes``.  The twin kernel of a degenerate pair
# and a classical response at the radius hold at most 41: the radii,
# overwritten by the Airy factor, a branch mask and the Hankel branch's
# four scratch arrays.  A call that straddles the branch switch
# holds at most 33, as numpy gathers each branch's points outside the
# workspace and the radii are scratch meanwhile.  A non-degenerate twin
# pair also holds its first Airy factor, and allocates what does not fit.
_WORK_BYTES_PER_POINT = 42

# Most kernel points one panel may hold at the last node doubling, about
# 192 MiB of kernel arrays, like the largest scan; the default grating
# stripe needs 192 x 1536 = 294 912.  Peak memory per point is the
# tracemalloc peak of one 512 x 512 panel of the twin kernel.
_MAX_PANEL_POINTS = 1 << 21
_BYTES_PER_KERNEL_POINT = 96

# ``offset / pitch``, the only term with float error (cell centres are
# exact in lattice units), is rounded to a multiple of 2**-_KEY_BITS.  That
# absorbs errors below 2**-45: on 4000 random on-lattice lines of half-range
# H pitches, ``Line`` and ``Grid`` offsets missed by at most 4.8 H 2**-53, so
# one residual up to H = 53.  At 2**-42 a slit integral moves 0.85e-13 of peak.
_KEY_BITS = 44

# Most cells the class boxes of one scan may hold (about a fully lit 64 x 64
# raster on an off-lattice line of 1024 offsets), and the largest tracemalloc
# peak per cell of building tables of 4.1e6 to 4.2e6 cells (117 to 160 B).
_MAX_TABLE_CELLS = 1 << 22
_BYTES_PER_TABLE_CELL = 160

# Farthest a scan offset or a sample cell may reach from the axis [m].  A
# metre is beyond the field of any objective.  A squared offset overflows
# beyond 1e154 m, and a kernel argument (1.8e7 per metre for the default
# twin kernel) squared beyond about 1e146 m.
_MAX_REACH = 1.0


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
        check_positive(self.separation, "two-point separation")


@dataclass(frozen=True)
class Slit:
    """Fully transmitting square aperture of the given side length [m]."""

    width: float

    def __post_init__(self) -> None:
        check_positive(self.width, "slit width")


@dataclass(frozen=True)
class Grating:
    """Periodic stripes transmitting across x: |t| = 1 on stripes of width
    duty * period centered at integer multiples of the period, 0 between."""

    period: float
    duty: float = 0.5

    def __post_init__(self) -> None:
        check_positive(self.period, "grating period")
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
        check_positive(self.pitch, "raster pitch")
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
        check_positive(self.L, "crystal length")

    def n_along(self, omega: float) -> float:
        """Extraordinary index ``n_e(omega, psi)`` along the phase-matching angle."""
        return self.n_e(omega, self.psi)


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
    check_positive(omega, "carrier frequency")
    return omega * _index_value(n, "n", omega) / SPEED_OF_LIGHT


def inv_group_velocity(n: Callable[[float], float], omega: float) -> float:
    """Inverse group velocity ``d(omega n/c)/domega`` [s/m].

    Central finite difference with relative step 1e-6, sharpened by one
    Richardson extrapolation pass (halved step).  For a frequency
    independent index this returns ``n / c`` to ~1e-9 relative.
    """
    check_positive(omega, "carrier frequency")
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
        K = wavenumber_K(disp.n_along, omega)
        u_inv = inv_group_velocity(disp.n_along, omega)
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
    if _index_value(disp.n_along, "n_e", omega_e) < 1.0:
        raise ConfigError("n_e must be >= 1 at the extraordinary carrier")
    return 1.0 if 0.0 < t12 < delay_window(disp, omega_o, omega_e) else 0.0


def delay_window(disp: DispersionModel, omega_o: float, omega_e: float) -> float:
    """Width ``D * L`` [s] of the coincidence gate; <= 0 means it never opens."""
    mismatch = inv_group_velocity(disp.n_o, omega_o) - inv_group_velocity(disp.n_along, omega_e)
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

    The counts are the requested ones of node doubling; the ladder of
    passes is described at ``integrate_sample``.  No pass exceeds four
    times the counts, and that panel is what the point cap bounds.
    """

    radial_nodes: int = 48
    angular_nodes: int = 384
    truncation_radius: float | None = None
    target_rel_tol: float = 1e-8

    def __post_init__(self) -> None:
        counts = (self.radial_nodes, self.angular_nodes)
        check_integers(counts, "quadrature node counts")
        if min(counts) < 8:
            raise ConfigError("quadrature node counts must be at least 8")
        # the largest panel (a grating stripe, or a square) at the last doubling
        points = (2 ** _DOUBLING_CHECKS) ** 2 * self.radial_nodes * max(counts)
        check_size(points, _MAX_PANEL_POINTS,
                   f"quadrature of {points} kernel points per panel at the last node doubling",
                   _BYTES_PER_KERNEL_POINT, "evaluating one panel")
        if self.truncation_radius is not None:
            check_positive(self.truncation_radius, "truncation radius")
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
        # pump amplitude at the doubled coordinate, undoubled Fresnel phase
        eta = eta0_inv_sq(cfg)
        c = complex(4.0 * eta.real, eta.imag)
        along_x, along_y = np.exp(-0.5 * xx * c), np.exp(-0.5 * yy * c)
        out = work.out(radius, dtype=complex)
        field = along_x * along_y if out is None else np.multiply(along_x, along_y, out=out)
        field *= amp
        return field
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
class _Lattice:
    """Weighted cells ``pitch`` [m] apart (see ``_sample_lattice``).  The
    kernel they are integrated against obeys ``|kern(v)| <= exp(-decay
    |v|^2)``."""

    coherent: bool
    pitch: float
    x0: float
    y0: float
    weight: np.ndarray
    half_x: float = 0.0
    half_y: float = 0.0
    n_x: int = 0
    n_y: int = 0
    target_rel_tol: float = 0.0
    reach: float = math.inf
    decay: float = 0.0

    def table(self, offsets: np.ndarray):
        """Admit a scan of this lattice at ``offsets``: the one step, after
        lowering, that refuses a sample and its offsets, before any kernel
        call.  A cell edge beyond ``_MAX_REACH`` of the axis is refused;
        for panel cells ``_lattice_table`` then refuses offsets whose
        lattice coordinates overflow and too many table cells, and the scan
        table it builds is returned.  Point cells have no table: None."""
        rows, cols = self.weight.shape
        far_x = self.pitch * max(abs(self.x0), abs(self.x0 + cols - 1)) + self.half_x
        far_y = self.pitch * max(abs(self.y0), abs(self.y0 + rows - 1)) + self.half_y
        _check_reach(max(far_x, far_y), "sample reach from the axis")
        return _lattice_table(self, offsets) if self.n_x else None


def _panel_sum(points: np.ndarray, half_x: float, half_y: float,
               n_x: int, n_y: int, kern) -> np.ndarray:
    """Integral of ``kern(d + g)`` over the centred panel ``|g_x| <= half_x``,
    ``|g_y| <= half_y``, at every displacement ``d`` (rows of ``points``).

    One ``kern`` call covers as many consecutive rows as fit in
    ``_KERNEL_POINT_BUDGET`` points, and at least one.  A row's value does
    not depend on how the rows were grouped.  Each call starts with the
    thread's workspace cleared, as the previous call's values are summed.
    """
    base_x, wx = _gl_nodes(n_x)
    base_y, wy = _gl_nodes(n_y)
    gx, gy = half_x * base_x, half_y * base_y
    step = max(1, _KERNEL_POINT_BUDGET // (n_x * n_y))
    work = _workspace()
    sums = [np.zeros(0)]  # a pass whose offsets dropped every cell reads no row
    for lo in range(0, points.shape[0], step):
        work.clear()
        values = kern(points[lo:lo + step, 0, None, None] + gx[None, :, None],
                      points[lo:lo + step, 1, None, None] + gy[None, None, :])
        # one dot product per node row, so a row's sum does not depend on its
        # place in the call, as ``(values @ wy) @ wx`` would; ``values @ wy``
        # would hand panels of 96^2 points to OpenBLAS's threaded matrix-vector
        # product, whose worker competes with the scan's threads
        sums.append((np.dot(values, half_y * wy) * (half_x * wx)).sum(axis=1))
    return np.concatenate(sums)


class Chunks:
    """A scan's work split into index-ordered chunks of the rows of an
    array, at most one per thread and one per row, with the results
    rejoined in order.  They are bit-identical for every thread count: the
    special functions evaluate every element at a fixed degree, so no
    value depends on the other elements of its array, and a table row's
    value depends on its key alone, not on the thread or kernel call that
    evaluated it.

    ``map(func, items)`` runs ``func(chunk)`` on pool threads, one per
    chunk (point cells).  Calling it, ``chunks(func, items, points)``, runs
    one pass over panel rows of ``points`` kernel points each as
    ``func(chunk, work)``: the calling thread works the first chunk itself
    and a pool of ``threads - 1`` threads the rest.  The
    calling thread also allocates the chunks' workspaces, as one buffer,
    the first time a pass has that many chunks, each sized for the largest
    kernel call of a pass (``_KERNEL_POINT_BUDGET`` points); later passes
    reuse them.  Pool threads then allocate only per-row factors, the
    contraction's per-row sums and, in a call that straddles the Bessel
    branch switch, each branch's gathered points; a lone panel larger than
    the budget allocates what does not fit.  Each chunk of a pass gets at
    least ``_MIN_POINTS_PER_CHUNK`` kernel points, so a smaller pass runs
    on the calling thread alone.  No pool starts at one thread or for a
    single chunk.  Leaving the ``with`` block waits for the pool threads
    and drops the workspaces.
    """

    def __init__(self, threads: int = 1):
        self.threads = threads
        self._pool: ThreadPoolExecutor | None = None
        self._work: list[Workspace] = []

    def __enter__(self) -> "Chunks":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()
        self._work.clear()

    def _executor(self, workers: int) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=workers)
        return self._pool

    @staticmethod
    def _split(items: np.ndarray, count: int) -> list[np.ndarray]:
        return np.array_split(items, max(1, min(count, items.shape[0])))

    def map(self, func, items: np.ndarray) -> np.ndarray:
        if self.threads == 1:
            return func(items)
        return np.concatenate(list(self._executor(self.threads).map(
            func, self._split(items, self.threads))))

    def __call__(self, func, items: np.ndarray, points: int) -> np.ndarray:
        chunks = self._split(items, min(self.threads,
                                        items.shape[0] * points // _MIN_POINTS_PER_CHUNK))
        if len(self._work) < len(chunks):
            size = _KERNEL_POINT_BUDGET * _WORK_BYTES_PER_POINT
            # numpy aligns to 16 bytes: start the chunks at a 64-byte address
            buffer = np.empty(len(chunks) * size + 63, dtype=np.uint8)
            buffer = buffer[-buffer.ctypes.data % 64:]
            self._work = [Workspace(buffer[k * size:(k + 1) * size]) for k in range(len(chunks))]
        rest = [self._executor(self.threads - 1).submit(func, chunk, work)
                for chunk, work in zip(chunks[1:], self._work[1:])]
        first = func(chunks[0], self._work[0])
        return np.concatenate([first] + [future.result() for future in rest])


def _sample_lattice(sample: SampleTransmittance, cfg: MicroscopeConfig,
                    quad: QuadratureSpec | None, coherent: bool) -> _Lattice:
    """Any sample as a grid of weighted cells, cell ``[i, j]`` centred
    ``(x0 + j, y0 + i)`` pitches from the origin: unit points (no size, no
    nodes) for point samples, else the panel ``|g_x| <= half_x``,
    ``|g_y| <= half_y`` [m] with ``n_x`` by ``n_y`` nodes, integrated to
    ``target_rel_tol`` (``quad``, the default spec if None).  Raster pixels
    weigh ``t``, or ``|t|^2`` for incoherent integrals.  A grating (finite
    ``reach``) folds every offset to its residual, which keeps the stripes
    from ``floor`` to ``ceil`` of ``R / period`` away."""
    if isinstance(sample, Delta):
        return _Lattice(coherent, 1.0, 0.0, 0.0, np.ones((1, 1)))
    if isinstance(sample, TwoPoint):
        return _Lattice(coherent, sample.separation, -0.5, 0.0, np.ones((1, 2)))
    quad = quad or QuadratureSpec()
    n, tol = quad.radial_nodes, quad.target_rel_tol
    # both Airy factors of the twin kernel, and the classical responses, are
    # at most 1 in magnitude: only the twin pump envelope decays
    decay = 2.0 * eta0_inv_sq(cfg).real if coherent and cfg.pump_gaussian else 0.0
    if isinstance(sample, Slit):
        half = 0.5 * sample.width
        return _Lattice(coherent, sample.width, 0.0, 0.0, np.ones((1, 1)), half, half, n, n, tol,
                        decay=decay)
    if isinstance(sample, Grating):
        radius = quad.truncation_radius or default_truncation_radius(cfg, tol)
        reach, half = radius / sample.period, 0.5 * sample.duty * sample.period
        # every residual class holds all the stripes: count them before any array
        _check_table_cells(2.0 * np.ceil(reach) + 2.0)
        return _Lattice(coherent, sample.period, -math.ceil(reach), 0.0,
                        np.broadcast_to(1.0, (1, 2 * math.ceil(reach) + 2)),
                        half, radius, n, quad.angular_nodes, tol, reach + 1.0, decay)
    if isinstance(sample, Raster):
        rows, cols = sample.grid.shape
        half = 0.5 * sample.pitch
        return _Lattice(coherent, sample.pitch, -0.5 * (cols - 1), -0.5 * (rows - 1),
                        sample.grid if coherent else np.abs(sample.grid) ** 2,
                        half, half, n, n, tol, decay=decay)
    raise ConfigError(f"unsupported sample: {sample!r}")


def _check_reach(value: float, subject: str) -> None:
    """Refuse a distance from the axis beyond ``_MAX_REACH`` [m]."""
    if value > _MAX_REACH:
        raise ConfigError(f"{subject} must be at most {_MAX_REACH:g} m, got {value!r}")


def _check_table_cells(count: float) -> None:
    """Refuse a scan table of more than ``_MAX_TABLE_CELLS`` cells."""
    check_size(count, _MAX_TABLE_CELLS, f"scan table of {count:.0f} cells",
               _BYTES_PER_TABLE_CELL, "building it")


def _lattice_table(lattice: _Lattice, offsets: np.ndarray):
    """The distinct canonical displacements [m] of a scan, one per row, and
    ``windows(members)``, which yields bounded blocks ``(offsets, rows,
    weights)``: the table rows of each offset's lit cells, a row each in
    pixel order.  Offsets whose lattice coordinates overflow, and too many
    cells, are refused before any box exists."""
    periodic = math.isfinite(lattice.reach)
    largest = float(np.abs(offsets).max())
    if not largest / lattice.pitch * 2.0 ** _KEY_BITS < math.inf:
        raise ConfigError(f"sample pitch {lattice.pitch!r} m is too small for scan offsets "
                          f"up to {largest!r} m: their lattice coordinates overflow")
    coord = np.rint(offsets / lattice.pitch * 2.0 ** _KEY_BITS) * 2.0 ** -_KEY_BITS
    if periodic:  # a grating folds every offset to its residual along x
        coord[:, 1] = 0.0
        coord -= np.floor(coord)
    # the members of a residual class differ by exact integer shifts
    order = np.argsort((coord - np.floor(coord)).view(complex).ravel())
    coord = coord[order]
    first = np.append(0, 1 + np.flatnonzero(np.diff(
        (coord - np.floor(coord)).view(complex).ravel())))
    span = np.maximum.reduceat(coord, first) + lattice.weight.shape[::-1]
    span -= np.minimum.reduceat(coord, first)
    # a class's box holds width x height cells; the bound on their sum is
    # taken in Python floats, which overflow to inf without a warning, and
    # numpy only sums products that cannot overflow
    widest, tallest = span.max(axis=0).tolist()
    _check_table_cells(np.prod(span, axis=1).sum() if widest * tallest * span.shape[0] < math.inf
                       else math.inf)

    box = span.astype(np.int64)  # each class's box width and height
    high = np.maximum.reduceat(coord, first)
    residual = high - np.floor(high)
    high -= residual  # each class's largest shift
    sizes = box[:, 0] * box[:, 1]
    start = np.cumsum(sizes) - sizes  # each class's first box cell
    if periodic:  # every grating offset has shift 0 and keeps the stripes within reach
        near = np.abs(lattice.x0 + np.arange(box[0, 0]) - residual[:, :1]) < lattice.reach
        masks, lit_id = np.unique(near, axis=0, return_inverse=True)
        lits = [(np.flatnonzero(mask), lattice.weight[0, mask]) for mask in masks]
    else:  # the lit cells of a box depend on its width alone
        ty, tx = np.nonzero(lattice.weight)
        widths, lit_id = np.unique(box[:, 0], return_inverse=True)
        lits = [(ty * width + tx, lattice.weight[ty, tx]) for width in widths]
    klass = np.repeat(np.arange(first.size), np.diff(np.append(first, coord.shape[0])))
    corner = (high[klass] - (coord - residual[klass])).astype(np.int64)
    back = np.argsort(order)  # each offset's place among the sorted ones
    lit_of = lit_id[klass[back]]
    start_of = (start[klass] + corner[:, 1] * box[klass, 0] + corner[:, 0])[back]
    # every box cell's key: the integer cell difference, exact, minus the
    # rounded residual of its class
    owner = np.repeat(np.arange(first.size), sizes)
    row, col = np.divmod(np.arange(sizes.sum()) - start[owner], box[owner, 0])
    dx = np.abs((lattice.x0 - high[owner, 0]) + col - residual[owner, 0])
    dy = np.abs((lattice.y0 - high[owner, 1]) + row - residual[owner, 1])
    if lattice.half_x == lattice.half_y and lattice.n_x == lattice.n_y:
        dx, dy = np.minimum(dx, dy), np.maximum(dx, dy)
    distinct, cell_rows = np.unique(dx + 1j * dy, return_inverse=True)

    def windows(members: np.ndarray):
        for shape in np.unique(lit_of[members]):
            lit, weight = lits[shape]
            alike = members[lit_of[members] == shape]
            for block in np.array_split(alike, -(-alike.size * lit.size // _KERNEL_POINT_BUDGET)):
                yield block, cell_rows[start_of[block, None] + lit], weight

    return np.column_stack([distinct.real, distinct.imag]) * lattice.pitch, windows


def integrate_sample(lattice: _Lattice, offsets: np.ndarray, table, kern,
                     chunks: Chunks) -> np.ndarray:
    """Integral of ``t(u) * kern(u - y)`` over the panel cells of
    ``lattice`` at every scan offset ``y`` (rows of ``offsets``).

    ``table`` is the scan's table, built and admitted by
    ``lattice.table(offsets)``; nothing is refused here but a
    ``QuadratureError``.  Each pass integrates one lattice cell at every
    distinct displacement the offsets read, split between the threads of
    ``chunks``, each chunk in its own workspace.

    Convergence is judged per offset, on a ladder of node counts, the one
    statement of it in the package.  A coherent (twin) integral is
    evaluated with the requested counts ``n`` and then with both counts
    doubled; an incoherent (confocal, widefield) one starts at ``n // 2``
    and then takes ``n``, one check more: on every extended benchmark job
    the 48-node result already agrees with the 96-node one to 2.3e-14 of
    the peak, so a classical scan that agrees there stops after two
    passes.  The finer result is kept where the disagreement between the
    two passes stays within ``10 * target_rel_tol`` of the result scale.
    The offsets that miss it are refined again, through the rows of their
    own cells: the finer pass becomes the coarse one and the counts are
    doubled, up to ``4 n`` (``_DOUBLING_CHECKS``), after which a
    ``QuadratureError`` is raised for the first offset, in the order
    given, that still misses it.  Far out on the kernel's Gaussian tail
    the integrand changes by orders of magnitude across one pixel, and a
    count that converges near the response core may need one more
    doubling there.  The scale guards against spurious failures near
    response zeros by never dropping below 1% of the integrated absolute
    mass at the first pass's counts.  An incoherent integrand is
    non-negative, so its mass is the first pass itself.  The coherent
    passes stay at ``n``, ``2 n`` and ``4 n`` with a separate mass pass at
    ``n``, because the benchmark's traced slit self-check
    (``slit_kernel_points``) pins a twin ``Slit`` integral at exactly
    ``6 n^2`` kernel points until it is restated as an upper bound.

    Far cells drop from the finer passes.  ``|kern(v)| <= exp(-decay
    |v|^2)`` (``_Lattice.decay``: ``2 Re(eta0_inv_sq)`` for the twin
    kernel, whose Airy factors are at most 1; 0 for a flat pump and the
    classical responses), so a panel whose nearest point lies ``d`` from
    the offset integrates, at any node count, to at most ``b = area *
    exp(-decay d^2)``, and a cell's first-pass term lies within ``2 |w| b``
    of its true one.  After the first pass (and the twin mass pass) each
    offset drops its cells in ascending ``2 |w| b``, ties together, while
    their sum stays within 1e-3 of the smallest error node doubling
    accepts for it, ``10 * target_rel_tol`` of 1% of its mass.  A dropped
    cell adds its first-pass value to every later sum, and later passes
    integrate only the rows of kept cells.  The decision reads only the
    offset's own cells and mass, so it keeps the scan bit-identical across
    threads and to one-offset calls.  With ``decay`` 0 every bound is the
    cell's area, which no cell of weight near 1 meets, and when no cell of
    the scan can meet the limit the cells are not walked for it.
    """
    points, windows = table
    result = np.zeros(offsets.shape[0], dtype=complex)
    if not np.any(lattice.weight):
        return result
    # no node count takes a row's panel integral beyond its area times the
    # kernel's envelope at the panel point nearest the offset
    gap = np.maximum(points - (lattice.half_x, lattice.half_y), 0.0)
    bound = 4.0 * lattice.half_x * lattice.half_y * np.exp(-lattice.decay * (gap * gap).sum(axis=1))
    cutoff = None  # per offset, the least slack of a cell it keeps, once decided
    first = None  # the first pass's value of every table row

    def slack(rows: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """How far each lit cell's first-pass term may lie from the truth."""
        return 2.0 * np.abs(weight) * bound[rows]

    def cells(members: np.ndarray):
        """``windows(members)``, with each lit cell's drop flag (None: none)."""
        for block, rows, weight in windows(members):
            yield block, rows, weight, (None if cutoff is None
                                        else slack(rows, weight) < cutoff[block, None])

    def rows_of(members: np.ndarray) -> np.ndarray:
        """The table rows that the kept lit cells of ``members`` read."""
        needed = np.zeros(points.shape[0], dtype=bool)
        for _, rows, _, drop in cells(members):
            needed[rows if drop is None else rows[~drop]] = True
        return np.flatnonzero(needed)

    def sums(kernel, n_x: int, n_y: int, members: np.ndarray, read, weigh=lambda w: w):
        """Each offset of ``members`` summed over its lit cells, integrating
        ``read``, and the table of row values; a dropped cell adds its
        first-pass value."""
        def integrate(chunk: np.ndarray, work: Workspace) -> np.ndarray:
            with work.use():
                return _panel_sum(chunk, lattice.half_x, lattice.half_y, n_x, n_y, kernel)

        integrals = chunks(integrate, points[read], n_x * n_y)
        values = np.empty(points.shape[0], dtype=integrals.dtype)
        values[read] = integrals
        out = np.empty(offsets.shape[0], dtype=complex)
        for block, rows, weight, drop in cells(members):
            terms = values[rows] if drop is None else np.where(drop, first[rows], values[rows])
            weight = weigh(weight)
            out[block] = [np.dot(weight, row) for row in terms]
        return out[members], values

    def magnitude(vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
        values = kern(vx, vy)
        return np.abs(values, out=_workspace().out(values))

    ladder = [(lattice.n_x << k, lattice.n_y << k) for k in range(_DOUBLING_CHECKS + 1)]
    if not lattice.coherent:  # incoherent integrals start lower (see above)
        ladder.insert(0, (lattice.n_x // 2, lattice.n_y // 2))
    pending = np.arange(offsets.shape[0])
    read = rows_of(pending)
    coarse, first = sums(kern, *ladder[0], pending, read)
    mass = (sums(magnitude, *ladder[0], pending, read, np.abs)[0].real
            if lattice.coherent else coarse.real)
    limit = 1e-3 * (10.0 * lattice.target_rel_tol) * (0.01 * mass)
    lit = np.abs(lattice.weight[lattice.weight != 0])
    if 2.0 * lit.min() * bound[read].min() <= limit.max():  # else no cell can drop
        cutoff = np.empty(offsets.shape[0])
        for block, rows, weight in windows(pending):
            # the slack at which the ascending sum first passes the limit:
            # every smaller one drops, ties together
            ascending = np.sort(slack(rows, weight), axis=1)
            cutoff[block] = np.where(np.cumsum(ascending, axis=1) > limit[block, None],
                                     ascending, np.inf).min(axis=1)
        read = rows_of(pending)
    for n_x, n_y in ladder[1:]:
        fine = sums(kern, n_x, n_y, pending, read)[0]
        scale = np.maximum(np.maximum(np.abs(coarse), np.abs(fine)), 0.01 * mass)
        error = np.abs(fine - coarse)
        done = (scale == 0.0) | (error <= 10.0 * lattice.target_rel_tol * scale)
        result[pending[done]] = fine[done]
        if np.all(done):
            return result
        keep = ~done
        moved = error[keep] / scale[keep]
        pending, coarse, mass = pending[keep], fine[keep], mass[keep]
        read = rows_of(pending)
    raise QuadratureError("amplitude quadrature did not converge: node doubling moved the "
                          f"result by {moved[0]:.3e} relative "
                          f"(target {lattice.target_rel_tol:.1e}); raise the node counts")


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


def point_sum(lattice: _Lattice, offsets: np.ndarray, kern) -> np.ndarray:
    """``sum_k kern(p_k - y)`` at every scan offset ``y`` (rows of ``offsets``)
    over the (unit) point cells ``p_k`` of ``lattice``, in pixel order.

    One ``kern`` call per sample point covers all offsets.  With the
    complex twin kernel the sum is the coherent amplitude, which the
    caller squares; with a classical intensity response it is already the
    incoherent image.
    """
    rows, cols = lattice.weight.shape
    return sum(kern((lattice.x0 + j) * lattice.pitch - offsets[:, 0],
                    (lattice.y0 + i) * lattice.pitch - offsets[:, 1])
               for i in range(rows) for j in range(cols))


def sample_amplitudes(sample: SampleTransmittance, offsets: np.ndarray,
                      cfg: MicroscopeConfig, quad: QuadratureSpec | None,
                      response=None, chunks: Chunks | None = None) -> np.ndarray:
    """Integral of ``t(u) * kern(u - y)`` at every scan offset ``y`` (rows
    of ``offsets``), with the kernel and the coherence of the instrument.

    The twin-photon instrument (``response`` None) integrates its kernel
    ``K`` (``kernel_field``) coherently, against ``t``: the result is the
    amplitude ``A(y)``.  A classical instrument passes its intensity
    response ``response(r, cfg, out)`` (``psf.psf_widefield``,
    ``psf.psf_confocal``), evaluated at the radius ``|u - y|`` and
    integrated incoherently, against ``|t|^2``: the result is the image.
    ``chunks`` splits the work between threads (``Chunks``; one thread if
    None).  The sample is lowered and admitted (``_Lattice.table``) before
    any kernel call.  Point cells of the sample's lattice hand
    ``chunks.map`` their offsets (``point_sum``), panel cells hand
    ``chunks`` their table rows (``integrate_sample``).
    """
    def kern(vx, vy):
        if response is None:
            return kernel_field(vx, vy, cfg)
        radius = np.add(vx * vx, vy * vy, out=_workspace().out(vx, vy))
        return response(np.sqrt(radius, out=radius), cfg, out=radius)

    chunks = chunks or Chunks()
    lattice = _sample_lattice(sample, cfg, quad, response is None)
    table = lattice.table(offsets)
    if table is None:  # point cells have no nodes
        return chunks.map(lambda chunk: point_sum(lattice, chunk, kern), offsets)
    return integrate_sample(lattice, offsets, table, kern, chunks)


def twin_rates(sample: SampleTransmittance, offsets: np.ndarray,
               cfg: MicroscopeConfig, quad: QuadratureSpec | None,
               t12: float | None = None, disp: DispersionModel | None = None,
               chunks: Chunks | None = None) -> np.ndarray:
    """Unnormalized coincidence rates ``gate * |A(y)|^2`` at every scan
    offset ``y`` (rows of ``offsets``).  Without a dispersion model the
    gate is 1.  A closed gate returns zeros without any kernel call, but
    only after the sample is lowered and admitted with its offsets
    (``_Lattice.table``), so it refuses exactly what an open gate
    refuses."""
    # The gate is the same at every offset but is evaluated per offset;
    # the benchmark's traced self-check counts these calls.
    gates = 1.0 if disp is None else np.array(
        [gate(t12, disp, cfg.omega_o, cfg.omega_e) for _ in offsets])
    if not np.any(gates):
        _sample_lattice(sample, cfg, quad, True).table(offsets)
        return np.zeros(offsets.shape[0])
    amps = sample_amplitudes(sample, offsets, cfg, quad, chunks=chunks)
    return gates * (amps.real * amps.real + amps.imag * amps.imag)


def amplitude(y, cfg: MicroscopeConfig, sample: SampleTransmittance,
              quad: QuadratureSpec | None = None) -> complex:
    """Coherent coincidence amplitude ``A(y)`` for any sample.

    ``y`` is the scan offset, either a scalar (displacement along x) or a
    2-vector [m].  The result is the raw, unnormalized integral; scanning
    code normalizes per scan.  A point sample sums the kernel at its
    points (a ``Delta`` gives ``K(-y)``); everything else goes through
    panel quadrature with an internal node-doubling check.
    """
    return complex(sample_amplitudes(sample, _one_offset(y), cfg, quad)[0])


def coincidence_rate(y, cfg: MicroscopeConfig, sample: SampleTransmittance,
                     quad: QuadratureSpec | None = None,
                     t12: float | None = None,
                     disp: DispersionModel | None = None) -> float:
    """``twin_rates`` at the one scan offset ``y``, a scalar or a 2-vector
    [m], which is checked before the gate.  A point sample's rate is
    ``|K(-y)|^2``, the twin-photon response."""
    return float(twin_rates(sample, _one_offset(y), cfg, quad, t12, disp)[0])
