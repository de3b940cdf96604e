"""Coincidence amplitude of the twin-photon microscope over structured samples.

The detected coincidence rate for a thin sample ``t`` scanned by an offset
``y`` is ``gate * |A(y)|^2`` with the coherent amplitude

    A(y) = integral d^2 u  t(u) * K(u - y),

``K`` the complex coincidence kernel (``psf.kernel_field``; its formula
and derivation are in the ``psf`` module docstring).  Both down-converted
photons traverse the sample at the same transverse point, so distinct
sample points add coherently in ``A`` before squaring.

The gate factor models the coincidence electronics: it is 1 only when the
signal/idler arrival-time offset falls inside the group-delay window
``D * L`` opened by the crystal dispersion, and 0 otherwise.

The instrument is decided here, once per scan.  ``scan_rates`` is the
one entry of every scan: it gates and squares the twin amplitude and
returns a classical image as it is.  It and ``sample_amplitudes`` take
an ``Instrument`` (``psf``), from which ``_admit`` alone picks the
kernel, its coherence and a grating's transfer values: the twin kernel
``K``, integrated coherently against ``t``, or a classical intensity
response (``psf._instrument_psf``), integrated incoherently against
``|t|^2``.  ``sample_amplitudes`` evaluates the integral for any sample
at any number of offsets, and decides what the threads split (``Chunks``
splits it); every amplitude, rate and image goes through it.

A grating, periodic in x and constant in y, is a sum over its
diffraction orders, one transfer value of the instrument per order
(``grating_orders``, ``grating_sum``); one bound on the twin kernel's
pump envelope decides both the orders kept and the radius its transform
is cut at.  Every other sample lowers to
weighted cells of one square lattice (``_sample_lattice``).  Point
samples (``Delta``, ``TwoPoint``) lower to zero-size unit cells ``p_k``:
``A(y) = sum_k K(p_k - y)`` (``point_sum``, which evaluates the kernel
once per point over all offsets).

Integration: the integrand is smooth on the transmitting region of every
schematic sample shipped here.  A slit is one panel cell of pitch
``width``, a raster its pixels; every panel is a square one pitch wide,
with ``n`` nodes a side.  A cell's Gauss-Legendre integral depends only
on the sorted pair ``(|dx|, |dy|)`` of the cell from the offset, as the
kernels are radial and the nodes symmetric.  Its key is the integer
cell difference, exact in lattice units, minus the offset's residual:
``offset / pitch`` rounded to a multiple of ``2**-44``, less its
integer shift.  The offsets of one
residual class share a dense box of keys, and ``_lattice_table`` folds
the boxes to one row per distinct key, so each pass integrates every
displacement once.  After the first pass each offset drops from its
finer passes the lit cells whose first-pass values provably lie close
enough to the truth: a twin panel whose nearest point lies ``d`` from the
offset integrates to at most ``area * exp(-2 Re(eta0_inv_sq) d^2)``, so a
cell's first-pass term lies within its slack, ``2 |w|`` times that, of
the truth.  A cell drops when ``m`` times its slack is within the
offset's limit, 1e-3 of the smallest error node doubling accepts, ``m``
being the number of the offset's cells whose slack alone is within it;
so the dropped slacks sum to at most the limit (``integrate_sample``).
What stays exact: a value depends on its key alone, and an offset's sum,
one ``np.dot`` over its lit cells in pixel order, and each cell's drop,
on the offset's own cells and mass alone, so a scan is bit-identical for
any number of threads or split of the rows and equal bit for bit to
one-offset ``amplitude`` calls; the convergence rule and the
``QuadratureError`` (first failing offset, in the order given) are the
same as for one offset at a time.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .errors import (
    ConfigError, QuadratureError, check_integers, check_positive, check_real, check_size)
from .optics import SPEED_OF_LIGHT, MicroscopeConfig
from .psf import Instrument, _instrument_psf, _pump_rate, _twin_alphas, kernel_field
from .specfun import Workspace, _workspace, bessel_j0

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

# Node doublings above the requested counts n, so the largest pass takes
# 4 n nodes per side (the ladder of passes: ``_ladder``).
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
# 192 MiB of kernel arrays, like the largest scan; the default square panel
# needs 192 x 192 = 36 864.  Peak memory per point is the tracemalloc peak
# of one 512 x 512 panel of the twin kernel.
_MAX_PANEL_POINTS = 1 << 21
_BYTES_PER_KERNEL_POINT = 96

# Most diffraction orders m >= 0 a grating may keep (``grating_orders``),
# and the bytes each holds outside the blocks of ``_KERNEL_POINT_BUDGET``
# points: its frequency, weight and transfer values on the ladder.  The
# twin kernel at w0 = 8 mm keeps 40 orders of a 2 um grating and the
# widefield response 6; 65 536 is a period of about 3.3 mm for that twin
# kernel and 23 mm for the widefield response.
_MAX_ORDERS = 1 << 16
_BYTES_PER_ORDER = 64

# Twin orders stop where the Gaussian bound on those beyond falls below
# this share of the kernel's scale ``2 pi / |c|`` (``grating_orders``).
_ORDER_TAIL = 2.0 ** -56

# Largest ``q r`` at which a grating's twin transform evaluates
# ``bessel_j0``; the special-function tests cover [0, _MAX_BESSEL_ARG].
_MAX_BESSEL_ARG = 1e5

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
        check_real(self.duty, "grating duty cycle")
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
        try:
            grid = np.asarray(self.grid, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"raster grid must be an array of numbers: {exc}") from None
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
    supply the index functions (e.g. Sellmeier fits).  They must be pure:
    a model evaluates its ``delay_window`` once per carrier pair and keeps
    it.
    """

    n_o: Callable[[float], float]
    n_e: Callable[[float, float], float]
    psi: float
    theta_e: float = 0.0
    L: float = 1e-3

    def __post_init__(self) -> None:
        if not callable(self.n_o) or not callable(self.n_e):
            raise ConfigError("n_o and n_e must be callables")
        check_real(self.psi, "phase-matching angle psi")
        check_real(self.theta_e, "emission angle theta_e")
        if not (0.0 < self.psi < 0.5 * math.pi):
            raise ConfigError("phase-matching angle psi must lie in (0, pi/2)")
        check_positive(self.L, "crystal length")
        object.__setattr__(self, "_windows", {})  # (omega_o, omega_e) -> delay_window

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
    ``t12`` must be given, as a real number: a dispersion model without
    it is a ConfigError.
    """
    if t12 is None:
        raise ConfigError("t12 is required when a dispersion model is supplied")
    if not isinstance(t12, float):  # a float skips the slower check, once per offset
        check_real(t12, "arrival-time offset t12")
    if not math.isfinite(t12):
        raise ConfigError("arrival-time offset t12 must be finite")
    return 1.0 if 0.0 < t12 < delay_window(disp, omega_o, omega_e) else 0.0


def _check_timing(t12: float | None, disp: DispersionModel | None) -> None:
    """Refuse an arrival-time offset ``t12`` that is not a real number, or
    is given without a dispersion model: without one there is no gate for
    it to open or close."""
    if t12 is not None:
        check_real(t12, "arrival-time offset t12")
        if disp is None:
            raise ConfigError("t12 needs a dispersion model (disp); without one there is no gate")


def delay_window(disp: DispersionModel, omega_o: float, omega_e: float) -> float:
    """Width ``D * L`` [s] of the coincidence gate; <= 0 means it never opens.

    The indices must be physical (>= 1) at the carriers.  The model keeps
    the window of each carrier pair once its checks pass, so its index
    functions are evaluated once per pair (threads racing on the first
    call each store the same window); a check that fails keeps nothing
    and fails again on the next call.
    """
    window = disp._windows.get((omega_o, omega_e))
    if window is None:
        if _index_value(disp.n_o, "n_o", omega_o) < 1.0:
            raise ConfigError("n_o must be >= 1 at the ordinary carrier")
        if _index_value(disp.n_along, "n_e", omega_e) < 1.0:
            raise ConfigError("n_e must be >= 1 at the extraordinary carrier")
        mismatch = (inv_group_velocity(disp.n_o, omega_o)
                    - inv_group_velocity(disp.n_along, omega_e))
        window = disp._windows[omega_o, omega_e] = mismatch * disp.L
    return window


# ============================================================================
# quadrature
# ============================================================================

@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and domain controls for the amplitude integral.

    ``radial_nodes`` Gauss-Legendre nodes resolve each compact support
    dimension (slit side, pixel side), each side of the confocal
    transfer's fan and each radial panel of the twin transfer of a
    grating (``grating_orders``).  ``truncation_radius`` is the radius
    ``R`` of that twin transfer with a Gaussian pump (None: the radius
    whose envelope tail ``grating_orders`` bounds like its order cutoff);
    nothing else is truncated.  ``angular_nodes`` governs nothing since
    gratings became sums over their diffraction orders; config files
    still set it, so it is still read and checked as an integer of at
    least 8.

    The counts are the requested ones of node doubling; the ladder of
    passes, which the panel integrals and the grating transfers climb
    alike, is described at ``integrate_sample``.  No pass exceeds four
    times the counts.  The point cap bounds the square panel of the last
    pass, ``16 radial_nodes^2`` kernel points.
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
        # the largest panel, at the last doubling
        points = ((2 ** _DOUBLING_CHECKS) * self.radial_nodes) ** 2
        check_size(points, _MAX_PANEL_POINTS,
                   f"quadrature of {points} kernel points per panel at the last node doubling",
                   _BYTES_PER_KERNEL_POINT, "evaluating one panel")
        if self.truncation_radius is not None:
            check_positive(self.truncation_radius, "truncation radius")
        check_real(self.target_rel_tol, "target relative tolerance")
        # Node doubling accepts a discrepancy of 10 * target_rel_tol of the
        # result scale; at 1 or more it would accept any result.
        if not (0.0 < 10.0 * self.target_rel_tol < 1.0):
            raise ConfigError("target relative tolerance must lie in (0, 0.1)")


@lru_cache(maxsize=64)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


@dataclass(frozen=True)
class _Lattice:
    """Weighted cells ``pitch`` [m] apart (see ``_sample_lattice``), each a
    square panel of half-width ``half`` [m] with ``n`` nodes a side, or a
    point (no size, 0 nodes).  The kernel they are integrated against obeys
    ``|kern(v)| <= exp(-decay |v|^2)``."""

    coherent: bool
    pitch: float
    x0: float
    y0: float
    weight: np.ndarray
    half: float = 0.0
    n: int = 0
    target_rel_tol: float = 0.0
    decay: float = 0.0

    def table(self, offsets: np.ndarray):
        """Admit a scan of this lattice at ``offsets``: the one step, after
        lowering, that refuses a sample and its offsets, before any kernel
        call.  A cell edge beyond ``_MAX_REACH`` of the axis is refused;
        for panel cells ``_lattice_table`` then refuses offsets whose
        lattice coordinates overflow and too many table cells, and the scan
        table it builds is returned.  Point cells have no table: None."""
        rows, cols = self.weight.shape
        far = max(abs(self.x0), abs(self.x0 + cols - 1), abs(self.y0), abs(self.y0 + rows - 1))
        _check_reach(self.pitch * far + self.half, "sample reach from the axis")
        return _lattice_table(self, offsets) if self.n else None


def _in_blocks(func, items: np.ndarray, points: int) -> np.ndarray:
    """``func`` over consecutive blocks of the rows of ``items``, each of
    at most ``_KERNEL_POINT_BUDGET`` points at ``points`` per row, and at
    least one row, with the results joined in order; no rows join to an
    empty array."""
    step = max(1, _KERNEL_POINT_BUDGET // points)
    return np.concatenate([np.zeros(0)] + [func(items[lo:lo + step])
                                           for lo in range(0, items.shape[0], step)])


def _panel_sum(points: np.ndarray, half: float, n: int, kern) -> np.ndarray:
    """Integral of ``kern(d + g)`` over the centred square panel ``|g_x|,
    |g_y| <= half`` with ``n`` nodes a side, at every displacement ``d``
    (rows of ``points``).

    One ``kern`` call covers a block of rows (``_in_blocks``).  A row's
    value does not depend on how the rows were grouped.  Each call starts
    with the thread's workspace cleared, as the previous call's values are
    summed.
    """
    base, w = _gl_nodes(n)
    g, w = half * base, half * w
    work = _workspace()

    def block(rows: np.ndarray) -> np.ndarray:
        work.clear()
        values = kern(rows[:, 0, None, None] + g[None, :, None],
                      rows[:, 1, None, None] + g[None, None, :])
        # one dot product per node row, so a row's sum does not depend on its
        # place in the call, as ``(values @ w) @ w`` would; ``values @ w``
        # would hand panels of 96^2 points to OpenBLAS's threaded matrix-vector
        # product, whose worker competes with the scan's threads
        return (np.dot(values, w) * w).sum(axis=1)

    return _in_blocks(block, points, n * n)


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
    """A point or panel sample as a grid of weighted cells, cell ``[i, j]``
    centred ``(x0 + j, y0 + i)`` pitches from the origin: unit points (no
    size, no nodes) for point samples, else the square panel ``|g_x|,
    |g_y| <= half`` [m], one pitch wide, with ``n`` nodes a side,
    integrated to ``target_rel_tol`` (``quad``, the default spec if
    None).  Raster pixels weigh ``t``, or ``|t|^2`` for incoherent
    integrals.  A grating has no
    cells: it is a sum over its diffraction orders (``grating_orders``)."""
    if isinstance(sample, Delta):
        return _Lattice(coherent, 1.0, 0.0, 0.0, np.ones((1, 1)))
    if isinstance(sample, TwoPoint):
        return _Lattice(coherent, sample.separation, -0.5, 0.0, np.ones((1, 2)))
    quad = quad or QuadratureSpec()
    n, tol = quad.radial_nodes, quad.target_rel_tol
    # both Airy factors of the twin kernel, and the classical responses, are
    # at most 1 in magnitude: only the twin pump envelope decays, as
    # exp(-|v|^2 Re(c) / 2)
    decay = 0.5 * _pump_rate(cfg).real if coherent and cfg.pump_gaussian else 0.0
    if isinstance(sample, Slit):
        return _Lattice(coherent, sample.width, 0.0, 0.0, np.ones((1, 1)), 0.5 * sample.width, n,
                        tol, decay)
    if isinstance(sample, Raster):
        rows, cols = sample.grid.shape
        return _Lattice(coherent, sample.pitch, -0.5 * (cols - 1), -0.5 * (rows - 1),
                        sample.grid if coherent else np.abs(sample.grid) ** 2,
                        0.5 * sample.pitch, n, tol, decay)
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
    largest = float(np.abs(offsets).max())
    if not largest / lattice.pitch * 2.0 ** _KEY_BITS < math.inf:
        raise ConfigError(f"sample pitch {lattice.pitch!r} m is too small for scan offsets "
                          f"up to {largest!r} m: their lattice coordinates overflow")
    coord = np.rint(offsets / lattice.pitch * 2.0 ** _KEY_BITS) * 2.0 ** -_KEY_BITS
    # the members of a residual class differ by exact integer shifts
    order = np.argsort((coord - np.floor(coord)).view(complex).ravel())
    coord = coord[order]
    first = np.append(0, 1 + np.flatnonzero(np.diff(
        (coord - np.floor(coord)).view(complex).ravel())))
    high = np.maximum.reduceat(coord, first)
    span = high + lattice.weight.shape[::-1] - np.minimum.reduceat(coord, first)
    # a class's box holds width x height cells; the bound on their sum is
    # taken in Python floats, which overflow to inf without a warning, and
    # numpy only sums products that cannot overflow
    widest, tallest = span.max(axis=0).tolist()
    _check_table_cells(np.prod(span, axis=1).sum() if widest * tallest * span.shape[0] < math.inf
                       else math.inf)

    box = span.astype(np.int64)  # each class's box width and height
    residual = high - np.floor(high)
    high -= residual  # each class's largest shift
    sizes = box[:, 0] * box[:, 1]
    start = np.cumsum(sizes) - sizes  # each class's first box cell
    # the lit cells of a box depend on its width alone
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
    distinct, cell_rows = np.unique(np.minimum(dx, dy) + 1j * np.maximum(dx, dy),
                                    return_inverse=True)

    def windows(members: np.ndarray):
        for shape in np.unique(lit_of[members]):
            lit, weight = lits[shape]
            alike = members[lit_of[members] == shape]
            for block in np.array_split(alike, -(-alike.size * lit.size // _KERNEL_POINT_BUDGET)):
                yield block, cell_rows[start_of[block, None] + lit], weight

    return np.column_stack([distinct.real, distinct.imag]) * lattice.pitch, windows


def _ladder(n: int, coherent: bool) -> list[int]:
    """Node counts of the passes of node doubling (``integrate_sample``):
    ``n`` doubled up to ``4 n`` (``_DOUBLING_CHECKS``), from ``n // 2`` on
    for an incoherent integral."""
    return [n // 2] * (not coherent) + [n << k for k in range(_DOUBLING_CHECKS + 1)]


def _node_doubling(evaluate, counts: list[int], coarse: np.ndarray, mass,
                   tol: float) -> np.ndarray:
    """Node doubling (``integrate_sample``) of the values ``coarse``, the
    first pass at ``counts[0]`` nodes, whose scale stays above 1% of
    ``mass`` (one per value, or one for all): ``evaluate(pending, n)``
    gives the values at the indices ``pending`` with ``n`` nodes, for each
    later count in turn.  The first index still moving at the last count
    raises the ``QuadratureError``."""
    result = np.empty_like(coarse)
    pending = np.arange(coarse.size)
    floor = np.broadcast_to(0.01 * mass, coarse.shape)
    for n in counts[1:]:
        fine = evaluate(pending, n)
        scale = np.maximum(np.maximum(np.abs(coarse), np.abs(fine)), floor)
        error = np.abs(fine - coarse)
        done = error <= 10.0 * tol * scale
        result[pending[done]] = fine[done]
        if np.all(done):
            return result
        pending, coarse, floor = pending[~done], fine[~done], floor[~done]
    first = np.argmin(done)  # the first value still moving
    raise QuadratureError("amplitude quadrature did not converge: node doubling moved the "
                          f"result by {error[first] / scale[first]:.3e} relative "
                          f"(target {tol:.1e}); raise the node counts")


def integrate_sample(lattice: _Lattice, offsets: np.ndarray, table, kern,
                     chunks: Chunks) -> np.ndarray:
    """Integral of ``t(u) * kern(u - y)`` over the panel cells of
    ``lattice`` at every scan offset ``y`` (rows of ``offsets``).

    ``table`` is the scan's table, built and admitted by
    ``lattice.table(offsets)``; nothing is refused here but a
    ``QuadratureError``.  Each pass integrates one lattice cell at every
    distinct displacement the offsets read, split between the threads of
    ``chunks``, each chunk in its own workspace.

    Convergence is judged per offset, on a ladder of node counts
    (``_ladder``), by the one loop of node doubling in the package
    (``_node_doubling``), which also judges the transfer values of a
    grating's orders (``grating_orders``).  A coherent (twin) integral is
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
    |v|^2)`` (``_Lattice.decay``: ``2 Re(eta0_inv_sq)``, the decay of the
    twin kernel's pump envelope (``_pump_rate``), as its Airy factors are
    at most 1; 0 for a flat pump and the classical responses), so a panel
    whose nearest point lies ``d`` from the offset integrates, at any node
    count, to at most ``b = area * exp(-decay d^2)``, and a cell's
    first-pass term lies within its slack ``2 |w| b`` of its true one.
    After the first pass (and the twin mass pass) each offset has a limit,
    1e-3 of the smallest error node doubling accepts for it (``10 *
    target_rel_tol`` of 1% of its mass), and ``m`` cells whose slack is at
    most the limit (``m`` 1 if none).  A cell drops when ``m`` times its
    slack is at most the limit: the dropped cells are among those ``m``, so
    their slacks sum to at most the limit.  A dropped cell adds its
    first-pass value to every later sum, and each pass integrates only the
    rows its offsets' kept cells read.  A drop reads only the offset's own
    cells and mass, so it keeps the scan bit-identical across threads and
    to one-offset calls.  With ``decay`` 0 every bound is the cell's area,
    which no cell of weight near 1 meets, and when no cell of the scan can
    meet the limit (one comparison) no drop is computed.

    What the drop costs the accuracy contract: a dropped cell keeps its
    first-pass value in every later pass, so it cancels from ``fine -
    coarse``.  The accepted result therefore lies within the offset's
    limit of the result the same passes give without drops, and a
    convergence decision can differ from theirs only where the error
    without drops lies within that limit of the threshold it is held to.
    The limit is 1e-3 of the smallest error node doubling accepts.
    """
    points, windows = table
    if not np.any(lattice.weight):
        return np.zeros(offsets.shape[0], dtype=complex)
    # no node count takes a row's panel integral beyond its area times the
    # kernel's envelope at the panel point nearest the offset
    half = lattice.half
    gap = np.maximum(points - half, 0.0)
    bound = 4.0 * half * half * np.exp(-lattice.decay * (gap * gap).sum(axis=1))
    limit = None  # per offset, the error its dropped cells may sum to, once decided

    def cells(members: np.ndarray):
        """``windows(members)``, with each lit cell's drop flag (None: none)."""
        for block, rows, weight in windows(members):
            drop = None
            if limit is not None:
                # how far each first-pass term may lie from the truth, and how
                # many of the offset's cells could drop: each drops within its
                # share of the limit
                slack = 2.0 * np.abs(weight) * bound[rows]
                share = np.maximum(np.count_nonzero(slack <= limit[block, None], axis=1), 1)
                drop = slack * share[:, None] <= limit[block, None]
            yield block, rows, weight, drop

    def sums(kernel, n: int, members: np.ndarray, weigh=lambda w: w):
        """Each offset of ``members`` summed over its lit cells, integrating
        the rows its kept cells read, and the table of row values; a
        dropped cell adds its first-pass value."""
        def integrate(chunk: np.ndarray, work: Workspace) -> np.ndarray:
            with work.use():
                return _panel_sum(chunk, half, n, kernel)

        read = np.zeros(points.shape[0], dtype=bool)
        for _, rows, _, drop in cells(members):
            read[rows if drop is None else rows[~drop]] = True
        integrals = chunks(integrate, points[read], n * n)
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

    ladder = _ladder(lattice.n, lattice.coherent)
    every = np.arange(offsets.shape[0])
    coarse, first = sums(kern, ladder[0], every)  # and every row's first-pass value
    mass = sums(magnitude, ladder[0], every, np.abs)[0].real if lattice.coherent else coarse.real
    limit = 1e-3 * (10.0 * lattice.target_rel_tol) * (0.01 * mass)
    if 2.0 * np.abs(lattice.weight[lattice.weight != 0]).min() * bound.min() > limit.max():
        limit = None  # no cell can drop
    return _node_doubling(lambda pending, n: sums(kern, n, pending)[0], ladder, coarse, mass,
                          lattice.target_rel_tol)


# ============================================================================
# gratings
# ============================================================================

def _lens_transfer(q: np.ndarray, alpha_1: float, alpha_2: float) -> np.ndarray:
    """Transform ``integral airy_amp(alpha_1 |v|) airy_amp(alpha_2 |v|)
    exp(i q . v) d^2 v`` at the frequencies ``|q|`` [1/m].

    ``airy_amp(alpha r)`` is the transform of the disc of radius ``alpha``
    over ``pi alpha^2``, so the product transforms to ``4 / (alpha_1^2
    alpha_2^2)`` times the area the two discs share when their centres lie
    ``|q|`` apart: ``pi min(alpha)^2`` up to ``|alpha_1 - alpha_2|``, 0 from
    ``alpha_1 + alpha_2`` on.  With equal radii ``beta`` it is the disc
    OTF, ``(4 pi / beta^2) (2/pi) (acos s - s sqrt(1 - s^2))``,
    ``s = |q| / (2 beta)``."""
    q = np.abs(q)
    area = np.where(q <= abs(alpha_1 - alpha_2), math.pi * min(alpha_1, alpha_2) ** 2, 0.0)
    part = (q > abs(alpha_1 - alpha_2)) & (q < alpha_1 + alpha_2)
    d = q[part]
    # four times the area of the triangle of the centres and a crossing
    # point; each half-angle at a centre from its sine and cosine, which
    # stays accurate where the discs touch
    kite = np.sqrt((alpha_1 + alpha_2 - d) * (d + alpha_1 - alpha_2) * (d - alpha_1 + alpha_2)
                   * (d + alpha_1 + alpha_2))
    area[part] = (alpha_1 ** 2 * np.arctan2(kite, d * d + alpha_1 ** 2 - alpha_2 ** 2)
                  + alpha_2 ** 2 * np.arctan2(kite, d * d + alpha_2 ** 2 - alpha_1 ** 2)
                  - 0.5 * kite)
    return area * (4.0 / (alpha_1 * alpha_2) ** 2)


def _disc_otf(s: np.ndarray) -> np.ndarray:
    """``(2/pi) (acos s - s sqrt(1 - s^2))`` for ``0 <= s <= 1``, 0 beyond."""
    s = np.minimum(s, 1.0)
    return (2.0 / math.pi) * (np.arccos(s) - s * np.sqrt(1.0 - s * s))


def _smooth_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` Gauss-Legendre nodes and weights on [0, 1] through the map
    ``t -> t^2 (3 - 2 t)``, whose derivative vanishes at both ends: a
    ``(1 - x)^(3/2)`` or ``sqrt(x)`` endpoint becomes a smooth one."""
    base, weight = _gl_nodes(n)
    t = 0.5 * (base + 1.0)
    return t * t * (3.0 - 2.0 * t), 3.0 * weight * t * (1.0 - t)


def _otf_autocorrelation(s: np.ndarray, n: int) -> np.ndarray:
    """``C(s) = integral O(|k|) O(|s - k|) d^2 k`` of the disc OTF ``O``
    (``_disc_otf``) at every ``s`` (``0 <= s < 2``), ``n`` nodes a side.

    The integrand is a cone at 0 and at ``s``, and falls to 0 as
    ``(1 - r)^(3/2)`` on the two unit circles.  The line ``k_x = s / 2``
    splits the lens where both are positive into mirror halves; the half
    about 0 is integrated, above the axis, as a fan ``p + lam (b - p)``
    from ``p`` (0 while 0 lies in the lens, the lens centre ``s / 2``
    beyond) over its boundary ``b``: the split line up to the corner
    ``(s / 2, sqrt(1 - s^2 / 4))`` and the unit arc about ``s`` from the
    corner on, ``k = (s + cos psi, sin psi)``.  The cone at 0 then lies at
    ``lam = 0`` and the edge at ``lam = 1``; every variable takes the
    nodes of ``_smooth_nodes``.  An area element of the fan is ``lam``
    times the boundary's cross product with ``b - p``."""
    t, w = _smooth_nodes(n)

    def fan(s, apex, bx, by, cross):
        kx = apex[:, :, None] + t * (bx - apex)[:, :, None]
        ky = t * by[:, :, None]
        values = _disc_otf(np.hypot(kx, ky)) * _disc_otf(np.hypot(s[:, :, None] - kx, ky))
        return (values * (cross * w)[:, :, None] * (w * t)).sum(axis=(1, 2))

    s = s[:, None]
    apex = np.where(s <= 1.0, 0.0, 0.5 * s)
    corner = np.arccos(-0.5 * s)
    psi = corner + (math.pi - corner) * t
    total = fan(s, apex, s + np.cos(psi), np.sin(psi),
                (math.pi - corner) * (1.0 + (s - apex) * np.cos(psi)))
    inside = s[:, 0] <= 1.0  # beyond, the split line runs through the apex
    s = s[inside]
    height = np.sqrt(1.0 - 0.25 * s * s)
    total[inside] += fan(s, np.zeros_like(s), np.broadcast_to(0.5 * s, (s.size, n)), height * t,
                         np.broadcast_to(0.5 * s * height, (s.size, n)))
    return 4.0 * total


# The power of ``airy_amp`` in each classical response (``psf``), which
# sets its grating transfer values (``grating_orders``).
_AIRY_POWER = {Instrument.WIDEFIELD: 2, Instrument.CONFOCAL: 4}


@dataclass(frozen=True)
class _Orders:
    """A grating's diffraction orders ``m >= 0`` (``grating_orders``):
    their frequencies ``2 pi m / period`` [1/m], their weights ``c_0`` and
    ``2 c_m`` with ``c_m = duty sinc(m duty)``, and ``transfer(freq)``,
    the instrument's transfer value at each."""

    freq: np.ndarray
    weight: np.ndarray
    transfer: Callable[[np.ndarray], np.ndarray]


def grating_orders(sample: Grating, cfg: MicroscopeConfig, quad: QuadratureSpec | None,
                   instrument: Instrument) -> _Orders:
    """The diffraction orders of ``sample`` that ``instrument`` passes, and
    its transfer value at each (see ``grating_sum``).  The orders are
    counted and refused beyond ``_MAX_ORDERS`` before any is evaluated.

    The twin instrument's kernel is ``K`` (``kernel_field``); the
    widefield and confocal responses are ``airy_amp(beta r)^p``, ``beta =
    2 pi a / (lambda_o f)``, with ``p`` 2 and 4 (``_AIRY_POWER``).
    * Widefield: the disc OTF (``_lens_transfer``), 0 from ``2 beta`` on.
    * Confocal: the OTF's autocorrelation, ``(16 / beta^2) C(q / (2
      beta))`` (``_otf_autocorrelation``), 0 from ``4 beta`` on, on the
      incoherent ladder of ``integrate_sample`` (``n // 2`` to ``4 n``
      nodes a side); its mass is its value at 0, as the response is
      non-negative.
    * Twin, flat pump: the two Airy factors' ``_lens_transfer``, 0 from
      ``S = alpha_o + alpha_e`` on.
    * Twin, Gaussian pump: ``Khat(q) = 2 pi integral_0^R K(r) J0(q r) r
      dr`` with ``R`` the truncation radius, in equal panels of ``n``
      Gauss-Legendre nodes that each span a phase ``(q_max + S) r`` of at
      most ``n``, on the coherent ladder (``n`` to ``4 n``), with the mass
      ``2 pi integral |K| r dr``.  ``K`` is the pump Gaussian
      ``exp(-|v|^2 c / 2)`` times the Airy factors, whose transform lies
      in the disc ``|q| <= S`` and integrates to ``4 pi^2``, so ``|Khat(q)|
      <= (2 pi / |c|) exp(-rho (q - S)^2 / 2)``, ``rho = Re(1/c)``, beyond
      ``S``.  Orders stop at ``q_max = S + sqrt(2 ln(1/eps) / rho)``,
      ``eps = _ORDER_TAIL``: with ``|c_m| <= 1 / (pi m)`` and the Mills
      bound on the Gaussian sum, the orders beyond add at most ``(4 / pi)
      eps`` of ``2 pi / |c|``.  The same envelope ``|K(v)| <= exp(-Re(c)
      |v|^2 / 2)`` sets ``R``: beyond it ``|K|`` integrates to at most
      ``(2 pi / Re(c)) exp(-Re(c) R^2 / 2)``, so ``R = sqrt(2 ln(|c| /
      (Re(c) eps)) / Re(c))`` (about 4.4 ``r0``) leaves at most ``eps``
      of ``2 pi / |c|``; a set ``quad.truncation_radius`` overrides it.
      ``q_max R`` is refused beyond ``_MAX_BESSEL_ARG``, the range over
      which ``bessel_j0`` is tested.
    """
    quad = quad or QuadratureSpec()
    n, tol = quad.radial_nodes, quad.target_rel_tol

    def converged(evaluate, coherent: bool) -> Callable[[np.ndarray], np.ndarray]:
        """``transfer(freq)`` from ``evaluate(freq, nodes) -> (values,
        mass)`` by node doubling (``_node_doubling``), frequency by
        frequency."""
        counts = _ladder(n, coherent)

        def transfer(freq: np.ndarray) -> np.ndarray:
            coarse, mass = evaluate(freq, counts[0])
            return _node_doubling(lambda pending, nodes: evaluate(freq[pending], nodes)[0],
                                  counts, coarse, mass, tol)
        return transfer

    airy_power = _AIRY_POWER.get(instrument)
    if airy_power is not None:
        beta = 2.0 * math.pi * cfg.a / (cfg.lambda_o * cfg.f)
        cut = beta * airy_power
    else:
        alpha_o, alpha_e = _twin_alphas(cfg)
        cut = alpha_o + alpha_e
        if cfg.pump_gaussian:
            c = _pump_rate(cfg)
            cut += math.sqrt(2.0 * math.log(1.0 / _ORDER_TAIL) * abs(c) ** 2 / c.real)
            radius = quad.truncation_radius or math.sqrt(
                2.0 * math.log(abs(c) / (c.real * _ORDER_TAIL)) / c.real)
            if not cut * radius <= _MAX_BESSEL_ARG:
                raise ConfigError(
                    f"grating transform would evaluate J0 at {cut * radius:.3g}, beyond "
                    f"{_MAX_BESSEL_ARG:g}; lower quadrature.truncation_radius")
    # orders m >= 0 with 2 pi m / period < cut: the rest transfer nothing
    count = math.ceil(cut * sample.period / (2.0 * math.pi)) if \
        cut * sample.period < math.inf else math.inf
    check_size(count, _MAX_ORDERS, f"grating of {count:.4g} diffraction orders",
               _BYTES_PER_ORDER, "evaluating them")
    m = np.arange(count)
    weight = sample.duty * np.sinc(m * sample.duty)
    weight[1:] *= 2.0
    freq = (2.0 * math.pi / sample.period) * m
    if airy_power == 2:
        return _Orders(freq, weight, lambda q: _lens_transfer(q, beta, beta))
    if airy_power == 4:
        def autocorrelation(q: np.ndarray, nodes: int):
            values = _in_blocks(lambda block: _otf_autocorrelation(block / (2.0 * beta), nodes),
                                q, 2 * nodes * nodes) * (16.0 / beta ** 2)
            return values, values[0]
        return _Orders(freq, weight, converged(autocorrelation, False))
    if not cfg.pump_gaussian:
        return _Orders(freq, weight, lambda q: _lens_transfer(q, alpha_o, alpha_e))
    panels = math.ceil((cut + alpha_o + alpha_e) * radius / n)

    def hankel(q: np.ndarray, nodes: int):
        base, w = _gl_nodes(nodes)
        half = 0.5 * radius / panels
        r = ((2 * np.arange(panels) + 1)[:, None] * half + half * base).ravel()
        weight_r = (2.0 * math.pi * half) * np.tile(w, panels) * r
        kernel = kernel_field(r, 0.0, cfg) * weight_r
        def transform(block: np.ndarray) -> np.ndarray:
            return (bessel_j0(np.multiply.outer(block, r)) * kernel).sum(axis=1)
        return _in_blocks(transform, q, r.size), np.abs(kernel).sum()

    return _Orders(freq, weight, converged(hankel, True))


def grating_sum(orders: _Orders, offsets: np.ndarray) -> np.ndarray:
    """``sum_m w_m T_m cos(g_m y_x)`` over the orders of ``grating_orders``
    at every scan offset ``y`` (rows of ``offsets``).

    A grating is periodic in x and constant in y, ``t(u) = sum_m c_m
    exp(i g_m u_x)``, so ``integral t(u) kern(u - y) d^2 u`` is ``sum_m
    c_m T(|g_m|) exp(i g_m y_x)``, ``T`` the transform of the radial
    kernel (Goodman, *Introduction to Fourier Optics*, ch. 6); the orders
    ``+-m`` pair to the cosine.  Everything runs on the calling thread:
    the transfer values once, then the offsets in blocks; each offset's
    sum over the orders is one reduction of its own row, so it does not
    depend on the blocks."""
    coefficient = orders.weight * orders.transfer(orders.freq)

    def assemble(block: np.ndarray) -> np.ndarray:
        phase = np.multiply.outer(block[:, 0], orders.freq)
        return (np.cos(phase) * coefficient).sum(axis=1, dtype=complex)

    return _in_blocks(assemble, offsets, orders.freq.size)


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
                      instrument: Instrument = Instrument.TWIN_PHOTON,
                      chunks: Chunks | None = None) -> np.ndarray:
    """Integral of ``t(u) * kern(u - y)`` at every scan offset ``y`` (rows
    of ``offsets``), with the kernel and the coherence of ``instrument``
    (``_admit``).

    The twin-photon instrument integrates its kernel ``K``
    (``kernel_field``) coherently, against ``t``: the result is the
    amplitude ``A(y)``.  A classical instrument integrates its intensity
    response (``psf._instrument_psf``), evaluated at the radius ``|u -
    y|``, incoherently, against ``|t|^2``: the result is the image.
    ``chunks`` splits the work between threads (``Chunks``; one thread if
    None).  The sample is lowered and admitted (``_admit``) before any
    kernel call.
    """
    return _admit(sample, offsets, cfg, quad, instrument)(chunks or Chunks())


def _admit(sample: SampleTransmittance, offsets: np.ndarray, cfg: MicroscopeConfig,
           quad: QuadratureSpec | None, instrument: Instrument):
    """Lower ``sample`` and refuse it, with its offsets, before any kernel
    call; return ``run(chunks)``, which evaluates the scan.  The one place
    the instrument picks its kernel: the twin kernel ``K``, coherent, or
    the classical intensity response, incoherent, read from ``psf`` here,
    when the scan runs.  A grating hands its orders to ``grating_sum``,
    point cells their offsets to ``chunks.map`` (``point_sum``) and panel
    cells their table rows to ``chunks`` (``integrate_sample``)."""
    if isinstance(sample, Grating):
        orders = grating_orders(sample, cfg, quad, instrument)
        return lambda chunks: grating_sum(orders, offsets)

    coherent = instrument is Instrument.TWIN_PHOTON
    response = _instrument_psf(instrument)

    def kern(vx, vy):
        if coherent:
            return kernel_field(vx, vy, cfg)
        radius = np.add(vx * vx, vy * vy, out=_workspace().out(vx, vy))
        return response(np.sqrt(radius, out=radius), cfg, out=radius)

    lattice = _sample_lattice(sample, cfg, quad, coherent)
    table = lattice.table(offsets)
    if table is None:  # point cells have no nodes
        return lambda chunks: chunks.map(lambda chunk: point_sum(lattice, chunk, kern), offsets)
    return lambda chunks: integrate_sample(lattice, offsets, table, kern, chunks)


def scan_rates(sample: SampleTransmittance, offsets: np.ndarray, cfg: MicroscopeConfig,
               quad: QuadratureSpec | None, instrument: Instrument, t12: float | None = None,
               disp: DispersionModel | None = None, chunks: Chunks | None = None) -> np.ndarray:
    """Unnormalized rates of ``instrument`` at every scan offset ``y``
    (rows of ``offsets``): the one entry of every scan.

    A ``t12`` that is not a real number, or without a dispersion model, is
    refused for every instrument (``_check_timing``).  The twin-photon
    rate is the coincidence rate ``gate * |A(y)|^2``; without a dispersion
    model the gate is 1.  A closed gate returns zeros without any kernel
    call, but only after the sample is lowered and admitted with its
    offsets (``_admit``), so it refuses exactly what an open gate refuses.
    A classical instrument has no pair timing: its rate is its image,
    ``|image|``, ungated."""
    _check_timing(t12, disp)
    if instrument is not Instrument.TWIN_PHOTON:
        return np.abs(sample_amplitudes(sample, offsets, cfg, quad, instrument, chunks))
    # The gate is the same at every offset but is called per offset, as
    # the benchmark's traced self-check counts these calls.  The carriers
    # are read once, and the model keeps its window (``delay_window``), so
    # each call after the first only checks t12 and compares.
    gates = 1.0
    if disp is not None:
        omega_o, omega_e = cfg.omega_o, cfg.omega_e
        gates = np.array([gate(t12, disp, omega_o, omega_e) for _ in offsets])
    run = _admit(sample, offsets, cfg, quad, instrument)
    if not np.any(gates):
        return np.zeros(offsets.shape[0])
    amps = run(chunks or Chunks())
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
    """The twin-photon ``scan_rates`` at the one scan offset ``y``, a
    scalar or a 2-vector [m], which is checked before the gate.  A point
    sample's rate is ``|K(-y)|^2``, the twin-photon response."""
    return float(scan_rates(sample, _one_offset(y), cfg, quad, Instrument.TWIN_PHOTON, t12,
                            disp)[0])
