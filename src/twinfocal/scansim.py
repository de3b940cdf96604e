"""Scan simulation: trace samples past each instrument and score resolution.

A scan plan moves the sample relative to the optical axis along a line or
over a grid and records the detected rate at each offset.  The twin-photon
instrument squares the coherent coincidence amplitude (both photons cross
the sample at one point, so sample points interfere); the classical
widefield and confocal instruments image incoherently, integrating
``|t|^2`` against their intensity responses.  Images are peak-normalized,
with the raw peak kept for reference.

The instrument is decided in ``coincidence``, not here: every scan makes
one call, ``coincidence.scan_rates``, for every instrument, which picks
the instrument's kernel and coherence (``coincidence._admit``), gates
and squares a twin amplitude, and evaluates each through
``coincidence.sample_amplitudes``.  A grating is a sum over its
diffraction orders, one transfer value of the instrument per order
(``coincidence.grating_orders``); every other sample lowers to weighted
cells of one lattice.  Point samples (``Delta``, ``TwoPoint``) lower to
zero-size cells, evaluated as arrays with one kernel call per point over
a chunk of offsets: the twin rate is ``|sum_k K(p_k - y)|^2``, the
classical image ``sum_k PSF(|p_k - y|)``.  Extended samples lower to
panel cells, integrated for all offsets at once
(``coincidence.integrate_sample``): each quadrature pass integrates one
panel at every distinct canonical displacement of the scan, in kernel
calls of a bounded number of points.  Node doubling is judged per
offset, on the ladder of node counts described at
``coincidence.integrate_sample``.  Scans are limited to 2**20 offsets;
larger plans are rejected with a ``ConfigError`` when the ``Line`` or
``Grid`` is built, and so are half ranges beyond 1 m, before any
arithmetic on them.  A sample whose cells reach beyond 1 m from the
axis, a pitch too small for the offsets, a scan table of too many
cells and a grating of too many orders are refused the same way before
any kernel call (``coincidence._admit``).  A twin scan whose gate is closed does
no kernel work, but lowers and admits its sample all the same, so it
refuses exactly what an open gate refuses.

Parallelism: a scan runs on the threads that the TWINFOCAL_THREADS
environment variable asks for (unset or empty means 1; 0 means one per
CPU), at most one per CPU, and one ``coincidence.Chunks`` splits its
work (see there).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    ConfigError, NumericalError, ScanRangeError, check_integers, check_positive, check_real,
    check_size)
from .optics import MicroscopeConfig
from .psf import Instrument, _bisect, _instrument_psf, response_fwhm
from .coincidence import (
    Chunks,
    DispersionModel,
    QuadratureSpec,
    SampleTransmittance,
    TwoPoint,
    _check_reach,
    scan_rates,
)

__all__ = [
    "Line",
    "Grid",
    "ScanPlan",
    "ScanImage",
    "scan",
    "dip_contrast",
    "min_resolvable_separation",
]


# Scan size limit, about 1000 times the 33x33 grid of the CLI defaults, and
# the peak memory per offset of a scan.  A point-sample scan, whose kernel
# arrays span a whole chunk, peaked at 176 B (tracemalloc, line and grid
# scans of 2e5 offsets, every instrument, one point and two).  An extended
# scan needs more: off the lattice each offset is a residual class of its
# own, with its own table cells.  A slit, one cell per offset, peaked at
# 305 B per offset (tracemalloc, whole scans of off-lattice lines and grids:
# twin and confocal at 2**16 and 2**18 offsets, twin at 2**20, the kernel
# replaced by a constant), 285 to 289 B of it building the table, which
# takes 1.2 s at 2**20 offsets.  Each further cell of an offset costs up to
# ``coincidence._BYTES_PER_TABLE_CELL``.
_MAX_OFFSETS = 1 << 20
_BYTES_PER_OFFSET = 320


def _check_scan_size(count: int) -> None:
    check_size(count, _MAX_OFFSETS, f"scan of {count} offsets", _BYTES_PER_OFFSET)


def _check_half_range(value: float, subject: str) -> None:
    """Refuse a half range that is not positive, or farther than
    ``coincidence._MAX_REACH``, before any arithmetic on it."""
    check_positive(value, subject)
    _check_reach(value, subject)


@dataclass(frozen=True)
class Line:
    """Symmetric line scan: ``samples`` offsets from -half_range to
    +half_range along a unit direction in the sample plane."""

    direction: tuple[float, float] = (1.0, 0.0)
    half_range: float = 1e-6
    samples: int = 129

    def __post_init__(self) -> None:
        if np.ndim(self.direction) != 1 or np.size(self.direction) != 2:
            raise ConfigError(f"scan direction must be a unit 2-vector, got {self.direction!r}")
        for component in self.direction:
            check_real(component, "scan direction components")
        if not all(math.isfinite(c) for c in self.direction) or \
                abs(math.hypot(*self.direction) - 1.0) > 1e-9:
            raise ConfigError("scan direction must be a unit 2-vector")
        # a tuple, so that the frozen line compares and hashes as a value
        object.__setattr__(self, "direction", tuple(map(float, self.direction)))
        _check_half_range(self.half_range, "scan half range")
        check_integers((self.samples,), "scan sample counts")
        if self.samples < 16:
            raise ConfigError("line scans need at least 16 samples")
        _check_scan_size(self.samples)

    def offsets(self) -> np.ndarray:
        t = np.linspace(-self.half_range, self.half_range, self.samples)
        d = np.asarray(self.direction, dtype=float)
        return t[:, None] * d[None, :]


@dataclass(frozen=True)
class Grid:
    """Rectangular raster of scan offsets, row-major with x varying fastest."""

    half_range_x: float = 1e-6
    half_range_y: float = 1e-6
    nx: int = 33
    ny: int = 33

    def __post_init__(self) -> None:
        for r in (self.half_range_x, self.half_range_y):
            _check_half_range(r, "scan half ranges")
        check_integers((self.nx, self.ny), "scan sample counts")
        if self.nx < 16 or self.ny < 16:
            raise ConfigError("grid scans need at least 16 samples per axis")
        _check_scan_size(self.nx * self.ny)

    def offsets(self) -> np.ndarray:
        xs = np.linspace(-self.half_range_x, self.half_range_x, self.nx)
        ys = np.linspace(-self.half_range_y, self.half_range_y, self.ny)
        pts = np.empty((self.ny, self.nx, 2))
        pts[:, :, 0] = xs[None, :]
        pts[:, :, 1] = ys[:, None]
        return pts.reshape(-1, 2)


@dataclass(frozen=True)
class ScanPlan:
    geometry: Union[Line, Grid]
    instrument: Instrument = Instrument.TWIN_PHOTON

    def __post_init__(self) -> None:
        if not isinstance(self.geometry, (Line, Grid)):
            raise ConfigError("scan geometry must be a Line or a Grid")
        if not isinstance(self.instrument, Instrument):
            raise ConfigError("unknown instrument")


@dataclass(frozen=True, eq=False)
class ScanImage:
    """Normalized scan record: ``values`` peak at exactly 1 whenever the
    raw peak is positive (a fully gated-out scan stays all-zero).
    Line images are 1D; grid images have shape (ny, nx)."""

    plan: ScanPlan
    values: np.ndarray
    peak_value_raw: float

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if np.any(~np.isfinite(vals)) or np.any(vals < 0.0):
            raise NumericalError("scan values must be finite and non-negative")
        if self.peak_value_raw > 0.0 and abs(vals.max() - 1.0) > 1e-12:
            raise NumericalError("scan values must be peak-normalized")


def _thread_count() -> int:
    """Threads requested by TWINFOCAL_THREADS (unset or empty: 1; 0: one per
    CPU), at most one per CPU."""
    raw = os.environ.get("TWINFOCAL_THREADS", "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError("TWINFOCAL_THREADS must be an integer") from exc
    if n < 0:
        raise ConfigError("TWINFOCAL_THREADS must be >= 0")
    cpus = os.cpu_count() or 1
    return min(n or cpus, cpus)


def scan(plan: ScanPlan, cfg: MicroscopeConfig, sample: SampleTransmittance,
         quad: QuadratureSpec | None = None, t12: float | None = None,
         disp: DispersionModel | None = None) -> ScanImage:
    """Run a scan plan over a sample and return the normalized image.

    The coincidence gate (when a dispersion model is given) applies to the
    twin-photon instrument only; classical instruments have no pair
    timing.  A gated-out twin scan returns an all-zero image with
    ``peak_value_raw = 0``, once its sample is admitted as for an open
    gate.  A ``t12`` that is not a real number, or without a dispersion
    model, is refused for every instrument (``coincidence.scan_rates``).
    """
    offsets = plan.geometry.offsets()
    with Chunks(_thread_count()) as chunks:
        values = scan_rates(sample, offsets, cfg, quad, plan.instrument, t12, disp, chunks)
    peak = float(values.max()) if values.size else 0.0
    if peak > 0.0:
        values = values / peak
    if isinstance(plan.geometry, Grid):
        values = values.reshape(plan.geometry.ny, plan.geometry.nx)
    return ScanImage(plan=plan, values=values, peak_value_raw=peak)


def dip_contrast(image: ScanImage) -> float:
    """Depth of the central dip of a symmetric line scan.

    ``1 - I_center / I_peak`` where ``I_center`` is the value at zero
    offset (mean of the two middle samples for even counts) and
    ``I_peak`` the image maximum.  0 means no dip.
    """
    if not isinstance(image.plan.geometry, Line):
        raise ConfigError("dip contrast is defined for line scans only")
    vals = image.values
    peak = float(vals.max())
    if peak <= 0.0:
        return 0.0
    n = vals.size
    if n % 2:
        center = float(vals[n // 2])
    else:
        center = 0.5 * float(vals[n // 2 - 1] + vals[n // 2])
    return max(0.0, 1.0 - center / peak)


def min_resolvable_separation(cfg: MicroscopeConfig, instrument: Instrument,
                              threshold: float = 0.05,
                              quad: QuadratureSpec | None = None) -> float:
    """Smallest two-point separation whose scan dips by at least ``threshold``.

    Brackets the dip threshold between FWHM/10 and 4 FWHM of the
    instrument response and bisects the separation to 1e-3 relative.
    Raises ``ScanRangeError`` if the dip does not straddle the threshold
    across that bracket.
    """
    check_real(threshold, "threshold")
    if not (0.0 < threshold < 1.0):
        raise ConfigError("threshold must lie in (0, 1)")
    width = response_fwhm(_instrument_psf(instrument), cfg)

    def dip_at(separation: float) -> float:
        plan = ScanPlan(
            geometry=Line(direction=(1.0, 0.0),
                          half_range=0.5 * separation + 1.5 * width,
                          samples=257),
            instrument=instrument,
        )
        return dip_contrast(scan(plan, cfg, TwoPoint(separation), quad))

    lo, hi = width / 10.0, 4.0 * width
    if dip_at(lo) >= threshold:
        raise ScanRangeError(
            "two-point dip already exceeds the threshold at the lower bracket "
            f"({lo:.3e} m); the minimum lies below FWHM/10")
    if dip_at(hi) < threshold:
        raise ScanRangeError(
            "two-point dip stays below the threshold at the upper bracket "
            f"({hi:.3e} m); no resolvable separation within 4 FWHM")
    return 0.5 * _bisect(lambda separation: dip_at(separation) >= threshold, lo, hi, 1e-3)
