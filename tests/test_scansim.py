"""Scan geometry, instrument dispatch, parallel determinism, resolution scoring.

Frozen two-point resolution limits (meters) for a 12 mm pump waist at a
5% dip threshold, computed by bisection over closed-form two-point scans
(bisection converges to 1e-3 relative):

    twin       1.1154503577565829e-07
    confocal   2.566209787578817e-07
    widefield  3.657400919612452e-07
"""

import math
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from twinfocal.errors import ConfigError, NumericalError, QuadratureError, ScanRangeError
from twinfocal.optics import MicroscopeConfig, airy_radius
from twinfocal.psf import fwhm, psf_confocal, psf_twin, psf_widefield
from twinfocal import coincidence, scansim
from twinfocal.coincidence import (Delta, DispersionModel, Grating, QuadratureSpec, Raster,
                                    Slit, TwoPoint, amplitude, kernel_field)
from twinfocal.scansim import (
    Grid,
    Instrument,
    Line,
    ScanImage,
    ScanPlan,
    dip_contrast,
    min_resolvable_separation,
    scan,
)

CFG8 = MicroscopeConfig(w0=8e-3)
CFG12 = MicroscopeConfig(w0=12e-3)

# toy crystal whose gate is open at t12 = 0.5 * OPEN_WINDOW
OPEN_DISP = DispersionModel(n_o=lambda w: 1.60, n_e=lambda w, psi: 1.55,
                            psi=0.5, L=1e-3)
OPEN_WINDOW = (1.60 - 1.55) * 1e-3 / 299792458.0

MIN_SEP_TWIN_12MM = 1.1154503577565829e-07
MIN_SEP_CONFOCAL_12MM = 2.566209787578817e-07
MIN_SEP_WIDEFIELD_12MM = 3.657400919612452e-07


def line_plan(instrument, half_range=5e-7, samples=33, direction=(1.0, 0.0)):
    return ScanPlan(geometry=Line(direction=direction, half_range=half_range,
                                  samples=samples),
                    instrument=instrument)


# ----------------------------------------------------------------------------
# geometry and plan validation
# ----------------------------------------------------------------------------

def test_geometry_validation():
    with pytest.raises(ConfigError):
        Line(samples=15)
    with pytest.raises(ConfigError):
        Line(direction=(1.0, 1.0))
    for bad in ((math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0)):
        with pytest.raises(ConfigError, match="unit 2-vector"):
            Line(direction=bad)
    with pytest.raises(ConfigError):
        Line(half_range=0.0)
    with pytest.raises(ConfigError):
        Grid(nx=15)
    with pytest.raises(ConfigError):
        Grid(half_range_y=-1e-6)
    with pytest.raises(ConfigError):
        ScanPlan(geometry="line")
    with pytest.raises(ConfigError):
        ScanPlan(geometry=Line(), instrument="twin")


def test_scan_size_limit_names_count_and_memory():
    """Oversized plans are refused when built, before any offset array
    is allocated; the message gives the count and the memory."""
    with pytest.raises(ConfigError, match=r"1000000000 offsets.*MiB"):
        Line(samples=10**9)
    with pytest.raises(ConfigError, match=r"1049600 offsets"):
        Grid(nx=1024, ny=1025)
    Line(samples=scansim._MAX_OFFSETS)
    Grid(nx=1024, ny=1024)


@pytest.mark.parametrize("geometry", [
    Grid(1.0123e-6, 0.9871e-6, 512, 512), Line((0.6, 0.8), 1.0123e-6, 1 << 18),
], ids=["grid", "diagonal_line"])
def test_extended_scan_table_stays_within_the_bytes_per_offset(geometry):
    """The memory per offset that the scan size limit quotes covers
    extended scans: off the lattice every offset is a residual class of its
    own, and building a slit's table over 2**18 such offsets stays within
    ``offsets * _BYTES_PER_OFFSET`` (tracemalloc peak)."""
    offsets = geometry.offsets()
    lattice = coincidence._sample_lattice(Slit(0.5e-6), CFG8, None, True)
    tracemalloc.start()
    try:
        lattice.table(offsets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= offsets.shape[0] * scansim._BYTES_PER_OFFSET


@pytest.mark.parametrize("plan, sample", [
    # about 1e6 residual classes of a 32 x 32 box each, about 160 GiB
    (ScanPlan(Grid(nx=1024, ny=1024)), Raster(pitch=1e-7, grid=np.ones((32, 32)))),
], ids=["raster_grid"])
def test_scan_table_limit_names_count_and_memory(plan, sample):
    """An extended scan whose table would hold more than the cell cap is
    refused with the count and the memory, before any table exists."""
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"scan table of (\d+) cells exceeds .* MiB") as info:
            scan(plan, CFG8, sample)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20
    count = int(re.search(r"table of (\d+) cells", str(info.value)).group(1))
    assert count > coincidence._MAX_TABLE_CELLS
    assert f"about {count * coincidence._BYTES_PER_TABLE_CELL / 2**20:,.0f} MiB" in str(info.value)


@pytest.mark.parametrize("instrument", list(Instrument))
def test_grating_order_count_is_bounded(instrument):
    """A grating keeps its orders ``2 pi m / period`` below the
    instrument's cut; more than ``_MAX_ORDERS`` of them are refused with
    the count and the memory before any transfer value is evaluated, and
    a period below the resolution keeps order 0 alone: a flat image."""
    limit = coincidence._MAX_ORDERS
    orders = coincidence.grating_orders(Grating(period=2e-6), CFG8, None, instrument)
    count = orders.freq.size
    assert count == {Instrument.WIDEFIELD: 6, Instrument.CONFOCAL: 12,
                     Instrument.TWIN_PHOTON: 40}[instrument]
    period = 2e-6 * (limit + 1) / (count - 1)
    with pytest.raises(ConfigError, match=r"grating of (\S+) diffraction orders exceeds the "
                                          r"limit of 65536; .* about \d+ MiB") as info:
        scan(line_plan(instrument, samples=16), CFG8, Grating(period=period))
    assert float(re.search(r"grating of (\S+) diff", str(info.value)).group(1)) > limit
    flat = scan(line_plan(instrument, samples=16), CFG8, Grating(period=1e-26))
    assert np.all(np.abs(flat.values - 1.0) <= 1e-8)


def test_table_limit_refuses_a_nan_count():
    """A NaN cell count is not within the limit: the size check refuses it."""
    with pytest.raises(ConfigError, match=r"scan table of nan cells exceeds the limit of"):
        coincidence._check_table_cells(math.nan)


PITCH_OVERFLOW = r"sample pitch 1e-310 m is too small for scan offsets up to 1e-06 m"
FAR_SAMPLE = r"sample reach from the axis must be at most 1 m, got "


@pytest.mark.parametrize("plan, sample, message", [
    (ScanPlan(Grid(nx=16, ny=16)), Raster(pitch=1e-310, grid=np.ones((1, 1))), PITCH_OVERFLOW),
    (ScanPlan(Line(samples=16)), Slit(width=1e-310), PITCH_OVERFLOW),
    # finite lattice coordinates, but a box of more cells than a float holds
    (ScanPlan(Grid(nx=16, ny=16)), Raster(pitch=1e-300, grid=np.ones((1, 1))),
     r"scan table of inf cells exceeds the limit of 4194304; building it would need about "
     r"inf MiB"),
    # squared offsets would overflow in the kernel; refused when the line is built
    (lambda: ScanPlan(Line(half_range=1e300, samples=16)), Delta(),
     r"scan half range must be at most 1 m, got 1e\+300"),
    # sample cells too far to square; refused before any kernel call
    (ScanPlan(Line(samples=16)), Slit(width=1e300), FAR_SAMPLE + r"5e\+299"),
    # a grating has no cells to reach out: it is refused for its orders
    (ScanPlan(Line(samples=16)), Grating(period=1e300),
     r"grating of 1\.99e\+307 diffraction orders exceeds the limit of 65536"),
    (ScanPlan(Line(samples=16)), Raster(pitch=1e300, grid=np.ones((2, 2))),
     FAR_SAMPLE + r"1e\+300"),
    (ScanPlan(Line(samples=16)), TwoPoint(1e300), FAR_SAMPLE + r"5e\+299"),
], ids=["raster_grid", "slit_line", "raster_grid_inf_cells", "delta_far_line",
        "slit_far", "grating_far", "raster_far", "two_point_far"])
def test_pitch_that_offsets_overflow_is_refused(plan, sample, message):
    """Offsets whose lattice coordinates overflow are refused with the pitch
    and the largest offset, and without a numpy warning; so are a table too
    large to count in floats, offsets too far to square and sample cells
    beyond 1 m of the axis."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=message):
            scan(plan() if callable(plan) else plan, CFG8, sample)


@pytest.mark.parametrize("t12", [math.nan, -1.0, 0.5 * OPEN_WINDOW],
                         ids=["nan", "negative", "inside_a_window"])
@pytest.mark.parametrize("instrument", list(Instrument), ids=lambda i: i.value)
def test_t12_without_a_dispersion_model_is_refused(instrument, t12):
    """A ``t12`` has no gate to open or close without a dispersion model:
    ``scan`` refuses it for every instrument, and ``coincidence_rate`` too,
    rather than return an ungated image."""
    with pytest.raises(ConfigError, match="t12 needs a dispersion model"):
        scan(ScanPlan(Line(samples=16), instrument), CFG8, Delta(), t12=t12)
    with pytest.raises(ConfigError, match="t12 needs a dispersion model"):
        coincidence.coincidence_rate(0.0, CFG8, Delta(), t12=t12)


@pytest.mark.parametrize("t12", ["1e-13", 1j, True, np.array([1e-13])],
                         ids=["str", "complex", "bool", "array"])
@pytest.mark.parametrize("instrument", list(Instrument), ids=lambda i: i.value)
def test_t12_that_is_not_a_real_number_is_refused(instrument, t12):
    """``t12`` is checked as a real number (``errors.check_real``, which
    refuses bools) for every instrument, with or without a dispersion
    model, and by ``gate`` itself: a bool is not taken as 1 s."""
    for disp in (OPEN_DISP, None):
        with pytest.raises(ConfigError, match="t12 must be a real number"):
            scan(ScanPlan(Line(samples=16), instrument), CFG8, Delta(), t12=t12, disp=disp)
    with pytest.raises(ConfigError, match="t12 must be a real number"):
        coincidence.coincidence_rate(0.0, CFG8, Delta(), t12=t12, disp=OPEN_DISP)
    with pytest.raises(ConfigError, match="t12 must be a real number"):
        coincidence.gate(t12, OPEN_DISP, CFG8.omega_o, CFG8.omega_e)


@pytest.mark.parametrize("threshold", ["0.1", None, 0.1j, True])
def test_threshold_that_is_not_a_real_number_is_refused(threshold):
    with pytest.raises(ConfigError, match="threshold must be a real number"):
        min_resolvable_separation(CFG8, Instrument.CONFOCAL, threshold=threshold)


@pytest.mark.parametrize("t12", [0.5 * OPEN_WINDOW, 1e-12], ids=["open_gate", "closed_gate"])
def test_far_sample_is_refused_whatever_the_gate(t12):
    """A closed gate returns zeros without kernel work, but only after the
    sample is lowered and admitted with its offsets: a slit beyond 1 m of
    the axis, a pitch too small for the offsets and a table of too many
    cells are refused with the same error at a ``t12`` outside the gate's
    window as inside it."""
    gates = coincidence.gate(t12, OPEN_DISP, CFG8.omega_o, CFG8.omega_e)
    assert gates == (1.0 if t12 < OPEN_WINDOW else 0.0)
    # off the lattice each of the 33 x 33 offsets is a residual class of its
    # own, whose box holds the 64 x 64 lit pixels
    table_cells = (r"scan table of 4460544 cells exceeds the limit of 4194304; building it "
                   r"would need about 681 MiB")
    cases = [
        (Line(samples=16), Slit(width=1e300), FAR_SAMPLE + r"5e\+299"),
        (Line(samples=16), Slit(width=1e-310), PITCH_OVERFLOW),
        (Grid(0.999e-6, 0.999e-6, 33, 33), Raster(pitch=5e-8, grid=np.ones((64, 64))),
         table_cells),
    ]
    for geometry, sample, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=message):
                scan(ScanPlan(geometry), CFG8, sample, t12=t12, disp=OPEN_DISP)


@pytest.mark.parametrize("build", [
    lambda n: Line(samples=n), lambda n: Grid(nx=n), lambda n: Grid(ny=n),
], ids=["line", "grid_nx", "grid_ny"])
def test_scan_counts_must_be_integers(build):
    """Fractional, string and bool counts are refused when the geometry is
    built; numpy integers are counts like Python ints."""
    for bad in (16.5, 20.0, "20", True, math.nan):
        with pytest.raises(ConfigError, match="scan sample counts must be integers"):
            build(bad)
    geometry = build(np.int64(20))
    assert geometry.offsets().shape[0] in (20, 20 * Grid.nx)
    assert scan(ScanPlan(geometry), CFG8, Delta()).values.size == geometry.offsets().shape[0]


def test_line_offsets_layout():
    line = Line(direction=(0.0, 1.0), half_range=2e-6, samples=17)
    pts = line.offsets()
    assert pts.shape == (17, 2)
    assert np.all(pts[:, 0] == 0.0)
    assert pts[0, 1] == -2e-6 and pts[-1, 1] == 2e-6
    assert np.allclose(pts[:, 1], -pts[::-1, 1])


def test_grid_offsets_row_major_x_fastest():
    grid = Grid(half_range_x=1e-6, half_range_y=2e-6, nx=16, ny=17)
    pts = grid.offsets()
    assert pts.shape == (16 * 17, 2)
    assert pts[1, 0] > pts[0, 0] and pts[1, 1] == pts[0, 1]  # x moves first
    assert pts[16, 1] > pts[0, 1]  # next row is a y step
    assert pts[0].tolist() == [-1e-6, -2e-6]
    assert pts[-1].tolist() == [1e-6, 2e-6]


# ----------------------------------------------------------------------------
# instrument dispatch
# ----------------------------------------------------------------------------

def test_delta_scan_traces_each_instrument_response():
    line = Line(half_range=5e-7, samples=21)
    radii = np.abs(np.linspace(-5e-7, 5e-7, 21))
    for instrument, response in ((Instrument.WIDEFIELD, psf_widefield),
                                 (Instrument.CONFOCAL, psf_confocal),
                                 (Instrument.TWIN_PHOTON, psf_twin)):
        image = scan(ScanPlan(geometry=line, instrument=instrument), CFG8, Delta())
        assert image.peak_value_raw == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(image.values, response(radii, CFG8), rtol=1e-12, atol=0)


def test_delta_grid_scan_is_radially_consistent():
    plan = ScanPlan(geometry=Grid(half_range_x=4e-7, half_range_y=4e-7,
                                  nx=17, ny=17),
                    instrument=Instrument.TWIN_PHOTON)
    image = scan(plan, CFG8, Delta())
    assert image.values.shape == (17, 17)
    assert image.values[8, 8] == 1.0
    # four-fold symmetry of a radial response on a symmetric grid
    assert np.allclose(image.values, image.values[::-1, :], rtol=0, atol=1e-13)
    assert np.allclose(image.values, image.values[:, ::-1], rtol=0, atol=1e-13)
    assert np.allclose(image.values, image.values.T, rtol=0, atol=1e-13)


def test_two_point_well_separated_is_resolved():
    image = scan(line_plan(Instrument.TWIN_PHOTON, half_range=1e-6, samples=81),
                 CFG8, TwoPoint(separation=1e-6))
    assert dip_contrast(image) > 0.9


def test_two_point_sub_airy_dip_twin_only():
    """A 0.15 um pair sits far below the classical limit; only the
    twin-photon instrument shows any central dip."""
    sep = 1.5e-7
    twin = scan(line_plan(Instrument.TWIN_PHOTON, half_range=4e-7, samples=129),
                CFG12, TwoPoint(sep))
    confocal = scan(line_plan(Instrument.CONFOCAL, half_range=4e-7, samples=129),
                    CFG12, TwoPoint(sep))
    assert dip_contrast(twin) > 0.02
    assert dip_contrast(confocal) == 0.0


def test_uniform_raster_is_flat_near_center():
    sample = Raster(pitch=4e-7, grid=np.ones((12, 12)))
    image = scan(line_plan(Instrument.TWIN_PHOTON, half_range=2.5e-7, samples=17),
                 CFG8, sample)
    assert image.values.min() > 0.99


def test_classical_raster_scan_is_incoherent():
    """A classical scan of a uniform raster equals the summed response
    intensities (pixel powers add; no interference terms)."""
    grid = np.zeros((8, 8))
    grid[3, 3] = 1.0
    grid[3, 6] = 1.0
    pitch = 3e-7
    sample = Raster(pitch=pitch, grid=grid)
    image = scan(line_plan(Instrument.CONFOCAL, half_range=8e-7, samples=33),
                 CFG8, sample, quad=None)
    # the two bright pixels act as incoherent patches: the trace must be
    # symmetric about the midpoint between them
    mid_index = np.argmax(image.values)
    assert image.values[mid_index] == 1.0


def test_scan_mirror_symmetry():
    image = scan(line_plan(Instrument.TWIN_PHOTON, half_range=6e-7, samples=41),
                 CFG8, TwoPoint(separation=5e-7))
    assert np.allclose(image.values, image.values[::-1], rtol=1e-12, atol=0)


def test_batched_two_point_scan_matches_per_offset_amplitude():
    """The array evaluation of a twin two-point scan agrees with one
    amplitude per offset up to airy_amp's last-bit dependence on its array."""
    sample = TwoPoint(2.5e-7)
    for geometry in (Line(half_range=6e-7, samples=65),
                     Grid(half_range_x=6e-7, half_range_y=6e-7, nx=17, ny=17)):
        image = scan(ScanPlan(geometry=geometry, instrument=Instrument.TWIN_PHOTON),
                     CFG12, sample)
        batched = image.values.ravel() * image.peak_value_raw
        per_offset = np.array([abs(amplitude(pt, CFG12, sample)) ** 2
                               for pt in geometry.offsets()])
        assert np.allclose(batched, per_offset, rtol=1e-14, atol=0)


def test_batched_extended_scan_mixes_convergence_outcomes(monkeypatch):
    """A twin grid of the far-tail raster of the coincidence tests: the
    offset (-0.9, -1.5) um needs the second node doubling while the
    offsets evaluated beside it pass the first.  Each offset still gets
    the value of its own one-offset integral.  The scan evaluates every
    distinct panel displacement once in each of its first two passes and
    at most once in each later pass, and refines only the displacements
    of the offsets that fail the first check."""
    grid = np.zeros((4, 4))
    grid[1, 3] = grid[2, 0] = 1.0
    sample = Raster(pitch=2e-7, grid=grid)
    spec = QuadratureSpec(radial_nodes=12)
    geometry = Grid(half_range_x=1.5e-6, half_range_y=1.5e-6, nx=16, ny=16)
    offsets = geometry.offsets()
    assert np.any(np.all(np.abs(offsets - (-9e-7, -1.5e-6)) < 1e-15, axis=1))
    points = []

    def counting(vx, vy, cfg):
        points.append(np.broadcast(vx, vy).size)
        return kernel_field(vx, vy, cfg)

    passes = []
    original = coincidence._panel_sum

    def recording(points, half, n, kern):
        passes.append((n, [tuple(p) for p in points]))
        return original(points, half, n, kern)

    monkeypatch.setattr(coincidence, "_panel_sum", recording)
    plan = ScanPlan(geometry=geometry, instrument=Instrument.TWIN_PHOTON)
    image = scan(plan, CFG8, sample, spec)
    batched = image.values.ravel() * image.peak_value_raw
    scan_passes = list(passes)
    monkeypatch.setattr(coincidence, "kernel_field", counting)
    per_offset, refined = [], []
    for pt in offsets:
        points.clear()
        per_offset.append(abs(amplitude(pt, CFG8, sample, spec)) ** 2)
        # one kernel call per pass: coarse, mass, fine, and 48 nodes if refined
        refined.append(len(points) == 4)
    assert np.allclose(batched, np.array(per_offset), rtol=1e-14, atol=0)
    lattice = coincidence._sample_lattice(sample, CFG8, spec, True)
    table, blocks = coincidence._lattice_table(lattice, offsets)
    windows = [None] * offsets.shape[0]
    for block, entries, _ in blocks(np.arange(offsets.shape[0])):
        for i, entry in zip(block, entries):
            windows[i] = entry
    rows = np.unique(np.concatenate(windows))
    refined_rows = np.unique(np.concatenate([w for w, r in zip(windows, refined) if r]))
    assert 0 < refined_rows.size < rows.size < sum(w.size for w in windows)
    index = {tuple(p): k for k, p in enumerate(table)}
    evaluated = {n: [index[p] for nodes, points in scan_passes if nodes == n for p in points]
                 for n in (12, 24, 48)}
    assert sorted(evaluated[12]) == sorted(list(rows) * 2)  # coarse and mass
    for n, allowed in ((24, rows), (48, refined_rows)):
        assert 0 < len(evaluated[n]) == len(set(evaluated[n]))
        assert set(evaluated[n]) <= set(allowed)
    monkeypatch.setattr(coincidence, "_DOUBLING_CHECKS", 1)
    with pytest.raises(QuadratureError, match="node"):
        scan(plan, CFG8, sample, spec)


def test_far_offsets_key_without_overflow(monkeypatch):
    """Offsets about 1e4 pitches from a tiny raster keep their lattice
    shift and residual apart without overflow: the scan is finite, raises
    no overflow or invalid-value error on its one thread, and equals
    one-offset rates bit for bit."""
    monkeypatch.delenv("TWINFOCAL_THREADS", raising=False)
    grid = np.zeros((4, 4))
    grid[0, 1] = grid[1, 3] = grid[2, 2] = grid[3, 0] = 1.0
    sample = Raster(pitch=1e-10, grid=grid)
    spec = QuadratureSpec(radial_nodes=8)
    geometry = Line(half_range=1e-6, samples=16)
    with np.errstate(over="raise", invalid="raise"):
        image = scan(ScanPlan(geometry=geometry), CFG8, sample, spec)
        rates = np.array([coincidence.coincidence_rate(pt, CFG8, sample, spec)
                          for pt in geometry.offsets()])
    assert np.all(np.isfinite(image.values)) and image.peak_value_raw > 0.0
    assert image.peak_value_raw == rates.max()
    assert np.array_equal(image.values, rates / rates.max())


def test_mirror_symmetric_scan_evaluates_each_displacement_once(monkeypatch):
    """A line scan with mirror-symmetric offsets over a point-symmetric
    raster meets each canonical displacement ``sorted(|dx|, |dy|)`` at
    several offsets and panels.  The coarse and mass passes integrate each
    of them once, across the rows split between threads, and the fine pass
    at most once.  Pitch and offsets are binary fractions, so equal
    displacements are equal to the last bit."""
    pitch = 2.0 ** -22
    grid = np.zeros((4, 4))
    grid[0, 1] = grid[3, 2] = grid[1, 3] = grid[2, 0] = 1.0
    sample = Raster(pitch=pitch, grid=grid)
    geometry = Line(half_range=2.0 ** -20, samples=17)
    offsets = geometry.offsets()
    assert np.array_equal(offsets, -offsets[::-1])
    lit = np.argwhere(grid != 0)
    centres = np.column_stack([(lit[:, 1] - 1.5) * pitch, (lit[:, 0] - 1.5) * pitch])
    canonical = {tuple(sorted((abs(cx - ox), abs(cy - oy))))
                 for ox, oy in offsets for cx, cy in centres}
    assert len(canonical) < offsets.shape[0] * lit.shape[0] // 2
    passes = []
    original = coincidence._panel_sum

    def recording(points, half, n, kern):
        passes.append((n, points))
        return original(points, half, n, kern)

    monkeypatch.setattr(coincidence, "_panel_sum", recording)
    monkeypatch.setenv("TWINFOCAL_THREADS", "2")
    monkeypatch.setattr(scansim.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(coincidence, "_MIN_POINTS_PER_CHUNK", 1)  # every pass splits
    scan(ScanPlan(geometry=geometry, instrument=Instrument.TWIN_PHOTON), CFG8, sample,
         QuadratureSpec(radial_nodes=12))
    assert len(passes) == 6  # coarse and mass at 12 nodes, fine at 24, one chunk per thread
    rows = [tuple(p) for nodes, points in passes if nodes == 12 for p in points]
    assert sorted(rows) == sorted(list(canonical) * 2)
    fine = [tuple(p) for nodes, points in passes if nodes == 24 for p in points]
    assert len(fine) == len(set(fine)) and set(fine) <= canonical


# ----------------------------------------------------------------------------
# parallelism
# ----------------------------------------------------------------------------

def test_thread_count_determinism(monkeypatch):
    twin_grid = ScanPlan(geometry=Grid(half_range_x=6e-7, half_range_y=6e-7,
                                       nx=17, ny=16),
                         instrument=Instrument.TWIN_PHOTON)
    # shaped like the benchmark's grid job: several kernel calls per
    # thread chunk, with boundaries that move with the thread count
    raster_grid = ScanPlan(geometry=Grid(half_range_x=1.5e-6, half_range_y=1.5e-6,
                                         nx=16, ny=16),
                           instrument=Instrument.TWIN_PHOTON)
    border = np.zeros((4, 4))
    border[0, 1] = border[3, 2] = 1.0
    complex_raster = Raster(pitch=1.5e-7, grid=np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0],
                                                         [0.5j, 0.0, 1.0]]))
    cases = [
        (line_plan(Instrument.TWIN_PHOTON, half_range=6e-7, samples=33), Slit(width=2e-7), {}),
        (line_plan(Instrument.TWIN_PHOTON, half_range=6e-7, samples=33), TwoPoint(2.5e-7), {}),
        (line_plan(Instrument.TWIN_PHOTON, half_range=6e-7, samples=33), complex_raster,
         {"quad": QuadratureSpec(radial_nodes=16)}),
        (raster_grid, Raster(pitch=2e-7, grid=border), {"quad": QuadratureSpec(radial_nodes=12)}),
        (line_plan(Instrument.CONFOCAL, half_range=6e-7, samples=33), complex_raster,
         {"quad": QuadratureSpec(radial_nodes=16)}),
        (line_plan(Instrument.TWIN_PHOTON, half_range=1e-6, samples=33), Grating(period=2e-6),
         {"quad": QuadratureSpec(angular_nodes=64)}),
        (twin_grid, TwoPoint(2.5e-7), {"t12": 0.5 * OPEN_WINDOW, "disp": OPEN_DISP}),
        (line_plan(Instrument.CONFOCAL, half_range=6e-7, samples=33), TwoPoint(2.5e-7), {}),
    ]
    monkeypatch.setattr(coincidence, "_MIN_POINTS_PER_CHUNK", 1)  # pools for every pass
    for plan, sample, options in cases:
        monkeypatch.delenv("TWINFOCAL_THREADS", raising=False)
        baseline = scan(plan, CFG8, sample, **options)
        for setting in ("2", "5", "0"):
            monkeypatch.setenv("TWINFOCAL_THREADS", setting)
            image = scan(plan, CFG8, sample, **options)
            assert np.array_equal(image.values, baseline.values)
            assert image.peak_value_raw == baseline.peak_value_raw


def test_calling_thread_works_a_chunk_of_every_pass(monkeypatch):
    """At two threads an extended scan whose passes are split (the clamp
    set to 1 point) evaluates its kernel on exactly two threads, the
    calling thread one of them, so the pool holds one worker.  At one
    thread no pool starts and the values are the same."""
    threads = []

    def recording(vx, vy, cfg):
        threads.append(threading.get_ident())
        return kernel_field(vx, vy, cfg)

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-thread scan starts no pool")

    monkeypatch.setattr(coincidence, "kernel_field", recording)
    monkeypatch.setattr(scansim.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(coincidence, "_MIN_POINTS_PER_CHUNK", 1)
    plan = line_plan(Instrument.TWIN_PHOTON, half_range=6e-7, samples=17)
    spec = QuadratureSpec(radial_nodes=16)
    monkeypatch.setenv("TWINFOCAL_THREADS", "2")
    two = scan(plan, CFG8, Slit(width=2e-7), spec)
    assert len(set(threads)) == 2 and threading.get_ident() in threads
    threads.clear()
    monkeypatch.setenv("TWINFOCAL_THREADS", "1")
    monkeypatch.setattr(coincidence, "ThreadPoolExecutor", no_pool)
    one = scan(plan, CFG8, Slit(width=2e-7), spec)
    assert set(threads) == {threading.get_ident()}
    assert one.values.tobytes() == two.values.tobytes()


def test_workspaces_stay_with_their_chunks_under_thread_switching(monkeypatch):
    """Four threads on fewer cores, switching every microsecond: each chunk
    writes only into its own workspace, so twin and confocal raster lines,
    whose kernel calls straddle the Bessel branch switch, keep the bits of
    a one-thread scan.  So does the twin line of a non-degenerate pair
    (600 nm signal), whose kernel holds its first Airy factor as well and
    allocates what does not fit in the workspace on pool threads."""
    grid = np.zeros((6, 6))
    grid[0, 0] = grid[5, 5] = grid[1, 4] = grid[4, 1] = 1.0
    sample = Raster(pitch=2e-7, grid=grid)
    spec = QuadratureSpec(radial_nodes=16)
    non_degenerate = MicroscopeConfig(w0=8e-3, lambda_o=600e-9,
                                      lambda_e=1.0 / (1.0 / 351e-9 - 1.0 / 600e-9))
    runs = [(line_plan(instrument, half_range=1e-6, samples=33), cfg)
            for instrument, cfg in ((Instrument.TWIN_PHOTON, CFG8),
                                    (Instrument.CONFOCAL, CFG8),
                                    (Instrument.TWIN_PHOTON, non_degenerate))]
    monkeypatch.delenv("TWINFOCAL_THREADS", raising=False)
    baselines = [scan(plan, cfg, sample, spec).values.tobytes() for plan, cfg in runs]
    monkeypatch.setattr(coincidence, "_MIN_POINTS_PER_CHUNK", 1)  # every pass splits
    monkeypatch.setattr(scansim.os, "cpu_count", lambda: 4)
    monkeypatch.setenv("TWINFOCAL_THREADS", "4")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            for (plan, cfg), baseline in zip(runs, baselines):
                assert scan(plan, cfg, sample, spec).values.tobytes() == baseline
    finally:
        sys.setswitchinterval(interval)


def test_threads_are_clamped_to_the_cpu_count(monkeypatch):
    """TWINFOCAL_THREADS beyond the CPU count starts one thread per CPU: an
    extended scan at 64 threads on 4 CPUs, its passes split whatever their
    size, evaluates its kernel on at most 4 threads."""
    threads = set()

    def recording(vx, vy, cfg):
        threads.add(threading.get_ident())
        return kernel_field(vx, vy, cfg)

    monkeypatch.setattr(coincidence, "kernel_field", recording)
    monkeypatch.setattr(scansim.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(coincidence, "_MIN_POINTS_PER_CHUNK", 1)
    monkeypatch.setenv("TWINFOCAL_THREADS", "64")
    plan = line_plan(Instrument.TWIN_PHOTON, half_range=6e-7, samples=33)
    scan(plan, CFG8, Slit(width=2e-7), QuadratureSpec(radial_nodes=16))
    assert 1 < len(threads) <= 4


def test_a_pass_runs_at_most_one_chunk_per_row():
    """``Chunks`` clamps every pass by its rows: eight threads over three
    rows, each worth a chunk's kernel points, run three chunks, for panel
    rows and point offsets alike, and rejoin them in index order."""
    chunks_seen = []

    def record(chunk, work):
        chunks_seen.append(chunk.tolist())
        return chunk

    with coincidence.Chunks(8) as chunks:
        rows = np.arange(3)
        assert np.array_equal(chunks(record, rows, coincidence._MIN_POINTS_PER_CHUNK), rows)
        assert np.array_equal(chunks.map(lambda chunk: record(chunk, None), np.arange(3)),
                              np.arange(3))
    assert sorted(chunks_seen) == [[0], [0], [1], [1], [2], [2]]


def test_thread_count_rejects_bad_values(monkeypatch):
    plan = line_plan(Instrument.TWIN_PHOTON, samples=16)
    monkeypatch.setenv("TWINFOCAL_THREADS", "many")
    with pytest.raises(ConfigError):
        scan(plan, CFG8, Delta())
    monkeypatch.setenv("TWINFOCAL_THREADS", "-1")
    with pytest.raises(ConfigError):
        scan(plan, CFG8, Delta())
    monkeypatch.setenv("TWINFOCAL_THREADS", "100000")
    monkeypatch.setattr(scansim.os, "cpu_count", lambda: 4)
    assert scansim._thread_count() == 4


# ----------------------------------------------------------------------------
# gating during scans
# ----------------------------------------------------------------------------

def test_gated_out_scan_is_all_zero(monkeypatch):
    slow_e = DispersionModel(n_o=lambda w: 1.55, n_e=lambda w, psi: 1.60,
                             psi=0.5, L=1e-3)

    def no_kernel(*args):
        raise AssertionError("a closed gate must not evaluate the kernel")

    # the kernel is never reached, so no quadrature is done either
    monkeypatch.setattr(coincidence, "kernel_field", no_kernel)
    for sample in (Delta(), Slit(width=2e-7)):
        image = scan(line_plan(Instrument.TWIN_PHOTON, samples=17), CFG8, sample,
                     t12=1e-13, disp=slow_e)
        assert image.peak_value_raw == 0.0
        assert np.all(image.values == 0.0)
        assert dip_contrast(image) == 0.0


def test_gate_open_scan_matches_ungated():
    plan = line_plan(Instrument.TWIN_PHOTON, samples=17)
    gated = scan(plan, CFG8, Delta(), t12=0.5 * OPEN_WINDOW, disp=OPEN_DISP)
    plain = scan(plan, CFG8, Delta())
    assert np.array_equal(gated.values, plain.values)
    assert gated.peak_value_raw == plain.peak_value_raw


@pytest.mark.parametrize("instrument", [Instrument.CONFOCAL, Instrument.WIDEFIELD],
                         ids=lambda i: i.value)
def test_classical_scan_ignores_a_closed_gate(instrument):
    """Classical instruments have no pair timing: with a dispersion model
    whose gate is closed and a ``t12``, a scan equals the ungated scan bit
    for bit, for point, panel and grating samples."""
    closed = DispersionModel(n_o=lambda w: 1.55, n_e=lambda w, psi: 1.60, psi=0.5, L=1e-3)
    assert coincidence.gate(1e-13, closed, CFG8.omega_o, CFG8.omega_e) == 0.0
    plan = line_plan(instrument, samples=17)
    for sample in (TwoPoint(2.5e-7), Slit(width=2e-7), Grating(period=2e-6)):
        gated = scan(plan, CFG8, sample, t12=1e-13, disp=closed)
        plain = scan(plan, CFG8, sample)
        assert gated.values.tobytes() == plain.values.tobytes()
        assert gated.peak_value_raw == plain.peak_value_raw


def test_gated_point_scan_requires_t12():
    for sample in (Delta(), TwoPoint(2.5e-7), Slit(width=2e-7)):
        with pytest.raises(ConfigError, match="t12"):
            scan(line_plan(Instrument.TWIN_PHOTON, samples=17), CFG8, sample,
                 disp=OPEN_DISP)
    # classical instruments have no pair timing and ignore the model
    scan(line_plan(Instrument.CONFOCAL, samples=17), CFG8, TwoPoint(2.5e-7),
         disp=OPEN_DISP)


# ----------------------------------------------------------------------------
# image scoring
# ----------------------------------------------------------------------------

def test_dip_contrast_rules():
    plan = line_plan(Instrument.TWIN_PHOTON, samples=16)
    values = np.ones(16)
    values[7], values[8] = 0.4, 0.6  # even count: average the middle pair
    image = ScanImage(plan=plan, values=values, peak_value_raw=2.0)
    assert dip_contrast(image) == pytest.approx(0.5, rel=1e-12)
    grid_image = scan(ScanPlan(geometry=Grid(nx=16, ny=16),
                               instrument=Instrument.TWIN_PHOTON), CFG8, Delta())
    with pytest.raises(ConfigError):
        dip_contrast(grid_image)


def test_scan_image_validation():
    plan = line_plan(Instrument.TWIN_PHOTON, samples=16)
    with pytest.raises(NumericalError):
        ScanImage(plan=plan, values=np.full(16, -1e-3), peak_value_raw=1.0)
    with pytest.raises(NumericalError):
        ScanImage(plan=plan, values=np.full(16, 0.5), peak_value_raw=1.0)
    with pytest.raises(NumericalError):
        ScanImage(plan=plan, values=np.full(16, np.nan), peak_value_raw=1.0)
    # all-zero image with zero raw peak is the gated-out case and is legal
    ScanImage(plan=plan, values=np.zeros(16), peak_value_raw=0.0)


# ----------------------------------------------------------------------------
# resolution limits
# ----------------------------------------------------------------------------

def test_min_resolvable_separation_ordering():
    twin = min_resolvable_separation(CFG12, Instrument.TWIN_PHOTON)
    confocal = min_resolvable_separation(CFG12, Instrument.CONFOCAL)
    widefield = min_resolvable_separation(CFG12, Instrument.WIDEFIELD)
    assert twin == pytest.approx(MIN_SEP_TWIN_12MM, rel=1e-6)
    assert confocal == pytest.approx(MIN_SEP_CONFOCAL_12MM, rel=1e-6)
    assert widefield == pytest.approx(MIN_SEP_WIDEFIELD_12MM, rel=1e-6)
    assert twin < confocal < widefield
    # the coincidence instrument resolves well below the classical limit
    assert twin < 0.65 * confocal


def test_confocal_min_separation_tracks_its_fwhm():
    confocal = min_resolvable_separation(CFG12, Instrument.CONFOCAL)
    width = fwhm(lambda y: psf_confocal(y, CFG12),
                 scan_range=4.0 * airy_radius(CFG12))
    assert confocal == pytest.approx(width, rel=0.05)


def test_min_resolvable_separation_guards():
    with pytest.raises(ConfigError):
        min_resolvable_separation(CFG12, Instrument.TWIN_PHOTON, threshold=0.0)
    with pytest.raises(ConfigError):
        min_resolvable_separation(CFG12, Instrument.TWIN_PHOTON, threshold=1.0)
    with pytest.raises(ScanRangeError, match="upper bracket"):
        min_resolvable_separation(CFG12, Instrument.TWIN_PHOTON,
                                  threshold=0.9999999)


def test_a_pass_too_small_to_pay_starts_no_pool(monkeypatch):
    """``Chunks`` gives each chunk of a panel pass at least
    ``_MIN_POINTS_PER_CHUNK`` kernel points.  A twin slit line at two
    threads, whose passes all fall below that, constructs no
    ``ThreadPoolExecutor`` and evaluates its kernel on the calling thread
    alone.  A pass of four rows holding the clamp's points runs as one
    chunk; holding twice as many, as two, and that starts the one pool."""
    constructed, threads = [], set()
    executor = coincidence.ThreadPoolExecutor

    def counting(*args, **kwargs):
        constructed.append(kwargs)
        return executor(*args, **kwargs)

    def recording(vx, vy, cfg):
        threads.add(threading.get_ident())
        return kernel_field(vx, vy, cfg)

    monkeypatch.setattr(coincidence, "ThreadPoolExecutor", counting)
    monkeypatch.setattr(coincidence, "kernel_field", recording)
    monkeypatch.setattr(scansim.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("TWINFOCAL_THREADS", "2")
    plan = line_plan(Instrument.TWIN_PHOTON, half_range=6e-7, samples=17)
    scan(plan, CFG8, Slit(width=2e-7), QuadratureSpec(radial_nodes=16))
    assert constructed == [] and threads == {threading.get_ident()}

    chunks_seen = []

    def record(chunk, work):
        chunks_seen.append(chunk.tolist())
        return chunk

    least, rows = coincidence._MIN_POINTS_PER_CHUNK, np.arange(4)
    with coincidence.Chunks(2) as chunks:
        assert np.array_equal(chunks(record, rows, least // 4), rows)
        assert chunks_seen == [[0, 1, 2, 3]] and constructed == []
        assert np.array_equal(chunks(record, rows, least // 2), rows)
    assert sorted(chunks_seen[1:]) == [[0, 1], [2, 3]] and len(constructed) == 1


@pytest.mark.parametrize("instrument", list(Instrument), ids=lambda i: i.value)
def test_a_grating_scan_starts_no_pool(instrument, monkeypatch):
    """A grating's order sums run on the calling thread: a grating line at
    two threads constructs no ``ThreadPoolExecutor``, and its image is the
    one-thread image bit for bit."""
    constructed = []
    executor = coincidence.ThreadPoolExecutor

    def counting(*args, **kwargs):
        constructed.append(kwargs)
        return executor(*args, **kwargs)

    monkeypatch.setattr(coincidence, "ThreadPoolExecutor", counting)
    monkeypatch.setattr(scansim.os, "cpu_count", lambda: 2)
    plan, sample = line_plan(instrument, samples=33), Grating(period=2e-6)
    images = []
    for threads in ("1", "2"):
        monkeypatch.setenv("TWINFOCAL_THREADS", threads)
        images.append(scan(plan, CFG8, sample))
    assert constructed == []
    assert images[0].values.tobytes() == images[1].values.tobytes()
