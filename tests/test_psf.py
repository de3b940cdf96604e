"""Point spread functions and FWHM machinery.

Frozen widths were computed independently by bisecting the reference
Bessel series for the half-max crossings:

    widefield v_half = 1.61634  -> FWHM = v_half lambda_o / pi = 0.3611769 um
    confocal  v_half = 1.16029  -> FWHM = 0.2592700 um
    twin (1 mm waist), airy_amp(v(2y))^4 exp(-4 y^2/r0^2)
                                -> FWHM = 0.1290284 um
"""

import math

import numpy as np
import pytest

from conftest import reference_airy_intensity, reference_half_crossing

from twinfocal.errors import ScanRangeError
from twinfocal.coincidence import kernel_field
from twinfocal.optics import MicroscopeConfig, airy_radius, r0
from twinfocal.psf import (
    fwhm,
    psf_confocal,
    psf_twin,
    psf_widefield,
    response_fwhm,
    width_reduction,
)
from twinfocal.specfun import airy_amp

FWHM_WIDEFIELD = 3.611768830506324e-07
FWHM_CONFOCAL = 2.592700144277552e-07
FWHM_TWIN_1MM = 1.2902836441213355e-07

CFG = MicroscopeConfig()
RANGE = 4.0 * airy_radius(CFG)


# ----------------------------------------------------------------------------
# point spread functions
# ----------------------------------------------------------------------------

def test_psfs_peak_at_one_and_bounded():
    ys = np.linspace(0.0, 10.0 * airy_radius(CFG), 2000)
    for func in (psf_widefield, psf_confocal, psf_twin):
        vals = func(ys, CFG)
        assert vals[0] == 1.0
        assert np.all(vals <= 1.0)
        assert np.all(vals >= 0.0)


def test_widefield_zero_at_airy_radius():
    assert psf_widefield(airy_radius(CFG), CFG) < 1e-4


def test_confocal_is_widefield_squared():
    ys = np.linspace(0.0, RANGE, 400)
    assert np.allclose(psf_confocal(ys, CFG), psf_widefield(ys, CFG) ** 2,
                       rtol=1e-14, atol=0)


def test_negative_offset_rejected():
    for func in (psf_widefield, psf_confocal, psf_twin):
        with pytest.raises(ValueError):
            func(-1e-9, CFG)


def test_responses_do_not_write_their_arguments():
    """The responses and the kernel compute in arrays of their own."""
    ys = np.linspace(0.0, RANGE, 257)
    vx, vy = ys[:, None] - 0.5 * RANGE, ys[None, :] - 0.25 * RANGE
    inputs = (ys, vx, vy)
    before = [a.copy() for a in inputs]
    for cfg in (CFG, MicroscopeConfig(pump_gaussian=False),
                MicroscopeConfig(lambda_p=351e-9, lambda_o=600e-9,
                                 lambda_e=1.0 / (1.0 / 351e-9 - 1.0 / 600e-9))):
        for response in (psf_widefield, psf_confocal, psf_twin):
            response(ys, cfg)
        kernel_field(vx, vy, cfg)
        kernel_field(ys, 0.0, cfg)
        for arr, copy in zip(inputs, before):
            assert arr.tobytes() == copy.tobytes()


def test_twin_formula_against_direct_arithmetic():
    """Recompute the twin response from its definition at a few offsets."""
    cfg = MicroscopeConfig(w0=8e-3)
    spot = r0(cfg)
    for y in (0.0, 5e-8, 1.3e-7, 2.9e-7):
        scale = 2.0 * cfg.omega_o * cfg.a / (cfg.s0 * 299792458.0)
        # pump spot intensity exp(-w^2/r0^2) at the doubled coordinate w = 2y
        expected = airy_amp(scale * y) ** 4 * math.exp(-((2.0 * y) / spot) ** 2)
        assert psf_twin(y, cfg) == pytest.approx(expected, rel=1e-13)


def test_argument_doubling_without_envelope():
    """With the pump envelope off, twin(y) equals confocal(2y)."""
    cfg = MicroscopeConfig(pump_gaussian=False)
    ys = np.linspace(0.0, RANGE, 1000)
    lhs = psf_twin(ys, cfg)
    rhs = psf_confocal(2.0 * ys, cfg)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_envelope_strictly_narrows():
    ys = np.linspace(1e-9, RANGE, 200)
    with_envelope = psf_twin(ys, CFG)
    without = psf_twin(ys, MicroscopeConfig(pump_gaussian=False))
    assert np.all(with_envelope < without)


# ----------------------------------------------------------------------------
# FWHM
# ----------------------------------------------------------------------------

def test_response_fwhm_is_the_four_airy_radius_search():
    for cfg in (CFG, MicroscopeConfig(w0=8e-3)):
        for response in (psf_widefield, psf_confocal, psf_twin):
            assert response_fwhm(response, cfg) == fwhm(
                lambda y: response(y, cfg), scan_range=4.0 * airy_radius(cfg))


def test_fwhm_frozen_values_and_independent_oracle():
    width_wf = fwhm(lambda y: psf_widefield(y, CFG), scan_range=RANGE)
    width_cf = fwhm(lambda y: psf_confocal(y, CFG), scan_range=RANGE)
    width_tw = fwhm(lambda y: psf_twin(y, CFG), scan_range=RANGE)
    assert width_wf == pytest.approx(FWHM_WIDEFIELD, rel=1e-8)
    assert width_cf == pytest.approx(FWHM_CONFOCAL, rel=1e-8)
    assert width_tw == pytest.approx(FWHM_TWIN_1MM, rel=1e-8)

    # independent oracle: bisect the reference-series Airy intensity
    scale = 2.0 * math.pi * CFG.a / (CFG.lambda_o * CFG.f)
    v_half_wf = reference_half_crossing(reference_airy_intensity, 1.0, 2.5)
    assert width_wf == pytest.approx(2.0 * v_half_wf / scale, rel=1e-7)
    v_half_cf = reference_half_crossing(
        lambda v: reference_airy_intensity(v) ** 2, 0.8, 2.0)
    assert width_cf == pytest.approx(2.0 * v_half_cf / scale, rel=1e-7)
    # twin: Airy intensities squared at 2y times the pump spot at 2y
    spot = r0(CFG)
    y_half_tw = reference_half_crossing(
        lambda y: (reference_airy_intensity(2.0 * scale * y) ** 2
                   * math.exp(-((2.0 * y) / spot) ** 2)),
        0.25 * v_half_cf / scale, 0.5 * v_half_cf / scale)
    assert width_tw == pytest.approx(2.0 * y_half_tw, rel=1e-7)


def test_fwhm_ratio_confocal_to_widefield():
    assert FWHM_CONFOCAL / FWHM_WIDEFIELD == pytest.approx(0.72, abs=0.01)
    assert width_reduction(FWHM_WIDEFIELD, FWHM_CONFOCAL) == pytest.approx(28.0, abs=0.5)


def test_fwhm_pure_gaussian_closed_form():
    spot = 2.5e-7
    width = fwhm(lambda y: math.exp(-(y / spot) ** 2), scan_range=2e-6)
    assert width == pytest.approx(2.0 * spot * math.sqrt(math.log(2.0)), rel=1e-8)


def test_fwhm_monotone_in_waist_and_plateau():
    widths = []
    for w0 in (1e-3, 2e-3, 4e-3, 8e-3, 12e-3, 16e-3, 20e-3):
        cfg = MicroscopeConfig(w0=w0)
        widths.append(fwhm(lambda y: psf_twin(y, cfg), scan_range=RANGE))
    assert all(b <= a for a, b in zip(widths, widths[1:]))
    # plateau, in criterion 5's terms: the 1 mm and 2 mm width reductions
    # against the confocal response differ by at most 1 point
    assert abs(width_reduction(FWHM_CONFOCAL, widths[0])
               - width_reduction(FWHM_CONFOCAL, widths[1])) <= 1.0


def test_fwhm_first_crossing_ignores_sidelobes():
    """An intensity that re-crosses 0.5 in a sidelobe keeps the first width."""
    def bumpy(y):
        base = math.exp(-(y / 1e-7) ** 2)
        sidelobe = 0.6 * math.exp(-(((y - 5e-7) / 5e-8) ** 2))
        return min(1.0, base + sidelobe)
    width = fwhm(bumpy, scan_range=1e-6)
    assert width == pytest.approx(2e-7 * math.sqrt(math.log(2.0)), rel=1e-6)


def test_fwhm_errors():
    with pytest.raises(ScanRangeError, match="widen"):
        fwhm(lambda y: 1.0, scan_range=1e-6)
    with pytest.raises(ScanRangeError):
        # range far too small for the widefield half-max crossing
        fwhm(lambda y: psf_widefield(y, CFG), scan_range=5e-8)
    with pytest.raises(TypeError, match="scan_range"):
        fwhm(lambda y: psf_widefield(y, CFG))  # missing scan_range
    with pytest.raises(ValueError):
        fwhm(lambda y: 0.5 * math.exp(-y * y), scan_range=1.0)  # not normalized
    with pytest.raises(TypeError, match="callable"):
        fwhm(3.14, scan_range=1e-6)


def test_width_reduction():
    assert width_reduction(0.260e-6, 0.130e-6) == pytest.approx(50.0, rel=1e-12)
    assert width_reduction(1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        width_reduction(0.0, 1.0)
    with pytest.raises(ValueError):
        width_reduction(1.0, -1.0)
