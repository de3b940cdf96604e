"""Microscope geometry validation and derived pump-focus quantities.

Frozen expected values were computed independently from the closed
forms with plain arithmetic:

    r0          = lambda_p f_p / (sqrt(2) pi w0)        = 1.5800551349e-6 m
    sigma_p_sq  = (c/omega_p)(d - f_p) - i (c/omega_p)(lambda_p/(pi w0^2)) f_p^2
                = -2.4965742292e-12 i m^2  (at d = f_p)
    eta0_inv_sq = 1/r0^2 - 2 i omega_p/(s0 c)
                = 4.0054887546e11 - 1.7900812841e9 i m^-2
    airy_radius = 1.22 lambda_o f / (2 a)               = 4.2822e-7 m
    crossover   = lambda_p f_p / (sqrt(2) pi airy_radius) = 3.6898209679e-3 m
"""

import math

import numpy as np
import pytest

from twinfocal.errors import ConfigError
from twinfocal.optics import (
    SPEED_OF_LIGHT,
    MicroscopeConfig,
    airy_radius,
    angular_frequency,
    crossover_waist,
    eta0_inv_sq,
    pump_focus,
    r0,
    sigma_p_sq,
)

R0_REFERENCE = 1.5800551348557214e-06
SIGMA_IM_REFERENCE = -2.496574229183932e-12
ETA0_RE_REFERENCE = 4.005488754591827e11
ETA0_IM_REFERENCE = -1.790081284096748e9
AIRY_REFERENCE = 4.2822e-07
CROSSOVER_REFERENCE = 3.6898209678569924e-03


def test_angular_frequency():
    omega = angular_frequency(351e-9)
    assert omega == pytest.approx(2.0 * math.pi * SPEED_OF_LIGHT / 351e-9, rel=1e-15)
    for bad in (0.0, -1e-9, math.inf, math.nan):
        with pytest.raises(ConfigError):
            angular_frequency(bad)


def test_default_config_resolves_degenerate_pair():
    cfg = MicroscopeConfig()
    assert cfg.lambda_o == cfg.lambda_e == 2.0 * cfg.lambda_p
    assert cfg.s0 == cfg.f
    assert cfg.d == cfg.f_p
    assert math.isinf(cfg.s1)
    assert cfg.pump_gaussian
    # omega_o + omega_e = omega_p for the degenerate pair
    assert cfg.omega_o + cfg.omega_e == pytest.approx(cfg.omega_p, rel=1e-12)


def test_energy_conservation_enforced():
    # a consistent non-degenerate pair passes: 1/680 + 1/725.51... = 1/351
    lam_o = 680e-9
    lam_e = 1.0 / (1.0 / 351e-9 - 1.0 / lam_o)
    cfg = MicroscopeConfig(lambda_o=lam_o, lambda_e=lam_e)
    assert cfg.omega_o + cfg.omega_e == pytest.approx(cfg.omega_p, rel=1e-9)
    with pytest.raises(ConfigError):
        MicroscopeConfig(lambda_o=680e-9, lambda_e=702e-9)


def test_geometry_validation():
    with pytest.raises(ConfigError):
        MicroscopeConfig(w0=-1e-3)
    with pytest.raises(ConfigError):
        MicroscopeConfig(a=0.0)
    with pytest.raises(ConfigError):
        MicroscopeConfig(f=math.inf)
    # waist may not exceed the aperture
    with pytest.raises(ConfigError):
        MicroscopeConfig(w0=3e-2)
    assert MicroscopeConfig(w0=2e-2).w0 == 2e-2  # equality allowed


@pytest.mark.parametrize("geometry", [dict(w0=1e-300), dict(f_p=1e300),
                                      dict(lambda_p=1e-300)],
                         ids=["w0_squared_underflows", "f_p_squared_overflows",
                              "carriers_overflow"])
def test_geometry_without_a_finite_pump_focus_is_refused(geometry):
    with pytest.raises(ConfigError, match="r0 and eta0_inv_sq must be positive and finite"):
        MicroscopeConfig(**geometry)


def test_r0_closed_forms_agree_for_every_admitted_waist():
    """Tiny waists are refused at construction, or r0 has its closed form;
    from about 2.5e-158 to 7.9e-157 m w0**2 is subnormal and the two
    forms part, which is an input error, not a numerical one."""
    refused = 0
    for w0 in np.logspace(-170, -140, 301):
        try:
            cfg = MicroscopeConfig(w0=float(w0))
        except ConfigError:
            refused += 1
            continue
        alt = cfg.lambda_p * cfg.f_p / (math.sqrt(2.0) * math.pi * cfg.w0)
        assert r0(cfg) == pytest.approx(alt, rel=1e-12, abs=0.0)
    assert 0 < refused < 301
    with pytest.raises(ConfigError, match="r0's closed forms disagree"):
        MicroscopeConfig(w0=1e-157)


def test_pump_gaussian_must_be_a_bool():
    """A truthy string does not switch the envelope on: only bools,
    numpy's included, are accepted."""
    for value in ("no", 0, None):
        with pytest.raises(ConfigError, match="pump_gaussian must be a bool"):
            MicroscopeConfig(pump_gaussian=value)
    assert MicroscopeConfig(pump_gaussian=np.bool_(False)).pump_gaussian == np.False_


def test_imaging_condition_only_when_s1_finite():
    # 1/s0 + 1/s1 = 1/f: s0 = s1 = 2f works
    cfg = MicroscopeConfig(s0=4e-2, s1=4e-2)
    assert cfg.s1 == 4e-2
    with pytest.raises(ConfigError):
        MicroscopeConfig(s0=4e-2, s1=3e-2)
    # collimated arm: no constraint on s0
    assert math.isinf(MicroscopeConfig(s0=4e-2).s1)


def test_numerical_aperture_metadata():
    cfg = MicroscopeConfig()
    assert cfg.numerical_aperture == pytest.approx(math.sin(math.atan2(2e-2, 2e-2)),
                                                   rel=1e-15)
    assert cfg.numerical_aperture == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


def test_r0_frozen_value():
    cfg = MicroscopeConfig()
    assert r0(cfg) == pytest.approx(R0_REFERENCE, rel=1e-12)
    # closed form recomputed inline
    assert r0(cfg) == pytest.approx(
        351e-9 * 2e-2 / (math.sqrt(2.0) * math.pi * 1e-3), rel=1e-12)
    # inverse proportionality to the waist
    assert r0(MicroscopeConfig(w0=8e-3)) == pytest.approx(R0_REFERENCE / 8.0, rel=1e-12)


def test_sigma_p_sq_frozen_value():
    cfg = MicroscopeConfig()
    value = sigma_p_sq(cfg)
    assert value.real == 0.0  # d = f_p exactly cancels the real part
    assert value.imag == pytest.approx(SIGMA_IM_REFERENCE, rel=1e-12)
    # independent arithmetic for the imaginary part
    expected = -(351e-9 / (2.0 * math.pi)) * (351e-9 / (math.pi * 1e-6)) * 4e-4
    assert value.imag == pytest.approx(expected, rel=1e-12)
    # -Im(sigma_p_sq) equals r0^2
    assert -value.imag == pytest.approx(r0(cfg) ** 2, rel=1e-14)
    # defocus shows up in the real part with the c/omega_p scale
    shifted = sigma_p_sq(MicroscopeConfig(d=2.1e-2))
    assert shifted.real == pytest.approx(
        (351e-9 / (2.0 * math.pi)) * 1e-3, rel=1e-12)
    assert shifted.imag == value.imag


def test_eta0_inv_sq_frozen_value():
    cfg = MicroscopeConfig()
    value = eta0_inv_sq(cfg)
    assert value.real == pytest.approx(ETA0_RE_REFERENCE, rel=1e-9)
    assert value.imag == pytest.approx(ETA0_IM_REFERENCE, rel=1e-9)
    # definitions hold exactly
    assert value.real == pytest.approx(1.0 / r0(cfg) ** 2, rel=1e-14)
    assert value.imag == pytest.approx(-2.0 * cfg.omega_p / (cfg.s0 * SPEED_OF_LIGHT),
                                       rel=1e-14)
    # independent route for the imaginary part: -4 pi / (lambda_p s0)
    assert value.imag == pytest.approx(-4.0 * math.pi / (351e-9 * 2e-2), rel=1e-12)


def test_airy_radius_frozen_value():
    cfg = MicroscopeConfig()
    assert airy_radius(cfg) == pytest.approx(AIRY_REFERENCE, rel=1e-12)
    assert airy_radius(cfg) == pytest.approx(1.22 * 702e-9 * 2e-2 / (2.0 * 2e-2),
                                             rel=1e-12)


def test_crossover_waist_matches_r0_equality():
    cfg = MicroscopeConfig()
    w_star = crossover_waist(cfg)
    assert w_star == pytest.approx(CROSSOVER_REFERENCE, rel=1e-12)
    # at the crossover waist the pump spot radius equals the Airy radius
    assert r0(MicroscopeConfig(w0=w_star)) == pytest.approx(airy_radius(cfg),
                                                            rel=1e-12)


def test_pump_focus_bundle_consistent():
    cfg = MicroscopeConfig(w0=8e-3)
    bundle = pump_focus(cfg)
    assert bundle.sigma_p_sq == sigma_p_sq(cfg)
    assert bundle.r0 == r0(cfg)
    assert bundle.eta0_inv_sq == eta0_inv_sq(cfg)


def test_quantities_scale_with_s0():
    # eta0's imaginary part halves when the crystal-to-lens distance doubles
    near = eta0_inv_sq(MicroscopeConfig())
    far = eta0_inv_sq(MicroscopeConfig(s0=4e-2, s1=4e-2))
    assert far.imag == pytest.approx(near.imag / 2.0, rel=1e-12)
    assert far.real == near.real
