"""Bessel and Airy-amplitude evaluation accuracy and identities."""

import math

import numpy as np
import pytest

from conftest import reference_j0, reference_j1, reference_jn

from twinfocal.specfun import airy_amp, bessel_j0, bessel_j1

# Classic frozen values (series-verified to 50 digits by the reference
# oracle; literals kept for readability).
J0_AT_1 = 0.7651976865579666
J1_AT_1 = 0.4400505857449335
J0_FIRST_ZERO = 2.404825557695773
J1_FIRST_ZERO = 3.831705970207512


def test_frozen_point_values():
    assert bessel_j0(1.0) == pytest.approx(J0_AT_1, abs=1e-14)
    assert bessel_j1(1.0) == pytest.approx(J1_AT_1, abs=1e-14)
    assert reference_j0(1.0) == pytest.approx(J0_AT_1, abs=1e-15)
    assert reference_j1(1.0) == pytest.approx(J1_AT_1, abs=1e-15)


def test_first_zeros():
    assert abs(bessel_j0(J0_FIRST_ZERO)) < 1e-12
    assert abs(bessel_j1(J1_FIRST_ZERO)) < 1e-12
    # airy_amp shares J1's zeros
    assert abs(airy_amp(J1_FIRST_ZERO)) < 1e-12


def test_accuracy_against_reference_series_both_branches():
    """Absolute error <= 1e-12 across [0, 50], covering the series branch,
    the asymptotic branch, and the switchover at |x| = 12."""
    xs = np.concatenate([
        np.linspace(0.0, 50.0, 401),
        np.array([11.999999999, 12.0, 12.000000001, 11.5, 12.5]),
    ])
    j0 = bessel_j0(xs)
    j1 = bessel_j1(xs)
    for x, v0, v1 in zip(xs, j0, j1):
        assert abs(v0 - reference_j0(float(x))) <= 1e-12
        assert abs(v1 - reference_j1(float(x))) <= 1e-12


def test_recurrence_identity():
    """J0(x) + J2(x) = (2/x) J1(x) on a dense grid."""
    xs = np.linspace(0.1, 30.0, 500)
    j2 = np.array([reference_jn(2, float(x)) for x in xs])
    lhs = bessel_j0(xs) + j2
    rhs = 2.0 / xs * bessel_j1(xs)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_derivative_identity():
    """J0'(x) = -J1(x), checked by central differences of J0.

    The step balances truncation against the ~5e-13 evaluation error
    (noise/h + h^2/6 is minimized near h = 1e-4, giving ~1e-8)."""
    xs = np.linspace(0.2, 40.0, 300)
    h = 1e-4
    deriv = (bessel_j0(xs + h) - bessel_j0(xs - h)) / (2.0 * h)
    assert np.max(np.abs(deriv + bessel_j1(xs))) <= 5e-8


def test_parity():
    xs = np.linspace(0.1, 49.0, 97)
    assert np.array_equal(bessel_j0(-xs), bessel_j0(xs))
    assert np.array_equal(bessel_j1(-xs), -bessel_j1(xs))
    assert np.array_equal(airy_amp(-xs), airy_amp(xs))


def test_airy_amp_basics():
    assert airy_amp(0.0) == 1.0
    vs = np.linspace(0.0, 100.0, 4001)
    vals = airy_amp(vs)
    assert np.all(np.abs(vals) <= 1.0)
    # interior values match 2 J1(v)/v
    inner = vs[1:]
    assert np.allclose(airy_amp(inner), 2.0 * bessel_j1(inner) / inner,
                       rtol=0.0, atol=1e-15)


def test_scalar_and_array_return_types():
    assert isinstance(bessel_j0(0.5), float)
    assert isinstance(bessel_j1(np.float64(0.5)), float)
    assert isinstance(airy_amp(0.5), float)
    out = bessel_j0(np.array([0.5, 13.0]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)


def test_non_finite_input_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            bessel_j0(bad)
        with pytest.raises(ValueError):
            bessel_j1(np.array([0.1, bad]))
        with pytest.raises(ValueError):
            airy_amp(bad)

