"""Shared independent oracles for the test suite.

The reference Bessel functions here are deliberately implemented from a
different formula family than the package (plain ascending series in
60-digit decimal arithmetic, no branch switching, no compensation
tricks), so agreement is evidence rather than repetition.
"""

from __future__ import annotations

from decimal import Decimal, getcontext

import numpy as np

getcontext().prec = 60

_DECIMAL_TINY = Decimal(10) ** -50


def reference_jn(n: int, x: float) -> float:
    """J_n(x) by the ascending power series in 60-digit decimals.

    Valid for |x| up to ~60 where the worst cancellation still leaves
    well over 30 correct digits.
    """
    xd = Decimal(repr(float(x)))
    sign = Decimal(1)
    if xd < 0:
        xd = -xd
        if n % 2:
            sign = Decimal(-1)
    half = xd / 2
    quarter = half * half
    term = Decimal(1)
    for k in range(1, n + 1):
        term = term * half / k
    total = term
    m = 1
    while True:
        term = -term * quarter / (m * (m + n))
        total += term
        if abs(term) < _DECIMAL_TINY * max(Decimal(1), abs(total)):
            break
        m += 1
        if m > 400:
            raise RuntimeError("reference series did not converge")
    return float(sign * total)


def reference_j0(x: float) -> float:
    return reference_jn(0, x)


_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459230781640628")


def _decimal_cos(x: Decimal) -> Decimal:
    """cos(x) by its Taylor series after reduction to [-pi, pi]."""
    x -= 2 * _PI * (x / (2 * _PI)).to_integral_value()
    term = total = Decimal(1)
    k = 0
    while abs(term) > _DECIMAL_TINY:
        k += 2
        term = -term * x * x / (k * (k - 1))
        total += term
    return total


def reference_j0_far(x: float) -> float:
    """J0(x) for 50 <= x, where the ascending series would need ever more
    digits, by Hankel's asymptotic expansion in 60-digit decimals, summed
    until its terms fall below 1e-40 (they do near k = 80 at x = 50,
    before they start to grow near k = 2 x), with cosine and sine from
    their Taylor series: the family of the package's large-argument
    branch, without its float rounding, its tangent form or its 24-term
    cut."""
    xd = Decimal(repr(float(x)))
    assert xd >= 50
    chi = xd - _PI / 4
    p = q = Decimal(0)
    term = Decimal(1)  # a_k / x^k, a_k = prod_{i<=k} -(2i - 1)^2 / (8 i)
    k = 0
    while abs(term) > Decimal(10) ** -40:
        if k % 2 == 0:
            p += term if k % 4 == 0 else -term
        else:
            q += term if k % 4 == 1 else -term
        k += 1
        term = -term * (2 * k - 1) ** 2 / (8 * k * xd)
    root = (2 / (_PI * xd)).sqrt()
    return float(root * (p * _decimal_cos(chi) - q * _decimal_cos(chi - _PI / 2)))


def reference_j1(x: float) -> float:
    return reference_jn(1, x)


def reference_airy_intensity(v: float) -> float:
    """(2 J1(v)/v)^2 from the reference series."""
    if v == 0.0:
        return 1.0
    amp = 2.0 * reference_j1(v) / v
    return amp * amp


def reference_half_crossing(intensity, lo: float, hi: float, tol: float = 1e-13) -> float:
    """Bisect intensity(y) = 0.5 on [lo, hi]; intensity(lo) must be > 0.5."""
    if not (intensity(lo) > 0.5 > intensity(hi)):
        raise ValueError("bracket does not straddle the half maximum")
    while (hi - lo) > tol * hi:
        mid = 0.5 * (lo + hi)
        if intensity(mid) > 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def riemann_amplitude(kernel, transmittance, offset: tuple[float, float],
                      span: float, n: int) -> complex:
    """Midpoint Cartesian Riemann sum of t(u) * kernel(u - offset) over a
    centered span x span square with n x n cells."""
    xs = (np.arange(n) + 0.5) / n * span - 0.5 * span
    dx = span / n
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    values = transmittance(X, Y) * kernel(X - offset[0], Y - offset[1])
    return complex(values.sum() * dx * dx)
