"""Shared independent oracles for the test suite.

The reference Bessel functions here are deliberately implemented from a
different formula family than the package (plain ascending series in
60-digit decimal arithmetic, no branch switching, no compensation
tricks), so agreement is evidence rather than repetition.  The scan
reference (``reference_scan``) integrates every lit cell of a slit or
raster on its own, at its true displacement from each offset, with no
key, table, drop or node ladder of the package.
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


def lit_cells(sample, coherent: bool):
    """The panel cells of a ``Slit`` or ``Raster``: their centres [m], one
    row each in pixel order, their weights (``t``, or ``|t|^2`` for an
    incoherent image) and their half-width [m]."""
    if hasattr(sample, "grid"):  # a raster
        grid, pitch = sample.grid, sample.pitch
    else:  # a slit: one cell of pitch ``width``
        grid, pitch = np.ones((1, 1)), sample.width
    rows, cols = grid.shape
    ii, jj = np.nonzero(grid)
    centres = np.column_stack([(jj - 0.5 * (cols - 1)) * pitch, (ii - 0.5 * (rows - 1)) * pitch])
    weights = grid[ii, jj] if coherent else np.abs(grid[ii, jj]) ** 2
    return centres, weights, 0.5 * pitch


def panel_rule(cells, offsets, kern, n: int) -> np.ndarray:
    """``sum_k w_k integral kern(c_k + g - y) d^2 g`` over the square
    panels ``|g_x|, |g_y| <= half`` of ``cells`` (``lit_cells``) at every
    offset ``y`` (rows of ``offsets``), each panel by the tensor
    Gauss-Legendre rule of ``n`` nodes a side at the cell's true
    displacement from the offset."""
    centres, weights, half = cells
    base, w = np.polynomial.legendre.leggauss(n)
    g, w = half * base, half * w
    d = centres[None, :, :] - offsets[:, None, :]
    values = np.empty(offsets.shape[0], dtype=complex)
    step = max(1, 2 ** 18 // (centres.shape[0] * n * n))  # offsets per kernel call
    for lo in range(0, offsets.shape[0], step):
        x, y = d[lo:lo + step, :, 0, None, None], d[lo:lo + step, :, 1, None, None]
        panels = kern(x + g[:, None], y + g[None, :])
        values[lo:lo + step] = np.einsum("mkij,i,j->mk", panels, w, w) @ weights
    return values


def reference_scan(cells, offsets, kern, n: int):
    """``panel_rule`` at ``2 n`` nodes, and how far it moved from ``n``
    nodes at each offset.  The move is held to 1e-12 of the peak: the
    rule at ``n`` nodes has converged."""
    coarse, fine = panel_rule(cells, offsets, kern, n), panel_rule(cells, offsets, kern, 2 * n)
    moved = np.abs(fine - coarse)
    assert moved.max() <= 1e-12 * np.abs(fine).max(), moved.max() / np.abs(fine).max()
    return fine, moved
