"""Gratings as sums over their diffraction orders, against independent
references: the widefield image in closed form, the confocal and twin
transfer values against dense quadratures of the kernels, and stripe
panels truncated at growing radii."""

import math

import numpy as np
import pytest

from twinfocal import coincidence
from twinfocal.coincidence import Grating, QuadratureSpec, kernel_field
from twinfocal.optics import MicroscopeConfig, r0
from twinfocal.psf import psf_widefield
from twinfocal.scansim import Instrument, Line, ScanPlan, scan
from twinfocal.specfun import airy_amp, bessel_j0

CFG8 = MicroscopeConfig(w0=8e-3)
BETA = 2.0 * math.pi * CFG8.a / (CFG8.lambda_o * CFG8.f)
PERIOD, DUTY = 2e-6, 0.5
OFFSETS = np.linspace(-1e-6, 1e-6, 17)


def widefield_closed_form(y: np.ndarray) -> np.ndarray:
    """The peak-normalised widefield image of the grating: every order
    ``m`` below ``2 beta`` weighted by ``duty sinc(m duty)`` and the disc
    OTF ``(2/pi) (acos s - s sqrt(1 - s^2))``, ``s = |g_m| / (2 beta)``."""
    image = np.zeros_like(y)
    for m in range(-20, 21):
        s = abs(2.0 * math.pi * m / PERIOD) / (2.0 * BETA)
        if s >= 1.0:
            continue
        otf = (2.0 / math.pi) * (math.acos(s) - s * math.sqrt(1.0 - s * s))
        c = DUTY if m == 0 else math.sin(math.pi * m * DUTY) / (math.pi * m)
        image += c * otf * np.cos(2.0 * math.pi * m / PERIOD * y)
    return image / image.max()


def gauss_legendre(lo: float, hi: float, panels: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    base, weight = np.polynomial.legendre.leggauss(n)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    nodes = (edges[:-1] + half)[:, None] + half[:, None] * base
    return nodes.ravel(), (half[:, None] * weight).ravel()


def stripe_panels(radius: float, n_y: int) -> np.ndarray:
    """The peak-normalised widefield image of the grating from stripe
    panels: the stripes whose centres lie within ``radius + period`` of
    the offset, each cut to ``|v_y| <= radius``, by a 48 x ``n_y``
    Gauss-Legendre rule."""
    half = 0.5 * DUTY * PERIOD
    gx, wx = gauss_legendre(-half, half, 1, 48)
    gy, wy = gauss_legendre(-radius, radius, 1, n_y)
    image = []
    for y in OFFSETS:
        total = 0.0
        for k in range(math.floor((y - radius) / PERIOD) - 1, math.ceil((y + radius) / PERIOD) + 2):
            if abs(k * PERIOD - y) < radius + PERIOD:
                vx = k * PERIOD + gx - y
                total += wx @ psf_widefield(np.hypot(vx[:, None], gy[None, :]), CFG8) @ wy
        image.append(total)
    return np.array(image) / max(image)


def test_widefield_grating_image_is_the_closed_form():
    """The widefield image of a 2 um grating, duty 0.5, w0 = 8 mm, at 17
    offsets is its 11-order closed form to 1e-12; its minimum is 0.0804."""
    plan = ScanPlan(Line(half_range=1e-6, samples=17), Instrument.WIDEFIELD)
    image = scan(plan, CFG8, Grating(PERIOD, DUTY)).values
    exact = widefield_closed_form(OFFSETS)
    assert np.abs(image - exact).max() <= 1e-12
    assert abs(image.min() - 0.0804) <= 5e-5


def test_stripe_panels_move_toward_the_order_sum():
    """Stripe panels cut at R = 6 r0, the radius they were once cut at, 2 R
    and 4 R (nodes along y in proportion) miss the order sum by 2.0e-2,
    1.1e-2 and 6.1e-3 of the peak: each doubling of the radius moves them
    closer, as the widefield response's algebraic tail falls off."""
    radius = 6.0 * r0(CFG8)
    exact = widefield_closed_form(OFFSETS)
    misses = [np.abs(stripe_panels(k * radius, 64 * k) - exact).max() for k in (1, 2, 4)]
    assert misses[0] > misses[1] > misses[2] > 1e-3
    assert misses[0] == pytest.approx(2.02e-2, rel=0.02)


def accepted(values: np.ndarray, reference: np.ndarray, mass: float) -> bool:
    """Within node doubling's tolerance of the default spec: 10 *
    target_rel_tol of the larger of the value and 1% of the mass."""
    scale = np.maximum(np.abs(reference), 0.01 * mass)
    return bool(np.all(np.abs(values - reference) <= 10.0 * 1e-8 * scale))


def test_confocal_transfer_values_match_a_dense_hankel_transform():
    """The confocal transfer values, from the OTF's autocorrelation, agree
    with ``2 pi integral airy_amp(beta r)^4 J0(q r) r dr`` over 2000 units
    of ``beta r`` (its tail beyond is below 1e-12 of the value at 0), by
    16 Gauss-Legendre nodes per unit."""
    orders = coincidence.grating_orders(Grating(PERIOD, DUTY), CFG8, None, 4)
    values = orders.transfer(orders.freq)
    x, w = gauss_legendre(0.0, 2000.0, 2000, 16)
    weight = (2.0 * math.pi / BETA ** 2) * w * x * airy_amp(x) ** 4
    reference = np.array([bessel_j0(q / BETA * x) @ weight for q in orders.freq])
    assert orders.freq.size == 12 and orders.freq[-1] < 4.0 * BETA
    assert accepted(values, reference, reference[0])
    assert np.abs(values - reference).max() <= 1e-12 * reference[0]


@pytest.mark.parametrize("cfg", [CFG8, MicroscopeConfig(w0=8e-3, lambda_o=650e-9,
                                                        lambda_e=351e-9 * 650 / 299)],
                         ids=["degenerate", "non_degenerate"])
def test_twin_transfer_values_match_a_dense_square_rule(cfg):
    """The twin transfer values, Hankel transforms of ``K`` on radial
    panels, agree with ``integral K(v) cos(q v_x) d^2 v`` over the square
    of half side ``6 r0`` by 32 x 32 panels of 16 nodes, a rule that
    shares nothing with them but ``kernel_field``, nor their radius."""
    orders = coincidence.grating_orders(Grating(PERIOD, DUTY), cfg, None, None)
    values = orders.transfer(orders.freq)
    radius = 6.0 * r0(cfg)
    x, w = gauss_legendre(-radius, radius, 32, 16)
    along_x = kernel_field(x[:, None], x[None, :], cfg) @ w  # integrated over v_y
    reference = np.cos(np.outer(orders.freq, x)) @ (w * along_x)
    mass = w @ np.abs(kernel_field(x[:, None], x[None, :], cfg)) @ w
    assert accepted(values, reference, mass)
    assert np.abs(values - reference).max() <= 1e-12 * abs(reference[0])


@pytest.mark.parametrize("alphas", [(1.0, 1.0), (1.0, 0.6), (0.3, 1.0)])
def test_lens_transfer_is_the_shared_area_of_two_discs(alphas):
    """``_lens_transfer`` is ``4 / (a1^2 a2^2)`` times the area two discs of
    radii ``a1`` and ``a2`` share ``q`` apart, here integrated in polar
    coordinates about the first disc's centre: the arc of radius ``r``
    inside the second disc spans ``2 acos((r^2 + q^2 - a2^2) / (2 r q))``,
    split where it starts and stops, with ``r`` graded towards the square
    roots there (``r - lo`` and ``hi - r`` as ``t^2``)."""
    a1, a2 = alphas
    q = np.linspace(0.0, 2.2, 23)
    values = coincidence._lens_transfer(q, a1, a2)
    for qk, value in zip(q, values):
        if qk == 0.0:
            area = math.pi * min(a1, a2) ** 2
        else:
            area = 0.0
            edges = sorted({0.0, a1} | {e for e in (abs(qk - a2), qk + a2) if 0.0 < e < a1})
            for lo, hi in zip(edges[:-1], edges[1:]):
                t, w = gauss_legendre(0.0, 1.0, 20, 20)
                r, w = lo + (hi - lo) * t * t * (3.0 - 2.0 * t), (hi - lo) * 6.0 * t * (1.0 - t) * w
                cosine = np.clip((r * r + qk * qk - a2 * a2) / (2.0 * r * qk), -1.0, 1.0)
                area += w @ (2.0 * np.arccos(cosine) * r)
        assert value == pytest.approx(4.0 * area / (a1 * a2) ** 2, abs=1e-9)


def test_flat_pump_twin_grating_is_the_widefield_image_at_doubled_frequency():
    """With a flat pump the degenerate twin kernel is the widefield
    response at twice the argument, so its transfer value at ``q`` is the
    widefield one at ``q / 2``, over 4."""
    flat = MicroscopeConfig(w0=8e-3, pump_gaussian=False)
    twin = coincidence.grating_orders(Grating(PERIOD, DUTY), flat, None, None)
    wide = coincidence.grating_orders(Grating(2.0 * PERIOD, DUTY), flat, None, 2)
    assert np.allclose(twin.transfer(twin.freq), 0.25 * wide.transfer(wide.freq)[:twin.freq.size],
                       rtol=1e-13, atol=0.0)


def test_transfer_values_that_keep_moving_raise_quadrature_error():
    """Transfer values are kept per order once a doubling moves them by at
    most 10 * tol of their scale; an order still moving at the last rung
    raises the panel integrals' ``QuadratureError``, with its own move.
    Both go through the one loop of node doubling."""
    freq = np.array([1.0, 2.0])

    def evaluate(pending, nodes):  # order 1 converges at once, order 2 never
        return np.where(freq[pending] == 2.0, 1.0 + 1.0 / nodes, 1.0)

    with pytest.raises(coincidence.QuadratureError,
                       match=r"moved the result by 1\.515e-02 relative \(target 1\.0e-08\)"):
        coincidence._node_doubling(evaluate, [8, 16, 32, 64], evaluate(np.arange(2), 8), 1.0,
                                   1e-8)
    converged = coincidence._node_doubling(lambda pending, n: np.ones(pending.size), [8, 16],
                                           np.ones(2), 1.0, 1e-8)
    assert np.array_equal(converged, [1.0, 1.0])


def test_grating_refusals_come_before_any_transfer_value():
    """A twin transform that would reach beyond the tested range of
    ``bessel_j0``, and a classical response without its Airy power, are
    refused when the grating is admitted, before any kernel call."""
    offsets = np.zeros((1, 2))
    with pytest.raises(coincidence.ConfigError, match=r"evaluate J0 at 1\.25e\+06, beyond 100000"):
        coincidence.sample_amplitudes(Grating(PERIOD, DUTY), offsets, CFG8,
                                      QuadratureSpec(truncation_radius=1e-2))
    with pytest.raises(coincidence.ConfigError, match="airy_power, 2 or 4, got None"):
        coincidence.sample_amplitudes(Grating(PERIOD, DUTY), offsets, CFG8, None, psf_widefield)
