"""Coincidence amplitude quadrature, dispersion quantities, and the gate.

The independent oracles here are midpoint Cartesian Riemann sums against
a kernel rebuilt in-test from its definition, plus analytic derivatives
of toy index models.  Riemann grids are chosen so transmittance edges
land exactly on cell boundaries (otherwise the oracle's own edge error
exceeds the tolerances being certified).
"""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import riemann_amplitude

from twinfocal.errors import ConfigError, QuadratureError
from twinfocal.optics import SPEED_OF_LIGHT, MicroscopeConfig, airy_radius, eta0_inv_sq, r0
from twinfocal.psf import psf_confocal, psf_twin
from twinfocal.scansim import Grid, Instrument, ScanPlan, scan
from twinfocal.specfun import Workspace, _workspace, airy_amp
from twinfocal import coincidence
from twinfocal.coincidence import (
    Delta,
    DispersionModel,
    Grating,
    QuadratureSpec,
    Raster,
    Slit,
    TwoPoint,
    amplitude,
    coincidence_rate,
    delay_window,
    gate,
    inv_group_velocity,
    kernel_field,
    longitudinal_k,
    walkoff_Ne,
    wavenumber_K,
)

CFG8 = MicroscopeConfig(w0=8e-3)
R_AIRY = airy_radius(CFG8)

# toy crystal: ordinary index with group-velocity dispersion, slower
# extraordinary index constant -> positive group-delay mismatch D
N_O_SLOPE = 2.0e-17


def toy_n_o(omega: float) -> float:
    return 1.60 + N_O_SLOPE * omega


def toy_n_e(omega: float, psi: float) -> float:
    return 1.55


TOY_DISP = DispersionModel(n_o=toy_n_o, n_e=toy_n_e, psi=math.radians(49.0),
                           theta_e=math.radians(3.0), L=1e-3)


def kernel_formula(vx, vy, cfg):
    """The coincidence kernel rebuilt from its derivation.

    The pump amplitude exp(-w^2 / (2 r0^2)) and the pupil transforms
    airy_amp(Omega_j a w / (s0 c)) are taken at the doubled coordinate
    w = 2|v|; the Fresnel phase of both photons over both legs,
    omega_p |v|^2 / (s0 c), at |v| itself.
    """
    vx = np.asarray(vx, dtype=float)
    vy = np.asarray(vy, dtype=float)
    r_sq = vx * vx + vy * vy
    doubled = 2.0 * np.sqrt(r_sq)
    scale = cfg.a / (cfg.s0 * SPEED_OF_LIGHT)
    envelope = (np.exp(-doubled * doubled / (2.0 * r0(cfg) ** 2)
                       + 1j * cfg.omega_p * r_sq / (cfg.s0 * SPEED_OF_LIGHT))
                if cfg.pump_gaussian else 1.0)
    return envelope * airy_amp(cfg.omega_o * scale * doubled) \
        * airy_amp(cfg.omega_e * scale * doubled)


# ----------------------------------------------------------------------------
# type validation
# ----------------------------------------------------------------------------

def test_sample_validation():
    with pytest.raises(ConfigError):
        TwoPoint(separation=0.0)
    with pytest.raises(ConfigError):
        Slit(width=-1e-7)
    with pytest.raises(ConfigError):
        Grating(period=1e-6, duty=1.0)
    with pytest.raises(ConfigError):
        Grating(period=0.0)
    with pytest.raises(ConfigError):
        Raster(pitch=1e-7, grid=np.array([[2.0]]))
    with pytest.raises(ConfigError):
        Raster(pitch=1e-7, grid=np.zeros((0, 3)))
    Raster(pitch=1e-7, grid=np.array([[0.5 + 0.5j]]))  # |t| < 1 allowed


def test_dispersion_model_validation():
    with pytest.raises(ConfigError):
        DispersionModel(n_o=toy_n_o, n_e=toy_n_e, psi=0.0)
    with pytest.raises(ConfigError):
        DispersionModel(n_o=toy_n_o, n_e=toy_n_e, psi=math.pi / 2)
    with pytest.raises(ConfigError):
        DispersionModel(n_o=toy_n_o, n_e=toy_n_e, psi=0.5, L=0.0)
    with pytest.raises(ConfigError):
        DispersionModel(n_o=1.6, n_e=toy_n_e, psi=0.5)


def test_quadrature_spec_validation():
    with pytest.raises(ConfigError):
        QuadratureSpec(radial_nodes=4)
    with pytest.raises(ConfigError):
        QuadratureSpec(angular_nodes=0)
    with pytest.raises(ConfigError):
        QuadratureSpec(truncation_radius=-1e-6)
    for tol in (0.0, 0.1, 0.5, math.inf, math.nan):
        with pytest.raises(ConfigError, match="tolerance"):
            QuadratureSpec(target_rel_tol=tol)
    for radius in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="finite"):
            QuadratureSpec(truncation_radius=radius)
    with pytest.raises(ConfigError, match="integers"):
        QuadratureSpec(radial_nodes=48.5)
    with pytest.raises(ConfigError, match="integers"):
        QuadratureSpec(angular_nodes=384.0)


def test_quadrature_spec_caps_panel_points():
    """A node count whose last doubling would put more than the cap into
    one panel is refused when the spec is built, before any kernel is
    evaluated; the message gives the count and the memory."""
    cap = coincidence._MAX_PANEL_POINTS
    with pytest.raises(ConfigError, match=r"16000000000000 kernel points.*MiB"):
        QuadratureSpec(radial_nodes=10**6)
    # angular_nodes governs no panel: any count is accepted and changes nothing
    offsets = np.column_stack([np.linspace(-1e-6, 1e-6, 9), np.zeros(9)])
    wide = QuadratureSpec(angular_nodes=1 << 20)
    assert coincidence.sample_amplitudes(Slit(5e-7), offsets, CFG8, wide).tobytes() == \
        coincidence.sample_amplitudes(Slit(5e-7), offsets, CFG8, QuadratureSpec()).tobytes()
    # a square panel at the last doubling: 4 radial counts squared
    with pytest.raises(ConfigError, match=r"kernel points per panel"):
        QuadratureSpec(radial_nodes=math.isqrt(cap // 16) + 1, angular_nodes=8)
    QuadratureSpec(radial_nodes=math.isqrt(cap // 16), angular_nodes=8)
    # the default panel at the last doubling: 192 x 192 points
    assert (4 * 48) ** 2 == 36_864 < cap // 4


# ----------------------------------------------------------------------------
# dispersion quantities
# ----------------------------------------------------------------------------

def test_wavenumber():
    omega = CFG8.omega_o
    assert wavenumber_K(toy_n_o, omega) == pytest.approx(
        omega * (1.60 + N_O_SLOPE * omega) / SPEED_OF_LIGHT, rel=1e-14)
    with pytest.raises(ConfigError):
        wavenumber_K(toy_n_o, 0.0)
    with pytest.raises(ValueError):
        wavenumber_K(lambda w: 1.0 / 0.0, omega)


def test_inv_group_velocity_linear_and_quadratic_toys():
    omega = CFG8.omega_o
    # constant index: 1/u = n/c
    assert inv_group_velocity(lambda w: 1.55, omega) == pytest.approx(
        1.55 / SPEED_OF_LIGHT, rel=1e-9)
    # linear: d(w n)/dw = 1.60 + 2 b w
    expected = (1.60 + 2.0 * N_O_SLOPE * omega) / SPEED_OF_LIGHT
    assert inv_group_velocity(toy_n_o, omega) == pytest.approx(expected, rel=1e-9)
    # quadratic: d(w (a + b w + c w^2))/dw = a + 2 b w + 3 c w^2
    b, c2 = 1.0e-17, 2.0e-33
    quad_n = lambda w: 1.5 + b * w + c2 * w * w  # noqa: E731
    expected = (1.5 + 2.0 * b * omega + 3.0 * c2 * omega * omega) / SPEED_OF_LIGHT
    assert inv_group_velocity(quad_n, omega) == pytest.approx(expected, rel=1e-9)


def test_walkoff_against_analytic_derivative():
    omega = CFG8.omega_e
    k = 0.12
    n_e = lambda w, psi: 1.55 + k * math.sin(psi) ** 2  # noqa: E731
    psi = math.radians(49.0)
    expected = k * math.sin(2.0 * psi) / (1.55 + k * math.sin(psi) ** 2)
    assert walkoff_Ne(n_e, omega, psi) == pytest.approx(expected, rel=1e-8)
    with pytest.raises(ConfigError):
        walkoff_Ne(n_e, omega, 0.0)


def test_longitudinal_k_ordinary_assembly():
    omega = CFG8.omega_o
    nu = 3.0e12
    q = 1.0e5
    K = omega * toy_n_o(omega) / SPEED_OF_LIGHT
    u_inv = (1.60 + 2.0 * N_O_SLOPE * omega) / SPEED_OF_LIGHT
    expected = K + nu * u_inv - q * q / (2.0 * K)
    value = longitudinal_k("ordinary", TOY_DISP, omega, nu, q)
    assert value == pytest.approx(expected, rel=1e-9)


def test_longitudinal_k_extraordinary_assembly():
    omega = CFG8.omega_e
    nu = -2.0e12
    q = 1.0e5
    k = 0.12
    n_e = lambda w, psi: 1.50 + k * math.sin(psi) ** 2  # noqa: E731
    psi = math.radians(49.0)
    theta_e = math.radians(3.0)
    disp = DispersionModel(n_o=toy_n_o, n_e=n_e, psi=psi, theta_e=theta_e, L=1e-3)
    n_along = 1.50 + k * math.sin(psi) ** 2
    K = omega * n_along / SPEED_OF_LIGHT
    u_inv = n_along / SPEED_OF_LIGHT  # omega-independent index
    walkoff = k * math.sin(2.0 * psi) / n_along
    expected = (K + nu * u_inv - walkoff * q * math.cos(theta_e)
                + (q * q / (2.0 * K)) * (walkoff / math.tan(psi) - 1.0))
    value = longitudinal_k("extraordinary", disp, omega, nu, q)
    assert value == pytest.approx(expected, rel=1e-9)


def test_longitudinal_k_carrier_reduction():
    """nu = 0, k_perp = 0 collapses both branches to the carrier wavenumber."""
    omega = CFG8.omega_o
    assert longitudinal_k("ordinary", TOY_DISP, omega, 0.0, 0.0) == pytest.approx(
        wavenumber_K(toy_n_o, omega), rel=1e-12)
    n_along = lambda w: toy_n_e(w, TOY_DISP.psi)  # noqa: E731
    assert longitudinal_k("extraordinary", TOY_DISP, omega, 0.0, 0.0) == pytest.approx(
        wavenumber_K(n_along, omega), rel=1e-12)
    with pytest.raises(ConfigError):
        longitudinal_k("sideways", TOY_DISP, omega, 0.0, 0.0)


def test_gate_window_constant_indices():
    """With constant indices D L = (n_o - n_e) L / c analytically."""
    disp = DispersionModel(n_o=lambda w: 1.60, n_e=lambda w, psi: 1.55,
                           psi=0.5, L=1e-3)
    window = delay_window(disp, CFG8.omega_o, CFG8.omega_e)
    assert window == pytest.approx((1.60 - 1.55) * 1e-3 / SPEED_OF_LIGHT, rel=1e-9)
    inside = 0.5 * window
    assert gate(inside, disp, CFG8.omega_o, CFG8.omega_e) == 1.0
    assert gate(0.0, disp, CFG8.omega_o, CFG8.omega_e) == 0.0
    assert gate(window, disp, CFG8.omega_o, CFG8.omega_e) == 0.0
    assert gate(2.0 * window, disp, CFG8.omega_o, CFG8.omega_e) == 0.0
    assert gate(-inside, disp, CFG8.omega_o, CFG8.omega_e) == 0.0


def test_gate_closed_when_mismatch_non_positive():
    slow_e = DispersionModel(n_o=lambda w: 1.55, n_e=lambda w, psi: 1.60,
                             psi=0.5, L=1e-3)
    assert delay_window(slow_e, CFG8.omega_o, CFG8.omega_e) < 0.0
    for t12 in (-1e-13, 0.0, 1e-13, 1e-12):
        assert gate(t12, slow_e, CFG8.omega_o, CFG8.omega_e) == 0.0


@pytest.mark.parametrize("n_o, n_e, message", [
    (lambda w: 0.9, toy_n_e, "n_o must be >= 1"),
    (toy_n_o, lambda w, psi: 0.9, "n_e must be >= 1"),
], ids=["thin_n_o", "thin_n_e"])
def test_gate_rejects_unphysical_index(n_o, n_e, message):
    """A failed index check is not kept with the model's window: every call
    of ``gate`` and ``delay_window`` raises again."""
    thin = DispersionModel(n_o=n_o, n_e=n_e, psi=0.5, L=1e-3)
    for _ in range(3):
        with pytest.raises(ConfigError, match=message):
            gate(1e-13, thin, CFG8.omega_o, CFG8.omega_e)
        with pytest.raises(ConfigError, match=message):
            delay_window(thin, CFG8.omega_o, CFG8.omega_e)
    with pytest.raises(ConfigError):
        gate(math.nan, TOY_DISP, CFG8.omega_o, CFG8.omega_e)


def test_gated_grid_evaluates_the_indices_a_fixed_number_of_times(monkeypatch):
    """A gated twin grid calls ``gate`` once per offset, but the model
    evaluates its index functions for one carrier pair only once, whatever
    the number of offsets."""
    def counted_scan(side: int) -> tuple[int, int]:
        evaluations = [0]

        def n_o(omega):
            evaluations[0] += 1
            return toy_n_o(omega)

        def n_e(omega, psi):
            evaluations[0] += 1
            return toy_n_e(omega, psi)

        disp = DispersionModel(n_o=n_o, n_e=n_e, psi=0.5, L=1e-3)
        gates = [0]

        def counted_gate(*args):
            gates[0] += 1
            return gate(*args)

        monkeypatch.setattr(coincidence, "gate", counted_gate)
        window = delay_window(disp, CFG8.omega_o, CFG8.omega_e)
        plan = ScanPlan(Grid(0.6e-6, 0.6e-6, side, side), Instrument.TWIN_PHOTON)
        image = scan(plan, CFG8, TwoPoint(0.25e-6), t12=0.5 * window, disp=disp)
        assert image.peak_value_raw > 0.0
        return gates[0], evaluations[0]

    small, large = counted_scan(16), counted_scan(33)
    assert (small[0], large[0]) == (256, 1089)
    assert small[1] == large[1] <= 10  # 1 check and 4 differences per index


def test_each_model_gates_by_its_own_window():
    """Models and carrier pairs alternated in one process each keep their
    own window: a ``t12`` between two windows opens only the wider one."""
    narrow = DispersionModel(n_o=lambda w: 1.60, n_e=lambda w, psi: 1.55, psi=0.5, L=1e-3)
    wide = DispersionModel(n_o=lambda w: 1.60, n_e=lambda w, psi: 1.55, psi=0.5, L=2e-3)
    assert narrow == narrow and narrow != wide
    carriers = (CFG8.omega_o, CFG8.omega_e)
    t12 = 1.5 * delay_window(narrow, *carriers)
    assert delay_window(wide, *carriers) == pytest.approx(2.0 * delay_window(narrow, *carriers),
                                                          rel=1e-9)
    for _ in range(3):
        assert gate(t12, narrow, *carriers) == 0.0
        assert gate(t12, wide, *carriers) == 1.0
    # one model at two carrier pairs: n_o rises with omega, so the pair
    # with the faster ordinary carrier has the wider window
    fast_o = (1.02 * CFG8.omega_o, CFG8.omega_e)
    t12 = 0.5 * (delay_window(TOY_DISP, *carriers) + delay_window(TOY_DISP, *fast_o))
    for _ in range(3):
        assert gate(t12, TOY_DISP, *carriers) == 0.0
        assert gate(t12, TOY_DISP, *fast_o) == 1.0


def test_threads_sharing_a_model_read_one_window():
    """Threads racing on a fresh model's first window each store the same
    value, so every thread reads the window one thread alone computes."""
    carriers = (CFG8.omega_o, CFG8.omega_e)
    expected = delay_window(DispersionModel(n_o=toy_n_o, n_e=toy_n_e, psi=0.5, L=1e-3),
                            *carriers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            shared = DispersionModel(n_o=toy_n_o, n_e=toy_n_e, psi=0.5, L=1e-3)
            with ThreadPoolExecutor(max_workers=8) as pool:
                windows = [f.result(timeout=10.0) for f in
                           [pool.submit(delay_window, shared, *carriers) for _ in range(8)]]
            assert windows == [expected] * 8
            assert shared._windows == {carriers: expected}
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------------
# kernel and amplitude
# ----------------------------------------------------------------------------

def test_kernel_matches_formula():
    xs = np.linspace(-5e-7, 5e-7, 11)
    ys = np.linspace(-3e-7, 3e-7, 11)
    X, Y = np.meshgrid(xs, ys)
    assert np.allclose(kernel_field(X, Y, CFG8), kernel_formula(X, Y, CFG8),
                       rtol=1e-13, atol=0)
    cfg_open = MicroscopeConfig(w0=8e-3, pump_gaussian=False)
    vals = kernel_field(X, Y, cfg_open)
    assert np.allclose(vals.imag, 0.0, atol=0)
    assert np.allclose(vals, kernel_formula(X, Y, cfg_open), rtol=1e-13, atol=0)
    # scalar input with a flat pump gives a 0-d complex array
    scalar = kernel_field(1e-7, 0.0, cfg_open)
    assert scalar.dtype == complex and scalar.shape == ()
    assert complex(scalar) == pytest.approx(complex(kernel_formula(1e-7, 0.0, cfg_open)),
                                            rel=1e-13)


def test_degenerate_kernel_evaluates_one_airy_factor(monkeypatch):
    """A degenerate pair shares one ``airy_amp`` call, and the kernel stays
    byte-identical to the product of one call per photon."""
    X, Y = np.meshgrid(np.linspace(-2e-6, 2e-6, 41), np.linspace(-1e-6, 1e-6, 21))
    lambda_p, lambda_o = 351e-9, 600e-9
    non_degenerate = MicroscopeConfig(w0=8e-3, lambda_p=lambda_p, lambda_o=lambda_o,
                                      lambda_e=1.0 / (1.0 / lambda_p - 1.0 / lambda_o))
    calls = []

    def counted(v, out=None):
        calls.append(v)
        return airy_amp(v, out=out)

    monkeypatch.setattr(coincidence, "airy_amp", counted)
    for cfg, expected_calls in ((CFG8, 1), (MicroscopeConfig(w0=8e-3, pump_gaussian=False), 1),
                                (non_degenerate, 2)):
        calls.clear()
        values = kernel_field(X, Y, cfg)
        assert len(calls) == expected_calls
        radius = np.sqrt(X * X + Y * Y)
        alpha_o, alpha_e = coincidence._twin_alphas(cfg)
        two_calls = np.asarray(airy_amp(alpha_o * radius) * airy_amp(alpha_e * radius),
                               dtype=complex)
        if cfg.pump_gaussian:
            c = _envelope_rate(cfg)
            two_calls = two_calls * (np.exp(-0.5 * (X * X) * c) * np.exp(-0.5 * (Y * Y) * c))
        assert values.tobytes() == two_calls.tobytes()


def test_kernel_takes_arrays_in_any_memory_order():
    """Each Airy factor is written over its argument, which must then be C
    ordered: transposed and strided displacements give the values of
    C-ordered ones, for a degenerate and a non-degenerate pair."""
    X, Y = np.meshgrid(np.linspace(-2e-6, 2e-6, 41), np.linspace(-1e-6, 1e-6, 21))
    lambda_p, lambda_o = 351e-9, 600e-9
    non_degenerate = MicroscopeConfig(w0=8e-3, lambda_p=lambda_p, lambda_o=lambda_o,
                                      lambda_e=1.0 / (1.0 / lambda_p - 1.0 / lambda_o))
    for cfg in (CFG8, non_degenerate):
        assert np.array_equal(kernel_field(X.T, Y.T, cfg), kernel_field(X, Y, cfg).T)
        assert np.array_equal(kernel_field(X[:, ::2], Y[:, ::2], cfg),
                              kernel_field(X, Y, cfg)[:, ::2])


def _envelope_rate(cfg):
    """``c`` of the pump envelope ``exp(-|v|^2 c / 2)``: the Gaussian term
    of ``eta0_inv_sq`` at the doubled coordinate, its phase undoubled."""
    eta = eta0_inv_sq(cfg)
    return complex(4.0 * eta.real, eta.imag)


@pytest.mark.parametrize("near, far", [(1e-7, 4e-7), (1e-7, 2e-6), (1.6e-6, 4e-6)],
                         ids=["series", "mixed", "hankel"])
def test_kernel_call_of_the_point_budget_fits_its_workspace(near, far):
    """A kernel call of ``_KERNEL_POINT_BUDGET`` points, in a workspace of
    the size that ``Chunks`` gives each chunk, takes its arrays from it:
    the twin kernel of a degenerate pair and a classical response as
    ``coincidence.sample_amplitudes`` calls it allocate only the per-row factors and, when the call
    straddles the Bessel branch switch, the gathered points of each branch
    (8 B per point).  Both give the bits of their allocating evaluation."""
    n = 48
    g = np.linspace(-1e-7, 1e-7, n)
    vx = np.linspace(0.0, far, coincidence._KERNEL_POINT_BUDGET // n**2)[:, None, None]
    vx = vx + g[None, :, None]
    vy = near + g[None, None, :]
    nbytes = coincidence._KERNEL_POINT_BUDGET * coincidence._WORK_BYTES_PER_POINT
    work = Workspace(np.empty(nbytes, dtype=np.uint8))

    def twin():
        return kernel_field(vx, vy, CFG8)

    def confocal():
        radius = np.add(vx * vx, vy * vy, out=_workspace().out(vx, vy))
        return psf_confocal(np.sqrt(radius, out=radius), CFG8, out=radius)

    for kern in (twin, confocal):
        fresh = kern()
        with work.use():
            tracemalloc.start()
            held = kern()
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            work.clear()
        assert np.shares_memory(held, work._buffer)
        assert held.tobytes() == fresh.tobytes()
        assert peak < 8 * coincidence._KERNEL_POINT_BUDGET + 2**16, peak


def test_kernel_on_panel_grid_equals_flat_call():
    """The separable envelope keeps every value a function of its own
    point: a broadcast ``(k, n, 1)`` by ``(k, 1, n)`` panel grid gives the
    bytes of one flat call at the same points."""
    rng = np.random.default_rng(20240611)
    centres = rng.uniform(-2e-6, 2e-6, size=(5, 2))
    nodes = 0.4e-6 * np.polynomial.legendre.leggauss(24)[0]
    grid_x = centres[:, 0, None, None] + nodes[None, :, None]
    grid_y = centres[:, 1, None, None] + nodes[None, None, :]
    flat_x, flat_y = (a.ravel() for a in np.broadcast_arrays(grid_x, grid_y))
    for cfg in (CFG8, MicroscopeConfig(w0=1e-3), MicroscopeConfig(w0=8e-3, pump_gaussian=False)):
        grid = kernel_field(grid_x, grid_y, cfg)
        assert grid.shape == (5, 24, 24)
        assert grid.tobytes() == kernel_field(flat_x, flat_y, cfg).tobytes()


def test_on_axis_kernel_is_the_unseparated_envelope():
    """With ``v_y = 0`` the y factor of the envelope is exactly 1, so the
    kernel is ``amp * exp(-r^2 c / 2)`` byte for byte, and ``psf_twin``
    (the kernel on the axis) is unchanged by the separation."""
    ys = np.linspace(-3e-6, 3e-6, 1201)
    for cfg in (CFG8, MicroscopeConfig(w0=1e-3), MicroscopeConfig(w0=2e-2)):
        alpha_o, alpha_e = coincidence._twin_alphas(cfg)
        radius = np.sqrt(ys * ys)
        amp = airy_amp(alpha_o * radius) * airy_amp(alpha_e * radius)
        expected = amp * np.exp(-0.5 * (ys * ys) * _envelope_rate(cfg))
        assert kernel_field(ys, 0.0, cfg).tobytes() == expected.tobytes()
        assert kernel_field(ys, np.zeros_like(ys), cfg).tobytes() == expected.tobytes()


NON_DEGENERATE = MicroscopeConfig(w0=8e-3, lambda_p=351e-9, lambda_o=600e-9,
                                  lambda_e=1.0 / (1.0 / 351e-9 - 1.0 / 600e-9))


@pytest.mark.parametrize("cfg", [
    MicroscopeConfig(w0=1e-3), CFG8, MicroscopeConfig(w0=12e-3),
    MicroscopeConfig(w0=8e-3, pump_gaussian=False), NON_DEGENERATE,
], ids=["w0_1mm", "w0_8mm", "w0_12mm", "flat_pump", "non_degenerate"])
def test_kernel_stays_under_the_envelope_the_drop_assumes(cfg):
    """The far-cell drop of ``integrate_sample`` bounds a panel integral by
    its area times ``exp(-decay d^2)``, with the ``decay`` of the twin
    lattice.  That holds only if ``|kernel_field(v)| <= exp(-decay |v|^2)``
    everywhere: checked on random displacements within 6 r0, denser near
    the axis where both are close to 1."""
    rng = np.random.default_rng(20261020)
    radius = 6.0 * r0(cfg) * rng.random(100_000)
    angle = 2.0 * np.pi * rng.random(radius.size)
    vx, vy = radius * np.cos(angle), radius * np.sin(angle)
    decay = coincidence._sample_lattice(Slit(1e-7), cfg, None, True).decay
    assert (decay > 0.0) == cfg.pump_gaussian
    envelope = np.exp(-decay * (vx * vx + vy * vy))
    assert np.all(np.abs(kernel_field(vx, vy, cfg)) <= envelope * (1.0 + 1e-12))


def test_two_point_closed_form():
    sep = 1e-6
    sample = TwoPoint(sep)
    for y in (0.0, 1.7e-7, 4.2e-7):
        value = amplitude((y, 0.0), CFG8, sample)
        expected = (complex(kernel_formula(0.5 * sep - y, 0.0, CFG8))
                    + complex(kernel_formula(-0.5 * sep - y, 0.0, CFG8)))
        assert value == pytest.approx(expected, rel=1e-12)


def test_two_point_matches_two_narrow_slits():
    """The closed form is the narrow-slit limit of two separate apertures."""
    sep = 6e-7
    width = 2e-9
    y = 1.3e-7
    pair = amplitude((y, 0.0), CFG8, TwoPoint(sep))
    left = amplitude((y + 0.5 * sep, 0.0), CFG8, Slit(width))
    right = amplitude((y - 0.5 * sep, 0.0), CFG8, Slit(width))
    # the residual is the kernel's curvature averaged over the finite
    # width, which scales as width^2
    assert (left + right) / width**2 == pytest.approx(pair, rel=1e-3)


def test_near_delta_scan_reproduces_psf():
    """A slit 50x smaller than the Airy radius scans out psf_twin."""
    sample = Slit(R_AIRY / 50.0)
    ys = np.linspace(0.0, 2.0 * R_AIRY, 81)
    raw = np.array([abs(amplitude((y, 0.0), CFG8, sample)) ** 2 for y in ys])
    profile = raw / raw[0]
    expected = psf_twin(ys, CFG8)
    assert np.max(np.abs(profile - expected)) <= 1e-3


def test_slit_amplitude_matches_riemann_oracle():
    sample = Slit(1e-7)
    kern = lambda vx, vy: kernel_formula(vx, vy, CFG8)  # noqa: E731
    t_all = lambda X, Y: 1.0  # noqa: E731
    for y in (0.0, 2e-7, 0.25 * R_AIRY, 0.7 * R_AIRY, 1.1 * R_AIRY):
        value = amplitude((y, 0.0), CFG8, sample)
        oracle = riemann_amplitude(kern, t_all, (y, 0.0), span=1e-7, n=2048)
        assert abs(value - oracle) / abs(oracle) <= 1e-3


def test_raster_amplitude_matches_riemann_oracle():
    rng = np.random.default_rng(7)
    grid = (rng.random((8, 8)) > 0.5).astype(float)
    pitch = 1e-7
    sample = Raster(pitch=pitch, grid=grid)
    span = 8 * pitch

    def transmittance(X, Y):
        jj = np.clip(np.floor((X + 0.5 * span) / pitch).astype(int), 0, 7)
        ii = np.clip(np.floor((Y + 0.5 * span) / pitch).astype(int), 0, 7)
        return grid[ii, jj]

    kern = lambda vx, vy: kernel_formula(vx, vy, CFG8)  # noqa: E731
    for offset in ((0.0, 0.0), (1e-7, 5e-8)):
        value = amplitude(offset, CFG8, sample)
        oracle = riemann_amplitude(kern, transmittance, offset, span=span, n=2048)
        assert abs(value - oracle) / abs(oracle) <= 1e-3


def test_grating_amplitude_matches_riemann_oracle():
    # duty 0.5, period 0.5 um, span 4 um, n = 2048: stripe edges land on
    # cell boundaries (0.125 um = 64 cells), so the oracle is clean
    period = 5e-7
    sample = Grating(period=period, duty=0.5)

    def transmittance(X, Y):
        frac = np.abs(X / period - np.round(X / period))
        return (frac < 0.25).astype(float)

    kern = lambda vx, vy: kernel_formula(vx, vy, CFG8)  # noqa: E731
    for y in (0.0, 1.3e-7, 2.5e-7):
        value = amplitude((y, 0.0), CFG8, sample)
        oracle = riemann_amplitude(kern, transmittance, (y, 0.0), span=4e-6, n=2048)
        assert abs(value - oracle) / abs(oracle) <= 1e-3


def test_translation_covariance():
    """Shifting a zero-bordered raster by one pixel equals shifting the scan."""
    grid = np.zeros((8, 8))
    grid[2:5, 2:6] = 1.0
    pitch = 8e-8
    base = Raster(pitch=pitch, grid=grid)
    shifted = Raster(pitch=pitch, grid=np.roll(grid, 1, axis=1))
    for y in (0.0, 1.5e-7):
        lhs = amplitude((y, 0.0), CFG8, shifted)
        rhs = amplitude((y - pitch, 0.0), CFG8, base)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_amplitude_edge_cases():
    assert amplitude((3e-7, -4e-7), CFG8, Delta()) == kernel_field(
        np.array([-3e-7]), np.array([4e-7]), CFG8)[0]
    assert amplitude((0.0, 0.0), CFG8, Raster(pitch=1e-7, grid=np.zeros((4, 4)))) == 0.0


def test_every_sample_kind_lowers_to_one_lattice():
    """Point and panel samples lower through one function: point cells
    have neither size nor nodes, panel cells carry the requested nodes,
    and every lattice carries the coherence it was lowered for.  A
    grating has no cells: it lowers to its diffraction orders."""
    spec = QuadratureSpec(radial_nodes=16, angular_nodes=64)
    with pytest.raises(ConfigError, match="unsupported sample"):
        coincidence._sample_lattice(Grating(period=2e-6), CFG8, spec, True)
    assert coincidence.grating_orders(Grating(period=2e-6), CFG8, spec, 2).freq.size == 6
    for sample in (Delta(), TwoPoint(3e-7), Slit(2e-7), Raster(pitch=1e-7, grid=np.eye(3))):
        point = isinstance(sample, (Delta, TwoPoint))
        for coherent in (True, False):
            lattice = coincidence._sample_lattice(sample, CFG8, spec, coherent)
            assert lattice.coherent == coherent
            assert lattice.n == (0 if point else 16)
            assert (lattice.half == 0.0) == point


@pytest.mark.parametrize("separation", [3e-7, 0.1 + 0.2, 3 * 2.0 ** -30, 1e300, 5e-324])
def test_two_point_cells_sit_at_half_separation(separation):
    """The two point cells of a ``TwoPoint`` are centred exactly at
    ``-separation / 2`` and ``+separation / 2`` on the x axis, in that order."""
    lattice = coincidence._sample_lattice(TwoPoint(separation), CFG8, QuadratureSpec(), True)
    centres = []

    def record(vx, vy):
        centres.append((vx[0], vy[0]))
        return np.zeros(1)
    coincidence.point_sum(lattice, np.zeros((1, 2)), record)
    assert centres == [(-separation / 2, 0.0), (separation / 2, 0.0)]


@pytest.mark.parametrize("y", [0.0, 1.3e-7, (0.0, 0.0), (3e-7, -4e-7), (-2.2e-6, 1e-8)])
def test_delta_amplitude_is_the_kernel_at_minus_offset(y):
    """A ``Delta`` is one point cell at the origin: ``A(y)`` is ``K(-y)``
    bit for bit against an array call of ``kernel_field``, and its rate is
    ``|A|^2``."""
    y_x, y_y = (y, 0.0) if np.isscalar(y) else y
    value = amplitude(y, CFG8, Delta())
    assert value == kernel_field(np.array([-y_x]), np.array([-y_y]), CFG8)[0]
    assert coincidence_rate(y, CFG8, Delta()) == value.real ** 2 + value.imag ** 2


def test_amplitude_stable_under_node_counts():
    sample = Slit(2e-7)
    dense = QuadratureSpec(radial_nodes=96, angular_nodes=768)
    for y in (0.0, 2e-7):
        a_default = amplitude((y, 0.0), CFG8, sample)
        a_dense = amplitude((y, 0.0), CFG8, sample, dense)
        assert abs(a_default - a_dense) / abs(a_dense) <= 1e-10


def test_coarse_nodes_raise_quadrature_error():
    """A 1 um slit at 8 nodes still moves by 6.9e-4 of its amplitude at
    the last doubling."""
    spec = QuadratureSpec(radial_nodes=8)
    with pytest.raises(QuadratureError, match="node"):
        amplitude((0.0, 0.0), CFG8, Slit(1e-6), spec)


def test_far_tail_offset_converges_with_one_more_doubling(monkeypatch):
    """Far out on the Gaussian tail the kernel changes by orders of
    magnitude across a pixel: 12 nodes fail the first doubling check and
    the second one, at 24 against 48 nodes, passes."""
    grid = np.zeros((4, 4))
    grid[1, 3] = grid[2, 0] = 1.0
    sample = Raster(pitch=2e-7, grid=grid)
    offset = (-9e-7, -1.5e-6)
    spec = QuadratureSpec(radial_nodes=12)
    value = amplitude(offset, CFG8, sample, spec)
    dense = amplitude(offset, CFG8, sample, QuadratureSpec(radial_nodes=96))
    assert abs(value - dense) <= 1e-7 * abs(dense)
    monkeypatch.setattr(coincidence, "_DOUBLING_CHECKS", 1)
    with pytest.raises(QuadratureError, match="node"):
        amplitude(offset, CFG8, sample, spec)


def table_windows(sample, offsets, spec):
    """The table of a scan of ``sample``: its displacements, one per row,
    and the rows each offset reads."""
    lattice = coincidence._sample_lattice(sample, CFG8, spec, True)
    points, windows = coincidence._lattice_table(lattice, offsets)
    rows = [None] * offsets.shape[0]
    for block, entries, _ in windows(np.arange(offsets.shape[0])):
        for i, entry in zip(block, entries):
            rows[i] = entry
    return points, rows


def table_rows(sample, offsets, spec):
    """Distinct canonical cell displacements a scan of ``sample`` reads."""
    return np.unique(np.concatenate(table_windows(sample, offsets, spec)[1])).size


def integrate(sample, offsets, spec, kern):
    """``integrate_sample`` over the twin lattice of ``sample``, in one call,
    with the table that admits the scan."""
    lattice = coincidence._sample_lattice(sample, CFG8, spec, True)
    return coincidence.integrate_sample(lattice, offsets, lattice.table(offsets), kern,
                                        coincidence.Chunks())


def test_kernel_calls_stay_within_point_budget():
    """Every pass evaluates the kernel for many panel displacements per
    call, and no call exceeds the point budget unless it holds one panel.
    The coarse and mass passes cover every distinct displacement of the
    scan once, the fine pass at most every one (the cells far out on the
    pump envelope keep their first-pass values), and every offset keeps
    the value of its own one-offset integral."""
    budget = coincidence._KERNEL_POINT_BUDGET
    kern = lambda vx, vy: kernel_field(vx, vy, CFG8)  # noqa: E731
    offsets = np.column_stack([np.linspace(-6e-7, 6e-7, 9), np.full(9, 1e-7)])
    grid = np.zeros((4, 4))
    grid[1, 3] = grid[2, 0] = 1.0
    cases = [
        (Slit(2e-7), QuadratureSpec(radial_nodes=16), 16 * 16),
        (Raster(pitch=2e-7, grid=grid), QuadratureSpec(radial_nodes=12), 12 * 12),
        # one fine-pass panel of the slit exceeds the budget
        (Slit(2e-7), QuadratureSpec(radial_nodes=math.isqrt(budget) // 2 + 1),
         (math.isqrt(budget) // 2 + 1) ** 2),
    ]
    oversized = []
    for sample, spec, panel_points in cases:
        calls = []

        def recording(vx, vy):
            calls.append((vx.shape[0], np.broadcast(vx, vy).size, vx.shape[1]))
            return kern(vx, vy)

        batched = integrate(sample, offsets, spec, recording)
        assert all(points <= budget or panels == 1 for panels, points, _ in calls)
        # coarse and mass passes over every table row, then a fine pass of
        # four panel sizes over at most every row; no offset needs a second
        # doubling here
        rows = table_rows(sample, offsets, spec)
        first = sum(points for _, points, n in calls if n == spec.radial_nodes)
        fine = sum(points for _, points, n in calls if n == 2 * spec.radial_nodes)
        assert first == 2 * rows * panel_points
        assert 0 < fine <= 4 * rows * panel_points
        assert first + fine == sum(points for _, points, _ in calls)
        oversized += [points for _, points, _ in calls if points > budget]
        one_by_one = []
        for row in offsets:
            one_by_one.append(integrate(sample, row[None, :], spec, recording)[0])
        assert np.array_equal(batched, np.array(one_by_one))
    assert oversized
    # the slit's coarse pass of all 9 offsets is one call over the 5
    # distances |x| of the mirror-symmetric offsets
    calls.clear()
    integrate(Slit(2e-7), offsets, QuadratureSpec(radial_nodes=16), recording)
    assert calls[0] == (5, 5 * 16 * 16, 16)


def test_incoherent_integral_is_its_own_mass(monkeypatch):
    """An incoherent integrand is non-negative, so its absolute mass is its
    first pass: a confocal slit line at n = 16 nodes climbs the ladder from
    n / 2 and takes (8^2 + 16^2) x rows kernel points on its first check,
    where the twin line takes its coarse, mass and fine passes at n and
    2 n, 6 x 16^2 x rows, and every offset keeps the value of its own
    one-offset integral."""
    spec = QuadratureSpec(radial_nodes=16)
    sample = Slit(2e-7)
    offsets = np.column_stack([np.linspace(-6e-7, 6e-7, 9), np.full(9, 1e-7)])
    points = []

    def recording(r, cfg, out=None):
        points.append(np.size(r))
        return psf_confocal(r, cfg, out=out)

    def twin(vx, vy, cfg):
        points.append(np.broadcast(vx, vy).size)
        return kernel_field(vx, vy, cfg)

    monkeypatch.setattr(coincidence, "kernel_field", twin)
    for response, row_points in ((recording, 8 * 8 + 16 * 16), (None, 6 * 16 * 16)):
        points.clear()
        batched = coincidence.sample_amplitudes(sample, offsets, CFG8, spec, response)
        assert sum(points) == row_points * table_rows(sample, offsets, spec)
        one_by_one = [coincidence.sample_amplitudes(sample, row[None, :], CFG8, spec,
                                                    response)[0] for row in offsets]
        assert np.array_equal(batched, np.array(one_by_one))


def test_far_cells_keep_their_first_pass_value(monkeypatch):
    """A raster with one lit pixel under the offset and one 1.4 um away, far
    out on the pump envelope.  The far pixel drops from the finer passes:
    twice its bound ``area * exp(-2 Re(eta0_inv_sq) d^2)``, recomputed here
    from the distance ``d`` of its nearest point, is within 1e-3 of the
    smallest error node doubling accepts (``10 * target_rel_tol * 1%`` of
    the offset's mass), and the near pixel's is not.  Its row is absent
    from the passes after the first two, and the value differs from the
    all-cells sum at the final count by at most that bound.  An offset so
    far out that every bound underflows reads no row after the first
    pass."""
    pitch, spec = 2e-7, QuadratureSpec(radial_nodes=16)
    grid = np.zeros((1, 8), dtype=complex)
    grid[0, 0], grid[0, 7] = 1.0, 0.5j
    sample = Raster(pitch=pitch, grid=grid)
    offsets = np.array([[-3.5 * pitch, 0.0]])
    passes = []
    original = coincidence._panel_sum

    def recording(points, half, n, kern):
        passes.append((n, points.copy()))
        return original(points, half, n, kern)

    monkeypatch.setattr(coincidence, "_panel_sum", recording)
    kern = lambda vx, vy: kernel_field(vx, vy, CFG8)  # noqa: E731
    value = integrate(sample, offsets, spec, kern)[0]
    points, (rows,) = table_windows(sample, offsets, spec)
    near, far = rows  # pixel order: the pixel under the offset first
    assert np.array_equal(points[far], [0.0, 7 * pitch])
    final = max(n for n, _ in passes)
    assert final > spec.radial_nodes
    for n, evaluated in passes:
        expected = [near, far] if n == spec.radial_nodes else [near]
        assert sorted(map(tuple, evaluated)) == sorted(map(tuple, points[expected]))

    half = 0.5 * pitch
    mass = np.dot(np.abs(grid[0, [0, 7]]), original(
        points[rows], half, 16, lambda vx, vy: np.abs(kern(vx, vy))))
    limit = 1e-3 * (10.0 * spec.target_rel_tol) * (0.01 * mass)
    decay = 2.0 * eta0_inv_sq(CFG8).real
    slack = [2.0 * abs(w) * pitch ** 2 * math.exp(-decay * max(0.0, d - half) ** 2)
             for w, d in ((grid[0, 0], 0.0), (grid[0, 7], 7 * pitch))]
    assert slack[1] <= limit < slack[0]
    weights = grid[0, [0, 7]]
    kept = np.dot(weights, [original(points[[near]], half, final, kern)[0],
                            original(points[[far]], half, 16, kern)[0]])
    every_cell = np.dot(weights, original(points[rows], half, final, kern))
    assert value == kept and abs(value - every_cell) <= slack[1]

    passes.clear()
    assert integrate(sample, np.array([[0.0, 6e-6]]), spec, kern)[0] == 0.0
    # both pixels lie at one canonical displacement (0.7, 6) um from it
    assert [len(evaluated) for _, evaluated in passes] == [1, 1, 0]


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_dropped_cells_stay_within_the_limit_on_random_rasters(seed, monkeypatch):
    """Seeded complex 6x6 rasters, half their pixels lit, on an off-lattice
    line from the centre out to the far tail of the pump envelope.  Each
    offset is integrated on its own (a scan gives the same bits), recording
    the rows of every pass: a lit cell whose row no finer pass reads was
    dropped.  Recomputed here from the panel's nearest point, with ``limit
    = 1e-3 * 10 * target_rel_tol * 1%`` of the offset's mass, every dropped
    cell's slack ``2 |w| area exp(-2 Re(eta0_inv_sq) d^2)``, times the
    number of the offset's cells whose slack is at most ``limit``, is at
    most ``limit``; so the dropped slacks sum to at most ``limit``, and the
    value lies within ``limit`` of the every-cell sum at its final count."""
    pitch, spec = 2e-7, QuadratureSpec(radial_nodes=12)
    rng = np.random.default_rng(seed)
    grid = np.where(rng.random((6, 6)) < 0.5, 0.0,
                    rng.uniform(0.05, 1.0, (6, 6)) * np.exp(2j * np.pi * rng.random((6, 6))))
    sample = Raster(pitch=pitch, grid=grid)
    offsets = np.column_stack([np.linspace(0.0, 2.2e-6, 12), np.full(12, 0.37 * pitch)])
    passes = []
    original = coincidence._panel_sum

    def recording(points, half, n, kern):
        passes.append((n, points.copy()))
        return original(points, half, n, kern)

    monkeypatch.setattr(coincidence, "_panel_sum", recording)
    kern = lambda vx, vy: kernel_field(vx, vy, CFG8)  # noqa: E731
    half, decay = 0.5 * pitch, 2.0 * eta0_inv_sq(CFG8).real
    weights = grid[grid != 0]  # pixel order, as the windows hand out cells
    values, dropped_anywhere, kept_anywhere = [], 0, 0
    for offset in offsets:
        passes.clear()
        values.append(integrate(sample, offset[None, :], spec, kern)[0])
        coarse, mass_pass, *finer = passes
        assert coarse[0] == mass_pass[0] == spec.radial_nodes and finer
        points, (rows,) = table_windows(sample, offset[None, :], spec)
        read = {tuple(p) for p in finer[0][1]}
        assert all({tuple(p) for p in evaluated} == read for _, evaluated in finer)
        dropped = np.array([tuple(points[row]) not in read for row in rows])

        mass = np.dot(np.abs(weights), original(
            points[rows], half, spec.radial_nodes, lambda vx, vy: np.abs(kern(vx, vy))))
        limit = 1e-3 * (10.0 * spec.target_rel_tol) * (0.01 * mass)
        gap = np.maximum(points[rows] - half, 0.0)
        slack = 2.0 * np.abs(weights) * pitch ** 2 * np.exp(-decay * (gap * gap).sum(axis=1))
        share = max(1, np.count_nonzero(slack <= limit))
        assert np.all(slack[dropped] * share <= limit * (1.0 + 1e-12))
        assert slack[dropped].sum() <= limit * (1.0 + 1e-12)
        final = max(n for n, _ in finer)
        every_cell = np.dot(weights, original(points[rows], half, final, kern))
        assert abs(values[-1] - every_cell) <= limit
        dropped_anywhere += np.count_nonzero(dropped)
        kept_anywhere += np.count_nonzero(~dropped)
    # the line reaches both cells that drop and cells that must not
    assert dropped_anywhere and kept_anywhere
    assert np.array_equal(integrate(sample, offsets, spec, kern), values)


CONFOCAL_SLIT_NOT_CONVERGED = (
    r"^amplitude quadrature did not converge: node doubling moved the result by 1\.869e-03 "
    r"relative \(target 1\.0e-08\); raise the node counts$")


@pytest.mark.parametrize("width, radial, passes, error", [
    # needs all three checks: 4 against 8 nodes, then 8 against 16, and
    # converges at 16 against 32
    (1e-6, 8, [(4, 4), (8, 8), (16, 16), (32, 32)], None),
    # odd counts: the ladder starts at n // 2 and the last pass is 4 n
    (1e-6, 9, [(4, 4), (9, 9), (18, 18), (36, 36)], None),
    # fails all three checks; the message is the last one's
    (2e-6, 8, [(4, 4), (8, 8), (16, 16), (32, 32)], CONFOCAL_SLIT_NOT_CONVERGED),
], ids=["three_checks", "odd_counts", "fails_three_checks"])
def test_incoherent_ladder_starts_at_half_the_counts(width, radial, passes, error):
    """A confocal slit climbs the node ladder from half the requested
    counts, one pass per rung, and no pass exceeds four times the counts.
    A converged value agrees with a dense spec's; a failure raises the
    ``QuadratureError`` of the first failing offset."""
    sample, offsets = Slit(width), np.zeros((1, 2))
    spec = QuadratureSpec(radial_nodes=radial)
    shapes = []

    def recording(r, cfg, out=None):
        if r.shape[1:] not in shapes:
            shapes.append(r.shape[1:])
        return psf_confocal(r, cfg, out=out)

    if error is not None:
        with pytest.raises(QuadratureError, match=error):
            coincidence.sample_amplitudes(sample, offsets, CFG8, spec, recording)
    else:
        value = coincidence.sample_amplitudes(sample, offsets, CFG8, spec, recording)
        dense = coincidence.sample_amplitudes(
            sample, offsets, CFG8, QuadratureSpec(radial_nodes=64), psf_confocal)
        assert abs(value[0] - dense[0]) <= 1e-7 * abs(dense[0])
    assert shapes == passes
    assert all(n_x <= 4 * radial and n_y <= 4 * radial for n_x, n_y in shapes)


def test_chunk_workspaces_hand_out_64_byte_aligned_arrays():
    """Each chunk's workspace starts at a 64-byte address, so every array
    ``out`` hands out from it is 64-byte aligned in memory, whatever its
    size and dtype."""
    addresses = []

    def carve(chunk, work):
        for size, dtype in ((3, float), (5, complex), (7, bool), (1000, float)):
            addresses.append(work.out(np.zeros(size), dtype=dtype).ctypes.data)
        return chunk

    with coincidence.Chunks(2) as chunks:
        rows = np.arange(6)
        assert np.array_equal(chunks(carve, rows, coincidence._MIN_POINTS_PER_CHUNK), rows)
    assert len(addresses) == 8
    assert all(address % 64 == 0 for address in addresses)


def lattice_displacement_count(grid: np.ndarray, side: int) -> int:
    """Distinct canonical displacements of the lit pixels of ``grid`` from
    the offsets of a ``side`` x ``side`` grid scan whose step is the pixel
    pitch, counted exactly in integer half-pitches."""
    nrows, ncols = grid.shape
    ii, jj = np.nonzero(grid)
    kx, ky = np.tile(np.arange(side), side), np.repeat(np.arange(side), side)
    dx = np.abs(2 * jj[None, :] - 2 * kx[:, None] + side - ncols).ravel()
    dy = np.abs(2 * ii[None, :] - 2 * ky[:, None] + side - nrows).ravel()
    span = 2 * (side + max(nrows, ncols))
    return np.unique(np.minimum(dx, dy) * span + np.maximum(dx, dy)).size


@pytest.mark.parametrize("shape, lit, pitch, side", [
    # the benchmark's twin grid: a 4x4 raster with one half-turn pixel pair
    ((4, 4), [(0, 1), (3, 2)], 2e-7, 16),
    ((5, 5), [(0, 0), (0, 3), (1, 2), (2, 4), (3, 1), (4, 4)], 3.7e-7, 33),
    # a random binary resolution target, whose grid steps differ from the
    # pitch by up to 3.1e-15 relative
    ((64, 64), list(zip(*np.nonzero(np.random.default_rng(5).random((64, 64)) < 0.5))),
     5e-8, 16),
])
def test_on_lattice_grid_has_one_row_per_lattice_displacement(shape, lit, pitch, side):
    """``Grid.offsets`` leaves lattice offsets a few ulps off the lattice;
    the key quantum still merges every pair of equal lattice
    displacements, and merges no others."""
    grid = np.zeros(shape)
    for i, j in lit:
        grid[i, j] = 1.0
    half = 0.5 * (side - 1) * pitch
    offsets = Grid(half_range_x=half, half_range_y=half, nx=side, ny=side).offsets()
    rows = table_rows(Raster(pitch=pitch, grid=grid), offsets, QuadratureSpec())
    assert rows == lattice_displacement_count(grid, side)


@pytest.mark.parametrize("side, limit_mib", [(32, 28), (64, 64)])
def test_on_lattice_table_of_a_large_target_stays_small(side, limit_mib):
    """An on-lattice grid over a 64x64 random binary target at 0.05 um
    keys lattice differences over one dense box, not every pixel at every
    offset: building the table (no kernel work) stays within a few MiB,
    and the 64x64 grid (8.4e6 pixel-offset pairs) is accepted."""
    grid = (np.random.default_rng(5).random((64, 64)) < 0.5).astype(float)
    half = 0.5 * (side - 1) * 5e-8
    offsets = Grid(half_range_x=half, half_range_y=half, nx=side, ny=side).offsets()
    tracemalloc.start()
    try:
        lattice = coincidence._sample_lattice(Raster(pitch=5e-8, grid=grid), CFG8,
                                              QuadratureSpec(), True)
        coincidence._lattice_table(lattice, offsets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20


def cell_displacements(sample, offset):
    """Centres [m] of the cells a one-offset integral of ``sample`` covers,
    in pixel order, minus ``offset``: every lit raster pixel, or the slit."""
    if isinstance(sample, Slit):
        return np.zeros((1, 2)) - offset
    nrows, ncols = sample.grid.shape
    ii, jj = np.nonzero(sample.grid)
    centres = np.column_stack([(jj - 0.5 * (ncols - 1)) * sample.pitch,
                               (ii - 0.5 * (nrows - 1)) * sample.pitch])
    return centres - offset


def test_table_values_match_direct_panel_sums():
    """Keying cells by rounded canonical displacements moves no panel
    integral by more than 1e-13 relative to a direct sum at its true
    displacement, on an on-lattice grid where mathematically equal
    displacements differ by an ulp or two.  Far out on the Gaussian tail
    a rounding of a few ulps moves a value by more than that relative to
    itself, so values there are held to 1e-13 of the largest panel
    integral instead.  Each offset's window holds the cells of its
    one-offset integral, in pixel order."""
    kern = lambda vx, vy: kernel_field(vx, vy, CFG8)  # noqa: E731
    xs = np.linspace(-1.5e-6, 1.5e-6, 16)
    lattice_grid = np.column_stack([np.tile(xs, 16), np.repeat(xs, 16)])
    line = np.column_stack([np.linspace(-1e-6, 1e-6, 17), np.zeros(17)])
    grid = np.zeros((4, 4))
    grid[1, 3] = grid[2, 0] = grid[0, 1] = grid[3, 2] = 1.0
    cases = [
        (Raster(pitch=2e-7, grid=grid), lattice_grid, QuadratureSpec(radial_nodes=12)),
        (Slit(3e-7), line, QuadratureSpec(radial_nodes=16)),
    ]
    for sample, offsets, spec in cases:
        lattice = coincidence._sample_lattice(sample, CFG8, spec, True)
        points, rows = table_windows(sample, offsets, spec)
        true = [cell_displacements(sample, offset) for offset in offsets]
        assert [r.size for r in rows] == [t.shape[0] for t in true]
        assert table_rows(sample, offsets, spec) < sum(r.size for r in rows)
        size = (lattice.half, lattice.n)
        direct = coincidence._panel_sum(np.concatenate(true), *size, kern)
        keyed = coincidence._panel_sum(points, *size, kern)[np.concatenate(rows)]
        assert np.allclose(keyed, direct, rtol=1e-13, atol=1e-13 * np.abs(direct).max())


@pytest.mark.parametrize("cfg", [MicroscopeConfig(w0=1e-3), CFG8, MicroscopeConfig(w0=12e-3),
                                 NON_DEGENERATE],
                         ids=["w0_1mm", "w0_8mm", "w0_12mm", "non_degenerate"])
def test_grating_radius_leaves_at_most_the_order_tail(cfg):
    """A twin grating's transform is cut at ``R = sqrt(2 ln(|c| / (Re(c)
    eps)) / Re(c))``, ``eps = _ORDER_TAIL``: a dense radial rule (400
    panels of 32 nodes out to 3 R) integrates ``|K|`` beyond it to at most
    ``eps`` of ``2 pi / |c|``, the share the order cutoff leaves.  The
    default transfer values are bit for bit those of a spec that sets
    ``R``, and a set radius wins over it."""
    c = _envelope_rate(cfg)
    eps = coincidence._ORDER_TAIL
    radius = math.sqrt(2.0 * math.log(abs(c) / (c.real * eps)) / c.real)
    base, w = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(radius, 3.0 * radius, 401)
    half = 0.5 * np.diff(edges)
    r = ((edges[:-1] + half)[:, None] + half[:, None] * base).ravel()
    weight = (half[:, None] * w).ravel() * r
    tail = 2.0 * math.pi * weight @ np.abs(kernel_field(r, 0.0, cfg))
    assert 0.0 < tail <= eps * 2.0 * math.pi / abs(c)

    def transfer(quad):
        orders = coincidence.grating_orders(Grating(2e-6), cfg, quad, None)
        return orders.transfer(orders.freq).tobytes()

    default = transfer(None)
    assert default == transfer(QuadratureSpec(truncation_radius=radius))
    assert default != transfer(QuadratureSpec(truncation_radius=6.0 * r0(cfg)))


# ----------------------------------------------------------------------------
# coincidence rate
# ----------------------------------------------------------------------------

def test_rate_delta_bypass_matches_psf():
    ys = np.linspace(0.0, 2.0 * R_AIRY, 25)
    rates = np.array([coincidence_rate((y, 0.0), CFG8, Delta()) for y in ys])
    assert np.allclose(rates, psf_twin(ys, CFG8), rtol=1e-13, atol=0)
    # off-axis offsets use the radial distance
    assert coincidence_rate((3e-7, 4e-7), CFG8, Delta()) == pytest.approx(
        psf_twin(5e-7, CFG8), rel=1e-13)


def test_rate_is_squared_amplitude():
    sample = Slit(2e-7)
    y = (1.1e-7, 0.0)
    assert coincidence_rate(y, CFG8, sample) == pytest.approx(
        abs(amplitude(y, CFG8, sample)) ** 2, rel=1e-13)


def test_rate_gating():
    disp = DispersionModel(n_o=lambda w: 1.60, n_e=lambda w, psi: 1.55,
                           psi=0.5, L=1e-3)
    window = delay_window(disp, CFG8.omega_o, CFG8.omega_e)
    sample = Slit(2e-7)
    open_rate = coincidence_rate((1e-7, 0.0), CFG8, sample,
                                 t12=0.5 * window, disp=disp)
    plain_rate = coincidence_rate((1e-7, 0.0), CFG8, sample)
    assert open_rate == plain_rate  # gate = 1 leaves the rate unchanged
    assert coincidence_rate((1e-7, 0.0), CFG8, sample,
                            t12=2.0 * window, disp=disp) == 0.0
    assert coincidence_rate((1e-7, 0.0), CFG8, Delta(),
                            t12=-1e-15, disp=disp) == 0.0
    with pytest.raises(ConfigError):
        coincidence_rate((0.0, 0.0), CFG8, sample, disp=disp)  # t12 missing


@pytest.mark.parametrize("offset", [float("nan"), (1e-7, 0.0, 0.0)])
def test_closed_gate_still_rejects_a_bad_offset(offset):
    """The offset is checked before the gate, so a closed gate does not
    turn a non-finite or 3-vector offset into a rate of 0."""
    closed = DispersionModel(n_o=lambda w: 1.55, n_e=lambda w, psi: 1.60,
                             psi=0.5, L=1e-3)
    assert gate(1e-13, closed, CFG8.omega_o, CFG8.omega_e) == 0.0
    with pytest.raises(ValueError, match="scan offset"):
        coincidence_rate(offset, CFG8, Slit(1e-7), t12=1e-13, disp=closed)
