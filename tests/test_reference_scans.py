"""Scans of extended samples against an independent reference.

``conftest.reference_scan`` integrates every lit cell of a slit or raster
at its true displacement from each offset with a tensor Gauss-Legendre
rule, from ``kernel_field`` and the ``psf_*`` responses alone: no table,
key, drop or node ladder of the package.  Each offset's raw value must lie
within its offset's accepted error plus its drop limit of it:

* accepted error: how far the reference's rule at the node count node
  doubling accepted for the offset, read from the kernel calls of a
  one-offset call, lies from the converged reference, plus the
  reference's own move;
* the move the documented key rounding makes: offsets are rounded to
  2^-44 of the pitch, and the reference's rule at the accepted count
  measures what that rounding changes;
* drop limit: 1e-3 of the smallest error node doubling accepts, ``10 *
  target_rel_tol`` of 1% of the offset's mass, from the reference's rule
  of ``|kern|`` at the first pass's count;
* float rounding, 1e-14 of the mass.

The accepted error itself must lie within the error node doubling
accepts, ``10 * target_rel_tol`` of the larger of the value and 1% of the
mass.
"""

import numpy as np
import pytest

from conftest import lit_cells, panel_rule, reference_scan

from twinfocal import coincidence
from twinfocal.coincidence import QuadratureSpec, Raster, Slit, kernel_field
from twinfocal.optics import MicroscopeConfig
from twinfocal.psf import psf_confocal, psf_widefield
from twinfocal.scansim import Grid, Line

CFG1, CFG8, CFG12 = (MicroscopeConfig(w0=w0) for w0 in (1e-3, 8e-3, 12e-3))
FLAT = MicroscopeConfig(w0=8e-3, pump_gaussian=False)
NON_DEGENERATE = MicroscopeConfig(w0=8e-3, lambda_o=650e-9, lambda_e=351e-9 * 650 / 299)
RESPONSES = {"twin": None, "confocal": psf_confocal, "widefield": psf_widefield}


def complex_raster(seed: int, shape, pitch: float, lit: float = 0.5) -> Raster:
    """A seeded raster of complex pixels, about ``lit`` of them lit."""
    rng = np.random.default_rng(seed)
    grid = np.where(rng.random(shape) < lit, 0.0,
                    rng.uniform(0.05, 1.0, shape) * np.exp(2j * np.pi * rng.random(shape)))
    return Raster(pitch=pitch, grid=grid)


def line(seed, half_range: float, samples: int, shift=(0.0, 0.0)) -> np.ndarray:
    """Offsets of a ``Line`` along x (``seed`` None) or a seeded random
    direction, moved by ``shift`` [m] off the lattice."""
    angle = 0.0 if seed is None else 2.0 * np.pi * np.random.default_rng(seed).random()
    geometry = Line(direction=(np.cos(angle), np.sin(angle)), half_range=half_range,
                    samples=samples)
    return geometry.offsets() + shift


def grid(half_range: float, shift=(0.0, 0.0)) -> np.ndarray:
    """A 16 x 16 ``Grid`` of offsets, moved by ``shift`` [m]."""
    return Grid(half_range_x=half_range, half_range_y=half_range, nx=16, ny=16).offsets() + shift


# id: instrument, geometry, sample, offsets, quadrature spec, reference nodes
CASES = {
    "twin_raster_w8_far": ("twin", CFG8, complex_raster(3, (6, 6), 2e-7),
                           np.column_stack([np.linspace(0.0, 2.2e-6, 12), np.full(12, 7.4e-8)]),
                           QuadratureSpec(radial_nodes=12), 24),
    "twin_raster_w12_random_line": ("twin", CFG12, complex_raster(4, (5, 5), 1.5e-7),
                                    line(4, 1.2e-6, 16, (1e-8, -3e-8)),
                                    QuadratureSpec(radial_nodes=12), 24),
    "twin_raster_w1": ("twin", CFG1, complex_raster(5, (4, 6), 2e-7), line(5, 1e-6, 16),
                       QuadratureSpec(radial_nodes=12), 24),
    "twin_raster_w12_drops": ("twin", CFG12, complex_raster(6, (6, 6), 1e-7, 0.3),
                              line(6, 1.5e-6, 16, (1e-8, 0.0)),
                              QuadratureSpec(radial_nodes=8, target_rel_tol=1e-4), 24),
    "twin_slit_w8_random_line": ("twin", CFG8, Slit(1e-6), line(7, 1.5e-6, 17, (0.0, 1.3e-8)),
                                 QuadratureSpec(radial_nodes=16), 48),
    "twin_slit_w12": ("twin", CFG12, Slit(5e-7), line(None, 1e-6, 17, (0.0, 2e-8)),
                      QuadratureSpec(radial_nodes=16), 32),
    "twin_slit_flat_pump": ("twin", FLAT, Slit(4e-7), line(8, 1e-6, 16),
                            QuadratureSpec(radial_nodes=16), 48),
    "twin_raster_non_degenerate": ("twin", NON_DEGENERATE, complex_raster(9, (3, 3), 2e-7, 0.3),
                                   line(9, 1e-6, 16, (2e-8, 1e-8)),
                                   QuadratureSpec(radial_nodes=12), 24),
    "twin_grid_on_lattice": ("twin", CFG8, complex_raster(10, (2, 2), 1e-7, 0.0), grid(7.5e-7),
                             QuadratureSpec(radial_nodes=8), 16),
    "twin_slit_grid_off_lattice": ("twin", CFG8, Slit(3e-7), grid(8e-7, (1.1e-8, 2.3e-8)),
                                   QuadratureSpec(radial_nodes=12), 24),
    "confocal_raster": ("confocal", CFG8, complex_raster(11, (5, 5), 2e-7), line(11, 1.2e-6, 16),
                        QuadratureSpec(radial_nodes=12), 24),
    "confocal_slit_random_line": ("confocal", CFG8, Slit(1e-6), line(12, 1.5e-6, 17),
                                  QuadratureSpec(radial_nodes=12), 48),
    "widefield_raster": ("widefield", CFG12, complex_raster(13, (4, 6), 1.5e-7),
                         line(None, 1.2e-6, 16, (0.0, 3e-8)), QuadratureSpec(radial_nodes=12), 24),
}


def accepted_counts(sample, offsets, cfg, spec, response, monkeypatch):
    """Each offset's one-offset value, and the largest node count of its
    kernel calls: the count at which node doubling accepted it."""
    counts = []
    if response is None:
        twin = coincidence.kernel_field

        def recording(vx, vy, config):
            counts.append(np.broadcast(vx, vy).shape[-1])
            return twin(vx, vy, config)
        monkeypatch.setattr(coincidence, "kernel_field", recording)
    else:
        def recording(r, config, out=None):
            counts.append(r.shape[-1])
            return response(r, config, out=out)
    values, accepted = [], []
    for offset in offsets:
        counts.clear()
        values.append(coincidence.sample_amplitudes(sample, offset[None, :], cfg, spec,
                                                    None if response is None else recording)[0])
        accepted.append(max(counts))
    monkeypatch.undo()
    return np.array(values), np.array(accepted)


@pytest.mark.parametrize("case", CASES)
def test_scan_lies_within_its_accepted_error_and_drop_limit_of_the_reference(case, monkeypatch):
    instrument, cfg, sample, offsets, spec, nodes = CASES[case]
    response = RESPONSES[instrument]
    coherent = response is None
    if coherent:
        kern = lambda vx, vy: kernel_field(vx, vy, cfg)  # noqa: E731
    else:
        kern = lambda vx, vy: response(np.hypot(vx, vy), cfg)  # noqa: E731
    raw = coincidence.sample_amplitudes(sample, offsets, cfg, spec, response)
    one_by_one, accepted = accepted_counts(sample, offsets, cfg, spec, response, monkeypatch)
    assert np.array_equal(raw, one_by_one)

    cells = lit_cells(sample, coherent)
    reference, moved = reference_scan(cells, offsets, kern, nodes)
    pitch = 2.0 * cells[2]
    rounded = np.rint(offsets / pitch * 2.0 ** 44) * 2.0 ** -44 * pitch
    at_count, at_rounded = np.empty(raw.shape, complex), np.empty(raw.shape, complex)
    for n in set(accepted):
        mine = accepted == n
        at_count[mine] = panel_rule(cells, offsets[mine], kern, n)
        at_rounded[mine] = panel_rule(cells, rounded[mine], kern, n)
    first = spec.radial_nodes if coherent else spec.radial_nodes // 2
    magnitude = (cells[0], np.abs(cells[1]), cells[2])
    mass = panel_rule(magnitude, offsets, lambda vx, vy: np.abs(kern(vx, vy)), first).real
    tol = spec.target_rel_tol

    error = np.abs(at_count - reference) + moved
    assert np.all(error <= 10.0 * tol * np.maximum(np.abs(raw), 0.01 * mass))
    limit = 1e-3 * (10.0 * tol) * (0.01 * mass)
    allowed = error + np.abs(at_rounded - at_count) + limit + 1e-14 * mass
    excess = np.abs(raw - reference) / allowed
    assert excess.max() <= 1.0, (excess.argmax(), excess.max())
