"""The public constructors refuse values of the wrong type with
``ConfigError``, through the one scalar check of ``errors``."""

import numpy as np
import pytest

from twinfocal import ConfigError
from twinfocal.coincidence import Grating, QuadratureSpec, Raster, Slit, TwoPoint
from twinfocal.optics import MicroscopeConfig
from twinfocal.scansim import Line

GRID = np.eye(3)
WRONG = ["1um", None, 1j, True, np.array([1e-6, 2e-6]), np.array(1e-6)]


@pytest.mark.parametrize("width", WRONG)
def test_slit_refuses_wrong_types(width):
    with pytest.raises(ConfigError, match="slit width must be a real number"):
        Slit(width)


@pytest.mark.parametrize("separation", WRONG)
def test_two_point_refuses_wrong_types(separation):
    with pytest.raises(ConfigError, match="two-point separation must be a real number"):
        TwoPoint(separation)


@pytest.mark.parametrize("args, message", [
    (("2um",), "grating period"), ((None,), "grating period"), ((2e-6, "0.5"), "duty cycle"),
    ((2e-6, 0.5j), "duty cycle"), ((np.ones(2),), "grating period"),
])
def test_grating_refuses_wrong_types(args, message):
    with pytest.raises(ConfigError, match=message + " must be a real number"):
        Grating(*args)


@pytest.mark.parametrize("args", [(GRID, 1e-7), ("0.1um", GRID), (None, GRID), (1j, GRID)])
def test_raster_refuses_wrong_types(args):
    """Swapped arguments included: the grid is no pitch."""
    with pytest.raises(ConfigError, match="raster pitch must be a real number"):
        Raster(*args)


@pytest.mark.parametrize("field", ["w0", "a", "lambda_p", "lambda_o", "s1", "d"])
@pytest.mark.parametrize("value", ["8mm", 1j, np.ones(2), False, None])
def test_microscope_config_refuses_wrong_types(field, value):
    """None picks the default of ``lambda_o``, ``lambda_e``, ``s0`` and ``d``."""
    if value is None and field in ("lambda_o", "d"):
        MicroscopeConfig(**{field: value})
        return
    with pytest.raises(ConfigError, match=f"{field} must be a real number"):
        MicroscopeConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("target_rel_tol", None), ("target_rel_tol", "1e-8"), ("truncation_radius", "1um"),
    ("truncation_radius", 1j), ("radial_nodes", None), ("angular_nodes", "64"),
])
def test_quadrature_spec_refuses_wrong_types(field, value):
    with pytest.raises(ConfigError, match="must be"):
        QuadratureSpec(**{field: value})


@pytest.mark.parametrize("direction", [(1.0,), (0.6, 0.8, 0.0), "xy", None, (1.0, "0"),
                                       (1j, 0.0), np.ones((2, 2))])
def test_line_refuses_a_direction_that_is_no_pair_of_reals(direction):
    with pytest.raises(ConfigError, match="scan direction"):
        Line(direction=direction)
    Line(direction=np.array([0.6, 0.8]))
