"""CLI parsing, config round-trips, subcommand output, and exit codes."""

import dataclasses
import io
import math
import random
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from twinfocal import cli
from twinfocal.errors import ConfigError
from twinfocal.optics import MicroscopeConfig
from twinfocal.coincidence import Delta, Grating, QuadratureSpec, Raster, Slit, TwoPoint
from twinfocal.cli import (
    _SCHEMA,
    DispersionSpec,
    OutputSpec,
    ScanSpec,
    _parse_angle,
    _parse_length,
    _parse_time,
    main,
    parse_run_config,
)
from twinfocal.scansim import _MAX_OFFSETS


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write_config(tmp_path, text: str):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------------
# value and file parsing
# ----------------------------------------------------------------------------

def test_quantity_parsing():
    assert _parse_length("8mm") == 8e-3
    assert _parse_length("2 cm") == 2e-2
    assert _parse_length("702nm") == 702e-9
    assert _parse_length("0.008") == 0.008
    assert _parse_length("inf") == float("inf")
    assert _parse_angle("90 deg") == pytest.approx(np.pi / 2, rel=1e-15)
    assert _parse_angle("0.5rad") == 0.5
    assert _parse_time("120 fs") == pytest.approx(120e-15, rel=1e-15)
    with pytest.raises(ValueError, match="unit"):
        _parse_length("3 parsec")
    with pytest.raises(ValueError):
        _parse_length("not-a-number")


def test_units_and_bare_si_are_equivalent():
    with_units = parse_run_config("microscope.w0 = 8mm\n")
    bare = parse_run_config("microscope.w0 = 0.008\n")
    assert with_units.microscope == bare.microscope


def test_config_defaults_are_reference_geometry():
    run = parse_run_config("")
    assert run.microscope == MicroscopeConfig()
    assert run.dispersion is None
    assert run.scan.instrument == "twin"
    assert run.output.precision == 9


def test_config_parse_errors_name_the_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_run_config("microscope.w0 = 1mm\njust words\n")
    with pytest.raises(ConfigError, match="line 1.*unknown key"):
        parse_run_config("microscope.waist = 1mm\n")
    with pytest.raises(ConfigError, match="line 1: unknown key 'dispersion.theta_o'"):
        parse_run_config("dispersion.theta_o = 0.1\n")
    with pytest.raises(ConfigError, match="line 3.*duplicate"):
        parse_run_config("microscope.w0 = 1mm\n# fine\nmicroscope.w0 = 2mm\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_run_config("microscope.pump_gaussian = maybe\n")


def test_config_requires_sample_parameters():
    with pytest.raises(ConfigError, match="sample.width"):
        parse_run_config("sample.kind = slit\n")
    with pytest.raises(ConfigError, match="unknown sample.kind"):
        parse_run_config("sample.kind = hologram\n")
    with pytest.raises(ConfigError, match="dispersion.psi"):
        parse_run_config("dispersion.n_o = 1.6\ndispersion.n_e = 1.55\n")


@pytest.mark.parametrize("text, key, kind", [
    ("sample.kind = slit\nsample.width = 0.2um\nsample.duty = 0.3\n", "sample.duty", "slit"),
    ("sample.kind = grating\nsample.period = 1um\nsample.width = 0.2um\n",
     "sample.width", "grating"),
    ("sample.separation = 1um\n", "sample.separation", "delta"),
    ("sample.kind = two_point\nsample.separation = 1um\nsample.rows = 01\n",
     "sample.rows", "two_point"),
])
def test_sample_key_the_kind_does_not_read_is_an_error(tmp_path, text, key, kind):
    """A leftover or misplaced sample key is refused, naming the key and
    the kind, instead of being dropped."""
    message = f"key '{key}' is not read for sample.kind={kind}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_run_config(text)
    code, out, err = run_cli("scan", "--config", write_config(tmp_path, text))
    assert code == 2
    assert message in err
    assert out == ""


def test_config_round_trip_is_typed_identity():
    text = "\n".join([
        "# full configuration",
        "microscope.lambda_p = 351nm",
        "microscope.w0 = 8mm",
        "sample.kind = raster",
        "sample.pitch = 0.4um",
        "sample.rows = 010;111;010",
        "dispersion.n_o = 1.6654, 2.0e-17",
        "dispersion.n_e = 1.5555",
        "dispersion.psi = 49.2 deg",
        "dispersion.length = 1mm",
        "dispersion.t12 = 120 fs",
        "quadrature.radial_nodes = 32",
        "scan.instrument = twin",
        "scan.samples = 65",
        "output.precision = 6",
    ]) + "\n"
    run = parse_run_config(text)
    assert isinstance(run.sample, Raster)
    assert run.sample.pitch == 0.4e-6
    assert np.array_equal(run.sample.grid.real,
                          [[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    assert run.dispersion.n_o == (1.6654, 2.0e-17)
    assert run.dispersion.n_e == (1.5555,)
    assert run.dispersion.psi == pytest.approx(np.radians(49.2), rel=1e-15)
    assert run.dispersion.length == 1e-3
    assert run.dispersion.t12 == pytest.approx(120e-15, rel=1e-15)
    assert run.microscope.lambda_p == 351 * 1e-9
    assert run.microscope.w0 == 8 * 1e-3
    assert run.quadrature.radial_nodes == 32
    assert (run.scan.instrument, run.scan.samples) == ("twin", 65)
    assert run.output.precision == 6


def test_round_trip_covers_every_sample_kind():
    cases = [
        ("sample.kind = delta", Delta()),
        ("sample.kind = two_point\nsample.separation = 1um", TwoPoint(1e-6)),
        ("sample.kind = slit\nsample.width = 0.2um", Slit(0.2 * 1e-6)),
        ("sample.kind = grating\nsample.period = 0.5um\nsample.duty = 0.4",
         Grating(0.5 * 1e-6, 0.4)),
    ]
    for text, sample in cases:
        run = parse_run_config(text + "\n")
        assert type(run.sample) is type(sample)
        assert run.sample == sample
    assert type(parse_run_config("").sample) is Delta


def _random_config(rng: random.Random) -> tuple[str, dict[str, object]]:
    """Valid config text with random values and units, and the SI value
    each written key must parse to."""
    expected: dict[str, object] = {}
    lines: list[str] = []

    def put(key, value, text=None):
        expected[key] = value
        lines.append(f"{key} = {value if text is None else text}")

    def quantity(key, value, units):
        unit = rng.choice(list(units))
        put(key, value, f"{value / units[unit]!r}{rng.choice(['', ' '])}{unit}")

    lengths = {"nm": 1e-9, "um": 1e-6, "mm": 1e-3, "cm": 1e-2, "m": 1.0, "": 1.0}
    lambda_p = rng.uniform(300e-9, 600e-9)
    quantity("microscope.lambda_p", lambda_p, lengths)
    if rng.random() < 0.5:
        lambda_o = lambda_p * rng.uniform(1.5, 2.5)
        quantity("microscope.lambda_o", lambda_o, lengths)
        quantity("microscope.lambda_e", 1.0 / (1.0 / lambda_p - 1.0 / lambda_o), lengths)
    a = rng.uniform(5e-3, 5e-2)
    f = rng.uniform(5e-3, 5e-2)
    quantity("microscope.a", a, lengths)
    quantity("microscope.f", f, lengths)
    quantity("microscope.f_p", rng.uniform(5e-3, 5e-2), lengths)
    quantity("microscope.w0", a * rng.uniform(0.01, 0.99), lengths)
    if rng.random() < 0.5:
        s0 = f * rng.uniform(1.1, 3.0)
        quantity("microscope.s0", s0, lengths)
        if rng.random() < 0.5:
            quantity("microscope.s1", 1.0 / (1.0 / f - 1.0 / s0), lengths)
    if rng.random() < 0.5:
        quantity("microscope.d", rng.uniform(5e-3, 5e-2), lengths)
    pump = rng.random() < 0.5
    put("microscope.pump_gaussian", pump, rng.choice(
        ["true", "yes", "on", "1"] if pump else ["false", "no", "off", "0"]))

    kind = rng.choice(["delta", "two_point", "slit", "grating", "raster"])
    put("sample.kind", kind)
    if kind == "two_point":
        quantity("sample.separation", rng.uniform(5e-8, 2e-6), lengths)
    elif kind == "slit":
        quantity("sample.width", rng.uniform(5e-8, 2e-6), lengths)
    elif kind == "grating":
        quantity("sample.period", rng.uniform(1e-7, 4e-6), lengths)
        put("sample.duty", rng.uniform(0.05, 0.95))
    elif kind == "raster":
        quantity("sample.pitch", rng.uniform(5e-8, 5e-7), lengths)
        width = rng.randint(1, 6)
        rows = tuple("".join(rng.choice("01") for _ in range(width))
                     for _ in range(rng.randint(1, 6)))
        put("sample.rows", rows, ";".join(rows))

    if rng.random() < 0.5:
        angles = {"deg": math.pi / 180.0, "rad": 1.0, "": 1.0}
        times = {"fs": 1e-15, "ps": 1e-12, "ns": 1e-9, "s": 1.0, "": 1.0}
        for key in ("dispersion.n_o", "dispersion.n_e"):
            coeffs = (rng.uniform(1.4, 2.0),) + tuple(
                rng.uniform(-1e-17, 1e-17) for _ in range(rng.randint(0, 2)))
            put(key, coeffs, ", ".join(repr(c) for c in coeffs))
        quantity("dispersion.psi", rng.uniform(0.1, 1.4), angles)
        if rng.random() < 0.5:
            quantity("dispersion.theta_e", rng.uniform(0.0, 0.1), angles)
        if rng.random() < 0.5:
            quantity("dispersion.length", rng.uniform(1e-4, 1e-2), lengths)
        if rng.random() < 0.5:
            quantity("dispersion.t12", rng.uniform(-1e-12, 1e-12), times)

    put("quadrature.radial_nodes", rng.randint(8, 96))
    put("quadrature.angular_nodes", rng.randint(8, 512))
    if rng.random() < 0.5:
        quantity("quadrature.truncation_radius", rng.uniform(1e-7, 1e-5), lengths)
    put("quadrature.target_rel_tol", 10.0 ** rng.uniform(-12, -4))
    put("scan.instrument", rng.choice(["twin", "confocal", "widefield"]))
    put("scan.geometry", rng.choice(["line", "grid"]))
    put("scan.direction", rng.choice(["x", "y"]))
    for key in ("scan.half_range", "scan.half_range_x", "scan.half_range_y"):
        quantity(key, rng.uniform(1e-7, 5e-6), lengths)
    for key in ("scan.samples", "scan.nx", "scan.ny"):
        put(key, rng.randint(16, 300))
    put("scan.threshold", rng.uniform(0.01, 0.99))
    for key in ("output.csv", "output.svg"):
        if rng.random() < 0.5:
            put(key, f"out_{rng.randint(0, 999)}.{key[-3:]}")
    put("output.precision", rng.randint(1, 17))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n", expected


def test_round_trip_fuzz():
    """Seeded random configs: every written key parses to its SI value,
    of the type of the field it fills."""
    rng = random.Random(20100615)
    kinds = set()
    with_dispersion = 0
    for _ in range(200):
        text, expected = _random_config(rng)
        run = parse_run_config(text)
        for key, value in expected.items():
            section, name = key.split(".")
            part = getattr(run, section)
            if key == "sample.kind":
                assert type(part) is cli._SAMPLE_KINDS[value], key
            elif key == "sample.rows":
                assert not part.grid.imag.any(), key
                assert tuple("".join(str(int(v)) for v in row)
                             for row in part.grid.real) == value, key
            else:
                got = getattr(part, name)
                assert type(got) is type(value), key
                if isinstance(value, float):
                    assert got == pytest.approx(value, rel=1e-14), key
                else:
                    assert got == value, key
        kinds.add(expected["sample.kind"])
        with_dispersion += run.dispersion is not None
    assert kinds == {"delta", "two_point", "slit", "grating", "raster"}
    assert 50 < with_dispersion < 150


def test_schema_keys_are_the_config_fields():
    """Each section's keys are the fields of the class it builds."""
    built = {"microscope": [MicroscopeConfig],
             "sample": [Delta, TwoPoint, Slit, Grating, Raster],
             "dispersion": [DispersionSpec], "quadrature": [QuadratureSpec],
             "scan": [ScanSpec], "output": [OutputSpec]}
    assert {key.split(".")[0] for key in _SCHEMA} == set(built)
    for section, classes in built.items():
        fields = {f.name for cls in classes for f in dataclasses.fields(cls)}
        if section == "sample":
            fields = fields - {"grid"} | {"kind", "rows"}
        keys = {key.split(".", 1)[1] for key in _SCHEMA if key.startswith(section + ".")}
        assert keys == fields, section


# ----------------------------------------------------------------------------
# params
# ----------------------------------------------------------------------------

def test_params_reports_derived_quantities():
    code, out, err = run_cli("params")
    assert code == 0
    assert "r0_m = 1.580055135e-06" in out
    assert "airy_radius_m = 4.282200000e-07" in out
    assert "crossover_waist_m = 3.689820968e-03" in out
    assert "eta0_inv_sq_im_m-2 = -1.790081284e+09" in out
    assert "pump_gaussian = true" in out


def test_params_waist_doubling_halves_r0(tmp_path):
    cfg = write_config(tmp_path, "microscope.w0 = 2mm\n")
    code, out, _ = run_cli("params", "--config", cfg)
    assert code == 0
    assert "r0_m = 7.900275674e-07" in out


def test_params_out_writes_the_report_to_the_file(tmp_path):
    """``--out`` routes the params report to the file, as for compare and
    sweep, and leaves stdout empty."""
    code, expected, _ = run_cli("params")
    assert code == 0
    path = tmp_path / "p.csv"
    code, out, err = run_cli("params", "--out", str(path))
    assert code == 0
    assert out == "" and err == ""
    assert path.read_text(encoding="utf-8") == expected


def test_params_svg_is_a_config_error(tmp_path, monkeypatch):
    """params draws no figure: a set ``output.svg`` is refused before any
    width is searched, and no file is written."""
    def refuse(*args, **kwargs):
        raise AssertionError("searched a width")
    monkeypatch.setattr("twinfocal.cli.response_fwhm", refuse)
    code, out, err = run_cli("params", "--out", str(tmp_path / "p.csv"),
                             "--svg", str(tmp_path / "p.svg"))
    assert code == 2
    assert "output.svg" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key, value", [
    ("w0", "1e-300"),  # w0**2 underflows to 0
    ("f_p", "1e300"),  # f_p**2 overflows
    ("lambda_p", "1e-300"),  # the carrier frequencies overflow
])
def test_params_rejects_a_geometry_the_model_cannot_evaluate(tmp_path, key, value):
    """A geometry without finite carriers or pump focus is an input error:
    exit 2 with one error line, before any arithmetic warns."""
    cfg = write_config(tmp_path, f"microscope.{key} = {value}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("params", "--config", cfg)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: carrier frequencies, r0 and eta0_inv_sq must be positive and finite"]


def test_params_refuses_a_waist_whose_r0_closed_forms_disagree(tmp_path):
    """w0**2 subnormal: r0's two closed forms part, an input error."""
    cfg = write_config(tmp_path, "microscope.w0 = 1e-157\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("params", "--config", cfg)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: w0 = 1e-157 is too small: r0's closed forms disagree beyond 1e-12 relative"]


def test_params_no_pump_gaussian_flag():
    code, out, _ = run_cli("params", "--no-pump-gaussian")
    assert code == 0
    assert "pump_gaussian = false" in out
    # without the envelope the twin width is exactly half the confocal one
    assert "reduction_twin_vs_confocal_pct = 5.000000000e+01" in out


# ----------------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------------

def test_compare_default_table_and_reductions():
    code, out, err = run_cli("compare", "--points", "11")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "y_m,confocal,twin_w0_1.000e-03,twin_w0_8.000e-03,twin_w0_1.200e-02"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert all(float(v) == 1.0 for v in first[1:])
    # reductions and references go to stderr when the CSV uses stdout
    assert "fwhm_confocal_m" in err
    assert "reference=50.0" in err and "reference=61.0" in err \
        and "reference=68.0" in err
    assert err.count("note:") == 1


def test_compare_pointwise_ordering_of_emitted_curves():
    code, out, _ = run_cli("compare", "--points", "41")
    table = np.array([[float(v) for v in line.split(",")]
                      for line in out.strip().split("\n")[1:]])
    y, confocal, twin1, twin8, twin12 = table.T
    interior = y > 0
    assert np.all(twin1[interior] < confocal[interior])
    assert np.all(twin8[interior] < twin1[interior])
    assert np.all(twin12[interior] < twin8[interior])


def test_compare_out_file_moves_report_to_stdout(tmp_path):
    out_path = tmp_path / "table.csv"
    code, out, err = run_cli("compare", "--points", "5",
                             "--out", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8").startswith("y_m,confocal")
    assert "reduction_pct" in out  # report moved to stdout
    assert "reduction_pct" not in err


def test_compare_without_envelope_reduces_exactly_half():
    code, out, err = run_cli("compare", "--no-pump-gaussian",
                             "--waists", "8mm", "--points", "5")
    assert code == 0
    assert "value=50.00" in err
    assert "note:" not in err  # references only apply with the envelope


def test_compare_confocal_only_when_no_waists():
    code, out, err = run_cli("compare", "--waists", "", "--points", "5")
    assert code == 0
    assert out.strip().split("\n")[0] == "y_m,confocal"
    assert "reduction_pct" not in err


def test_compare_rejects_waist_beyond_aperture():
    code, _, err = run_cli("compare", "--waists", "3cm")
    assert code == 2
    assert "error:" in err


def test_compare_svg(tmp_path):
    svg_path = tmp_path / "plot.svg"
    code, _, _ = run_cli("compare", "--points", "11", "--out",
                         str(tmp_path / "t.csv"), "--svg", str(svg_path))
    assert code == 0
    text = svg_path.read_text(encoding="utf-8")
    assert text.startswith("<svg")
    assert "<polyline" in text and text.rstrip().endswith("</svg>")


@pytest.mark.parametrize("flag, value, message", [
    ("--ymax", "inf", "ymax must be positive and finite"),
    ("--ymax", "1e160", "at most 1 m"),
    ("--points", str(_MAX_OFFSETS + 1), f"got {_MAX_OFFSETS + 1}"),
    # 401 default points by 10 461 columns: each flag is in bounds, the table is not
    ("--waists", ",".join(["8mm"] * 10460), "compare table of 4194861 values"),
])
def test_compare_rejects_unbounded_range(monkeypatch, flag, value, message):
    """A non-finite ymax, one beyond 1 m or too many points is refused
    before any response is evaluated, and before numpy sees the value."""
    def refuse(*args, **kwargs):
        raise AssertionError("evaluated a response")
    for name in ("psf_confocal", "psf_twin", "response_fwhm"):
        monkeypatch.setattr(f"twinfocal.cli.{name}", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("compare", flag, value)
    assert code == 2
    assert message in err
    assert out == ""


def test_compare_table_limit_admits_default_waists_at_most_points(monkeypatch):
    """2**20 points with the three default waists fill the table limit
    exactly and reach evaluation."""
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached
    monkeypatch.setattr("twinfocal.cli.psf_confocal", reached)
    with pytest.raises(Reached):
        run_cli("compare", "--points", str(_MAX_OFFSETS))


# ----------------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------------

def test_sweep_reduction_grows_with_waist():
    code, out, _ = run_cli("sweep", "--w0-min", "1mm", "--w0-max", "2cm",
                           "--steps", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "w0_m,r0_m,fwhm_twin_m,reduction_pct"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert rows.shape == (8, 4)
    assert np.all(np.diff(rows[:, 0]) > 0)       # waist ascends
    assert np.all(np.diff(rows[:, 1]) < 0)       # r0 shrinks
    assert np.all(np.diff(rows[:, 3]) > 0)       # reduction grows


@pytest.mark.parametrize("command, args", [
    ("sweep", ("--steps", str(_MAX_OFFSETS + 1))),
    ("compare", ("--waists", ",".join(["8mm"] * (_MAX_OFFSETS + 1)), "--points", "5")),
])
def test_width_searches_are_bounded(monkeypatch, command, args):
    """More than 2^20 sweep steps or compare waists, one ``fwhm`` each, are
    refused with the count before any width is searched."""
    def refuse(*args, **kwargs):
        raise AssertionError("searched a width")
    monkeypatch.setattr("twinfocal.cli.response_fwhm", refuse)
    code, out, err = run_cli(command, *args)
    assert code == 2
    assert f"got {_MAX_OFFSETS + 1}" in err
    assert out == ""


def test_sweep_rejects_bad_range():
    code, _, err = run_cli("sweep", "--w0-min", "2cm", "--w0-max", "1mm")
    assert code == 2
    assert "error:" in err


# ----------------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------------

def test_scan_line_csv_layout(tmp_path):
    cfg = write_config(tmp_path, "\n".join([
        "sample.kind = two_point",
        "sample.separation = 1um",
        "scan.samples = 21",
        "scan.half_range = 1um",
    ]) + "\n")
    code, out, err = run_cli("scan", "--config", cfg)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "y_m,rate"
    assert len(lines) == 22
    assert "dip_contrast=" in err and "resolved=yes" in err


def test_scan_grid_csv_header(tmp_path):
    code, out, _ = run_cli("scan", "--geometry", "grid", "--nx", "16",
                           "--ny", "17", "--half-range-x", "0.5um",
                           "--half-range-y", "0.4um")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# nx=16 ny=17 pitch_x=6.666666667e-08 "
                               "pitch_y=5.000000000e-08")
    assert len(lines) == 18
    assert len(lines[1].split(",")) == 16


def test_scan_gate_info_and_closed_window(tmp_path):
    cfg = write_config(tmp_path, "\n".join([
        "dispersion.n_o = 1.55",
        "dispersion.n_e = 1.60",
        "dispersion.psi = 49 deg",
        "scan.samples = 17",
    ]) + "\n")
    code, out, err = run_cli("scan", "--config", cfg)
    assert code == 0
    assert "never opens" in err
    assert "gate: window_s=" in err
    rates = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
    assert all(r == 0.0 for r in rates)


def test_scan_gate_open_window(tmp_path):
    cfg = write_config(tmp_path, "\n".join([
        "dispersion.n_o = 1.60",
        "dispersion.n_e = 1.55",
        "dispersion.psi = 49 deg",
        "scan.samples = 17",
    ]) + "\n")
    code, out, err = run_cli("scan", "--config", cfg)
    assert code == 0
    assert "never opens" not in err
    assert "gate: window_s=" in err
    rates = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
    assert max(rates) == 1.0


@pytest.mark.parametrize("instrument", ["confocal", "widefield"])
def test_classical_scan_prints_no_gate_lines(tmp_path, instrument):
    """Only the twin-photon image is gated: a classical scan with a closed
    window prints neither the gate's warning nor its line, and its image
    still peaks at 1.  Its dispersion model is still built and checked, so
    a bad one is refused as for a twin scan."""
    lines = ["dispersion.n_o = 1.55", "dispersion.n_e = 1.60", "dispersion.psi = 49 deg",
             "scan.samples = 17", f"scan.instrument = {instrument}"]
    code, out, err = run_cli("scan", "--config", write_config(tmp_path, "\n".join(lines) + "\n"))
    assert code == 0
    assert err == ""
    rates = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
    assert max(rates) == 1.0
    lines[0] = "dispersion.n_o = 1.55, 1e300"
    code, _, err = run_cli("scan", "--config", write_config(tmp_path, "\n".join(lines) + "\n"))
    assert code != 0 and "non-finite value" in err


@pytest.mark.parametrize("instrument", ["twin", "confocal", "widefield"])
@pytest.mark.parametrize("n_o, n_e, message", [
    ("0.5", "1.5555", "n_o must be >= 1 at the ordinary carrier"),
    ("1.6654, 2.0e-17", "0.5", "n_e must be >= 1 at the extraordinary carrier"),
], ids=["thin_n_o", "thin_n_e"])
def test_scan_refuses_an_unphysical_index_without_a_warning(tmp_path, instrument, n_o, n_e,
                                                            message):
    """An index below 1 at its carrier is refused before the gate's window
    is reported: exit 2 with the error alone, no closed-gate warning, for
    every instrument, as the model is checked for every instrument."""
    cfg = write_config(tmp_path, f"dispersion.n_o = {n_o}\ndispersion.n_e = {n_e}\n"
                                 f"dispersion.psi = 49.2 deg\nscan.instrument = {instrument}\n")
    assert run_cli("scan", "--config", cfg) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("n_o, n_e", [("1.60", "1.55"), ("1.55", "1.60")])
def test_scan_out_file_moves_report_to_stdout(tmp_path, n_o, n_e):
    """With ``--out`` the gate and dip lines go to stdout, as compare's
    report does, and only the warning of a closed gate stays on stderr.
    Without it they follow the warning on stderr, in that order."""
    cfg = write_config(tmp_path, "\n".join([
        f"dispersion.n_o = {n_o}",
        f"dispersion.n_e = {n_e}",
        "dispersion.psi = 49 deg",
        "sample.kind = two_point",
        "sample.separation = 0.3um",
        "scan.samples = 17",
    ]) + "\n")
    code, table, err = run_cli("scan", "--config", cfg)
    assert code == 0
    out_path = tmp_path / "scan.csv"
    code, out, err_out = run_cli("scan", "--config", cfg, "--out", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == table
    warning = ("warning: group-delay window D*L <= 0; the coincidence gate "
               "never opens and the twin-photon image is all zero\n")
    assert err_out == (warning if n_o == "1.55" else "")
    assert re.fullmatch(r"gate: window_s=\S+ t12_s=\S+\n"
                        r"dip_contrast=\S+ threshold=0\.0500 resolved=(yes|no)\n", out)
    assert err == err_out + out


def test_scan_t12_flag_requires_dispersion():
    """``--t12`` alone sets one dispersion key, so the section misses the
    others like a config with only ``dispersion.t12``."""
    flagged = run_cli("scan", "--t12", "120fs")
    assert flagged == (2, "", "error: missing required key 'dispersion.n_o' "
                              "when dispersion is configured\n")


def test_flag_value_replaces_the_key_before_the_section_is_checked(tmp_path):
    """A flag rescues a config whose own value of its key is invalid: the
    section is checked once, with the flag's value."""
    base = "sample.kind = two_point\nsample.separation = 0.5um\nscan.samples = 17\n"
    bad = write_config(tmp_path, base + "scan.threshold = 2\n")
    assert run_cli("scan", "--config", bad) == (2, "", "error: threshold must lie in (0, 1)\n")
    good = tmp_path / "good.cfg"
    good.write_text(base + "scan.threshold = 0.5\n", encoding="utf-8")
    rescued = run_cli("scan", "--config", bad, "--threshold", "0.5")
    assert rescued[0] == 0
    assert rescued == run_cli("scan", "--config", str(good))


def test_negative_flag_value_without_equals_sign(tmp_path):
    """``--t12 -100fs`` is ``--t12=-100fs``: a negative t12 closes the gate."""
    cfg = write_config(tmp_path, "dispersion.n_o = 1.60\ndispersion.n_e = 1.55\n"
                                 "dispersion.psi = 49 deg\nscan.samples = 17\n")
    spaced = run_cli("scan", "--config", cfg, "--t12", "-100fs")
    assert spaced == run_cli("scan", "--config", cfg, "--t12=-100fs")
    code, out, err = spaced
    assert code == 0
    assert "t12_s=-1.000e-13" in err
    assert {line.split(",")[1] for line in out.splitlines()[1:]} == {"0.000000000e+00"}


def test_negative_waist_without_equals_sign_reaches_the_config_check():
    spaced = run_cli("compare", "--waists", "-1mm")
    assert spaced == run_cli("compare", "--waists=-1mm")
    assert spaced == (2, "", "error: w0 must be strictly positive, got -0.001\n")


@pytest.mark.parametrize("argv", [("scan", "--t12", "--out", "x.csv"),
                                  ("compare", "--waists", "--points", "5")])
def test_flag_followed_by_a_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


_FLAG_VALUES = {"instrument": "confocal", "geometry": "grid", "direction": "y",
                "half_range": "0.5um", "samples": "40", "half_range_x": "0.3um",
                "half_range_y": "0.2um", "nx": "20", "ny": "18", "threshold": "0.9"}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ScanSpec)])
def test_scan_flag_equals_config_key(tmp_path, name):
    """``scan --<name> v`` gives the bytes of ``scan.<name> = v`` in the
    config, and they differ from the run without either."""
    base = "sample.kind = two_point\nsample.separation = 0.5um\n"
    if name in ("half_range_x", "half_range_y", "nx", "ny"):
        base += "scan.geometry = grid\n"
    value = _FLAG_VALUES[name]
    plain = write_config(tmp_path, base)
    keyed = tmp_path / "keyed.cfg"
    keyed.write_text(base + f"scan.{name} = {value}\n", encoding="utf-8")
    flag = "--" + name.replace("_", "-")
    by_flag = run_cli("scan", "--config", plain, flag, value)
    by_key = run_cli("scan", "--config", str(keyed))
    assert by_flag[0] == 0
    assert by_flag == by_key
    assert by_flag != run_cli("scan", "--config", plain)


@pytest.mark.parametrize("flag, value, message", [
    ("--threshold", "nan", "threshold must lie in (0, 1)"),
    ("--threshold", "0", "threshold must lie in (0, 1)"),
    ("--threshold", "1", "threshold must lie in (0, 1)"),
    ("--threshold", "-0.5", "threshold must lie in (0, 1)"),
    ("--instrument", "laser", "unknown instrument 'laser'"),
    ("--geometry", "ring", "unknown scan geometry 'ring'"),
    ("--direction", "z", "unknown scan direction 'z'"),
    ("--samples", "many", "--samples: invalid literal"),
])
def test_scan_rejects_bad_flag_values(flag, value, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("scan", flag, value)
    assert code == 2
    assert message in err
    assert out == ""


def test_scan_rejects_nan_threshold_key(tmp_path):
    cfg = write_config(tmp_path, "sample.kind = two_point\nsample.separation = 1um\n"
                                 "scan.threshold = nan\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli("scan", "--config", cfg)
    assert code == 2
    assert "threshold must lie in (0, 1)" in err


def test_scan_byte_determinism_across_threads(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, "\n".join([
        "sample.kind = slit",
        "sample.width = 0.2um",
        "scan.samples = 33",
    ]) + "\n")
    outputs = []
    for setting in (None, "4"):
        if setting is None:
            monkeypatch.delenv("TWINFOCAL_THREADS", raising=False)
        else:
            monkeypatch.setenv("TWINFOCAL_THREADS", setting)
        path = tmp_path / f"scan_{setting}.csv"
        code, _, _ = run_cli("scan", "--config", cfg, "--out", str(path))
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_scan_svg_outputs(tmp_path):
    line_svg = tmp_path / "line.svg"
    code, _, _ = run_cli("scan", "--samples", "17", "--svg", str(line_svg),
                         "--out", str(tmp_path / "line.csv"))
    assert code == 0
    assert line_svg.read_text(encoding="utf-8").startswith("<svg")
    grid_svg = tmp_path / "grid.svg"
    code, _, _ = run_cli("scan", "--geometry", "grid", "--nx", "16",
                         "--ny", "16", "--svg", str(grid_svg),
                         "--out", str(tmp_path / "grid.csv"))
    assert code == 0
    assert "<rect" in grid_svg.read_text(encoding="utf-8")


# ----------------------------------------------------------------------------
# output formatting
# ----------------------------------------------------------------------------

def reference_csv_table(header, rows, precision):
    """``cli._csv_table`` as a per-element formula: one numpy scalar at a time."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.{precision}e}" for v in row))
    return "\n".join(lines) + "\n"


def reference_heatmap_svg(matrix, title):
    """``cli.render_heatmap_svg`` with its shades rounded one element at a time."""
    ny, nx = matrix.shape
    cell = max(2, min(16, 480 // max(nx, ny)))
    left, top = 40, 40
    width = left + nx * cell + 40
    height = top + ny * cell + 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left + nx * cell / 2:.0f}" y="24" text-anchor="middle" '
        f'font-size="14">{title}</text>',
    ]
    for i in range(ny):
        for j in range(nx):
            shade = int(round(255.0 * (1.0 - float(matrix[i, j]))))
            parts.append(f'<rect x="{left + j * cell}" y="{top + i * cell}" '
                         f'width="{cell}" height="{cell}" '
                         f'fill="#{shade:02x}{shade:02x}{shade:02x}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def half_shade_values() -> np.ndarray:
    """Values whose shade ``255 (1 - v)`` lies within an ulp of each
    half-integer from 0.5 to 254.5, on either side, and the end points."""
    exact = 1.0 - (np.arange(255) + 0.5) / 255.0
    return np.concatenate([np.nextafter(exact, -1.0), exact, np.nextafter(exact, 2.0),
                           [0.0, 1.0, -0.0]])


def test_csv_table_matches_the_per_element_formula():
    rng = np.random.default_rng(29)
    grids = [rng.random((33, 33)), rng.random((16, 40)) * 10.0 ** rng.integers(-300, 300),
             half_shade_values().reshape(-1, 6),
             np.array([[0.0, -0.0, 5e-324, 1.7976931348623157e308, math.inf, math.nan]])]
    for grid in grids:
        for precision in (3, 9, 17):
            assert cli._csv_table(["h"], grid, precision) == reference_csv_table(
                ["h"], grid, precision)
    rows = [(1, 2.5, np.float64(1e-3)), (-3, 0.1, 7)]  # sweep rows: mixed scalars
    assert cli._csv_table(["a", "b", "c"], rows, 4) == reference_csv_table(["a", "b", "c"],
                                                                           rows, 4)


def test_heatmap_svg_matches_the_per_element_formula():
    """Shades round half to even, as ``round`` does, also within an ulp of
    a half-integer, and from float32 images as from float64 ones."""
    rng = np.random.default_rng(29)
    half = half_shade_values().reshape(-1, 16)
    for matrix in (rng.random((33, 33)), rng.random((16, 20)), half, half.astype(np.float32),
                   np.zeros((16, 16))):
        assert cli.render_heatmap_svg(matrix, "grid") == reference_heatmap_svg(matrix, "grid")
    for bad, error in ((math.nan, ValueError), (math.inf, OverflowError)):
        with pytest.raises(error):
            cli.render_heatmap_svg(np.full((16, 16), bad), "grid")
        with pytest.raises(error):
            reference_heatmap_svg(np.full((16, 16), bad), "grid")


# ----------------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------------

# A 1 um slit at 8 nodes: the last node doubling still moves it by 3.5e-7
# of the result.
_UNCONVERGED = "\n".join([
    "sample.kind = slit",
    "sample.width = 1um",
    "quadrature.radial_nodes = 8",
    "scan.samples = 16",
    "scan.half_range = 1um",
]) + "\n"


def test_exit_code_numerical_failure(tmp_path):
    cfg = write_config(tmp_path, _UNCONVERGED)
    code, _, err = run_cli("scan", "--config", cfg)
    assert code == 3
    assert "numerical error:" in err


@pytest.mark.parametrize("tol", ["inf", "0.5"])
def test_loose_target_tolerance_is_a_config_error(tmp_path, tol):
    """A tolerance at which node doubling would accept any result is
    refused, not used to write the unconverged image."""
    cfg = write_config(tmp_path, _UNCONVERGED + f"quadrature.target_rel_tol = {tol}\n")
    code, out, err = run_cli("scan", "--config", cfg)
    assert code == 2
    assert "target relative tolerance must lie in (0, 0.1)" in err
    assert out == ""


def test_exit_code_io_failure(tmp_path):
    code, _, err = run_cli("params", "--config", str(tmp_path / "absent.cfg"))
    assert code == 4
    assert "i/o error:" in err
    code, _, err = run_cli("compare", "--points", "5",
                           "--out", str(tmp_path / "no_dir" / "t.csv"))
    assert code == 4


def test_exit_code_config_error(tmp_path):
    cfg = write_config(tmp_path, "microscope.w0 = 3cm\n")  # waist > aperture
    code, _, err = run_cli("params", "--config", cfg)
    assert code == 2
    assert "error:" in err


def test_scan_rejects_non_finite_truncation_radius(tmp_path):
    """An infinite radius is refused as a config error, before numpy sees it."""
    cfg = write_config(tmp_path, "\n".join([
        "sample.kind = slit",
        "sample.width = 0.5um",
        "quadrature.truncation_radius = inf",
        "scan.samples = 16",
    ]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli("scan", "--config", cfg)
    assert code == 2
    assert "truncation radius must be positive and finite" in err


PITCH_OVERFLOW_ERROR = ("error: sample pitch 1e-310 m is too small for scan offsets up to "
                        "1e-06 m: their lattice coordinates overflow\n")
FAR_SAMPLE_ERROR = "error: sample reach from the axis must be at most 1 m, got "


@pytest.mark.parametrize("text, expected", [
    ("sample.kind = raster\nsample.pitch = 1e-310\nsample.rows = 1\n"
     "scan.geometry = grid\nscan.nx = 16\nscan.ny = 16\n", PITCH_OVERFLOW_ERROR),
    ("sample.kind = slit\nsample.width = 1e-310\n", PITCH_OVERFLOW_ERROR),
    # the same slit behind a closed gate (window 0.33 ps) is refused all the same
    ("sample.kind = slit\nsample.width = 1e-310\ndispersion.n_o = 1.6\n"
     "dispersion.n_e = 1.5\ndispersion.psi = 0.5\ndispersion.t12 = 1 ps\n",
     PITCH_OVERFLOW_ERROR),
    ("sample.kind = raster\nsample.pitch = 1e-300\nsample.rows = 1\n"
     "scan.geometry = grid\nscan.nx = 16\nscan.ny = 16\n",
     "error: scan table of inf cells exceeds the limit of 4194304; building it would need "
     "about inf MiB\n"),
    ("scan.half_range = 1e300\nscan.samples = 16\n",
     "error: scan half range must be at most 1 m, got 1e+300\n"),
    ("sample.kind = slit\nsample.width = 1e300\n", FAR_SAMPLE_ERROR + "5e+299\n"),
    # a grating has no cells to reach out: it is refused for its orders
    ("sample.kind = grating\nsample.period = 1e300\n",
     "error: grating of 7.473e+306 diffraction orders exceeds the limit of 65536; "
     "evaluating them would need about 4.56e+302 MiB\n"),
    ("sample.kind = raster\nsample.pitch = 1e300\nsample.rows = 11;11\n",
     FAR_SAMPLE_ERROR + "1e+300\n"),
    ("sample.kind = two_point\nsample.separation = 1e300\n", FAR_SAMPLE_ERROR + "5e+299\n"),
], ids=["raster_grid", "slit_line", "slit_line_closed_gate", "raster_grid_inf_cells",
        "delta_far_line", "slit_far", "grating_far", "raster_far", "two_point_far"])
def test_scan_refuses_pitch_that_offsets_overflow(tmp_path, text, expected):
    """A pitch so small that the scan offsets overflow its lattice is a
    config error naming both, raised before numpy warns, whatever the
    gate; so are a table
    too large to count in floats, a delta scanned too far to square its
    offsets and sample cells beyond 1 m of the axis."""
    cfg = write_config(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("scan", "--config", cfg)
    assert code == 2
    assert out == ""
    assert err == expected


# ----------------------------------------------------------------------------
# module entry point
# ----------------------------------------------------------------------------

def test_module_runs_as_script():
    proc = subprocess.run([sys.executable, "-m", "twinfocal.cli", "params"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "r0_m = 1.580055135e-06" in proc.stdout


def test_cached_parser_behaves_like_a_fresh_one(tmp_path, capsys):
    """``main`` builds its parser once per process.  Calls with different
    subcommands, an argument error and a config error in between, give the
    same exit codes and bytes as calls that each build a new parser."""
    good = write_config(tmp_path, "microscope.w0 = 8mm\n")
    bad = tmp_path / "bad.cfg"
    bad.write_text("microscope.w0 = 3cm\n", encoding="utf-8")  # waist > aperture
    calls = [
        ("params", "--config", good),
        ("compare", "--config", good, "--points", "5"),
        ("sweep", "--config", good, "--steps", "2", "--no-such-flag"),
        ("params", "--config", str(bad)),
        ("compare", "--config", good, "--points", "5"),
        ("params", "--config", good),
    ]

    def outcomes(fresh: bool) -> list:
        seen = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            try:
                code, out, err = run_cli(*argv)
            except SystemExit as exc:  # argparse reports on sys.stderr
                code, out, err = exc.code, "", ""
            captured = capsys.readouterr()
            seen.append((code, out, err, captured.out, captured.err))
        return seen

    cached, fresh = outcomes(False), outcomes(True)
    assert cached == fresh
    assert [entry[0] for entry in cached] == [0, 0, 2, 2, 0, 0]
    assert cached[0] == cached[-1] and cached[1] == cached[-2]
    assert "--no-such-flag" in cached[2][4]
