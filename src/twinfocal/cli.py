"""Command line front end.

Subcommands
-----------
params   print the derived optical quantities for a configuration
compare  tabulate confocal vs twin-photon responses and width reductions
sweep    sweep the pump waist and tabulate the twin FWHM and reduction
scan     run a line or grid scan of a sample past an instrument

Configuration files are flat ``key = value`` text: one assignment per
line, ``#`` comments, dotted section prefixes (``microscope.``,
``sample.``, ``dispersion.``, ``quadrature.``, ``scan.``, ``output.``).
Values carry optional unit suffixes (lengths: nm um mm cm m; angles:
deg rad; times: fs ps s); bare numbers are SI base units.  Unset keys
fall back to the reference instrument geometry (351 nm pump, degenerate
702 nm down-conversion, 2 cm apertures and focal lengths, 1 mm waist).

The keys of a section are the fields of the class it builds
(``sample.rows`` fills the raster's ``grid``), and an unset key takes
its field's default.  Flags override single keys: ``--out`` sets
``output.csv``, ``--svg`` ``output.svg``, ``--no-pump-gaussian``
``microscope.pump_gaussian = false`` and ``--t12`` ``dispersion.t12``;
each ``scan.*`` key has a same-named flag (``scan.half_range_x`` is
``--half-range-x``).  A flag's value replaces its key's value before the
section is built and checked.

Exit codes: 0 success, 2 configuration or validation error, 3 numerical
failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import re
import sys
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NumericalError, check_size
from .optics import (
    MicroscopeConfig,
    airy_radius,
    crossover_waist,
    pump_focus,
    r0,
)
from .psf import psf_confocal, psf_twin, psf_widefield, response_fwhm, width_reduction
from .coincidence import (
    Delta,
    DispersionModel,
    Grating,
    QuadratureSpec,
    Raster,
    SampleTransmittance,
    Slit,
    TwoPoint,
    delay_window,
)
from .scansim import (
    _MAX_OFFSETS, Grid, Instrument, Line, ScanPlan, _check_half_range, dip_contrast, scan)

__all__ = ["RunConfig", "parse_run_config", "main"]

_LENGTH_UNITS = {"nm": 1e-9, "um": 1e-6, "mm": 1e-3, "cm": 1e-2, "m": 1.0}
_ANGLE_UNITS = {"deg": math.pi / 180.0, "rad": 1.0}
_TIME_UNITS = {"fs": 1e-15, "ps": 1e-12, "ns": 1e-9, "s": 1.0}

_QUANTITY_RE = re.compile(r"([-+0-9.eE]+)\s*([a-zA-Z]*)\Z")

# Most values of one compare table (three waists at 2**20 points); tracemalloc peak per value.
_MAX_COMPARE_VALUES = 1 << 22
_BYTES_PER_COMPARE_VALUE = 96

# Published width reductions at the reference geometry, keyed by pump
# waist [m]; the pump envelope exp(-4 y^2/r0^2) of psf_twin reproduces
# them to within half a point.
_REFERENCE_REDUCTIONS = {1e-3: 50.0, 8e-3: 61.0, 12e-3: 68.0, 2e-2: 77.3}
_REFERENCE_NOTE = (
    "note: reference= gives the published width reduction at this geometry "
    "and pump waist, for comparison; value= is computed by this model."
)


# ============================================================================
# value parsers
# ============================================================================

def _parse_quantity(text: str, units: dict[str, float], what: str) -> float:
    text = text.strip()
    if text.lower() in ("inf", "+inf", "infinity"):
        return math.inf
    match = _QUANTITY_RE.fullmatch(text)
    if not match:
        raise ValueError(f"cannot parse {what} value '{text}'")
    try:
        number = float(match.group(1))
    except ValueError as exc:
        raise ValueError(f"cannot parse {what} value '{text}'") from exc
    unit = match.group(2)
    if unit == "":
        return number
    if unit not in units:
        raise ValueError(f"unknown {what} unit '{unit}'")
    return number * units[unit]


_parse_length = partial(_parse_quantity, units=_LENGTH_UNITS, what="length")
_parse_angle = partial(_parse_quantity, units=_ANGLE_UNITS, what="angle")
_parse_time = partial(_parse_quantity, units=_TIME_UNITS, what="time")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"cannot parse boolean value '{text}'")


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(float(item) for item in items)


def _parse_rows(text: str) -> np.ndarray:
    rows = [row.strip() for row in text.split(";") if row.strip()]
    if not rows:
        raise ValueError("expected semicolon-separated rows of 0/1 digits")
    width = len(rows[0])
    for row in rows:
        if len(row) != width or any(ch not in "01" for ch in row):
            raise ValueError("raster rows must be equal-length strings of 0/1")
    return np.array([[float(ch) for ch in row] for row in rows])


# Every config key: its value parser, and the flag that overrides it.
_SCHEMA: dict[str, tuple[Callable[[str], object], str | None]] = {
    "microscope.lambda_p": (_parse_length, None),
    "microscope.lambda_o": (_parse_length, None),
    "microscope.lambda_e": (_parse_length, None),
    "microscope.a": (_parse_length, None),
    "microscope.f": (_parse_length, None),
    "microscope.f_p": (_parse_length, None),
    "microscope.w0": (_parse_length, None),
    "microscope.s0": (_parse_length, None),
    "microscope.s1": (_parse_length, None),
    "microscope.d": (_parse_length, None),
    "microscope.pump_gaussian": (_parse_bool, "--no-pump-gaussian"),
    "sample.kind": (str.strip, None),
    "sample.separation": (_parse_length, None),
    "sample.width": (_parse_length, None),
    "sample.period": (_parse_length, None),
    "sample.duty": (float, None),
    "sample.pitch": (_parse_length, None),
    "sample.rows": (_parse_rows, None),
    "dispersion.n_o": (_parse_float_list, None),
    "dispersion.n_e": (_parse_float_list, None),
    "dispersion.psi": (_parse_angle, None),
    "dispersion.theta_e": (_parse_angle, None),
    "dispersion.length": (_parse_length, None),
    "dispersion.t12": (_parse_time, "--t12"),
    "quadrature.radial_nodes": (int, None),
    "quadrature.angular_nodes": (int, None),
    "quadrature.truncation_radius": (_parse_length, None),
    "quadrature.target_rel_tol": (float, None),
    "scan.instrument": (str.strip, "--instrument"),
    "scan.geometry": (str.strip, "--geometry"),
    "scan.direction": (str.strip, "--direction"),
    "scan.half_range": (_parse_length, "--half-range"),
    "scan.samples": (int, "--samples"),
    "scan.half_range_x": (_parse_length, "--half-range-x"),
    "scan.half_range_y": (_parse_length, "--half-range-y"),
    "scan.nx": (int, "--nx"),
    "scan.ny": (int, "--ny"),
    "scan.threshold": (float, "--threshold"),
    "output.csv": (str.strip, "--out"),
    "output.svg": (str.strip, "--svg"),
    "output.precision": (int, None),
}

_SAMPLE_KINDS = {"delta": Delta, "two_point": TwoPoint, "slit": Slit,
                 "grating": Grating, "raster": Raster}


def _key(section: str, name: str) -> str:
    """Config key of a field; the raster's ``grid`` is ``sample.rows``."""
    return f"{section}.{'rows' if name == 'grid' else name}"


# ============================================================================
# run configuration
# ============================================================================

@dataclass(frozen=True)
class DispersionSpec:
    """Crystal description in config values: index polynomials in omega.  The
    ``n_e`` polynomial ignores ``psi``, so the walk-off ``walkoff_Ne`` of
    a crystal built from it is 0."""

    n_o: tuple[float, ...]
    n_e: tuple[float, ...]
    psi: float
    theta_e: float = DispersionModel.theta_e
    length: float = DispersionModel.L
    t12: float | None = None

    def build(self) -> DispersionModel:
        def horner(coeffs: tuple[float, ...], omega: float) -> float:
            acc = 0.0
            for c in reversed(coeffs):
                acc = acc * omega + c
            return acc

        n_o = lambda w: horner(self.n_o, w)  # noqa: E731
        n_e = lambda w, psi: horner(self.n_e, w)  # noqa: E731
        return DispersionModel(n_o=n_o, n_e=n_e, psi=self.psi,
                               theta_e=self.theta_e, L=self.length)


@dataclass(frozen=True)
class ScanSpec:
    instrument: str = ScanPlan.instrument.value
    geometry: str = "line"
    direction: str = "x"
    half_range: float = Line.half_range
    samples: int = Line.samples
    half_range_x: float = Grid.half_range_x
    half_range_y: float = Grid.half_range_y
    nx: int = Grid.nx
    ny: int = Grid.ny
    threshold: float = 0.05

    def __post_init__(self) -> None:
        if not (0.0 < self.threshold < 1.0):
            raise ConfigError("threshold must lie in (0, 1)")

    def build_plan(self) -> ScanPlan:
        try:
            instrument = Instrument(self.instrument)
        except ValueError:
            raise ConfigError(f"unknown instrument '{self.instrument}'") from None
        if self.geometry == "line":
            direction = {"x": (1.0, 0.0), "y": (0.0, 1.0)}.get(self.direction)
            if direction is None:
                raise ConfigError(f"unknown scan direction '{self.direction}'")
            geometry: Line | Grid = Line(direction=direction,
                                         half_range=self.half_range,
                                         samples=self.samples)
        elif self.geometry == "grid":
            geometry = Grid(half_range_x=self.half_range_x,
                            half_range_y=self.half_range_y,
                            nx=self.nx, ny=self.ny)
        else:
            raise ConfigError(f"unknown scan geometry '{self.geometry}'")
        return ScanPlan(geometry=geometry, instrument=instrument)


@dataclass(frozen=True)
class OutputSpec:
    csv: str | None = None
    svg: str | None = None
    precision: int = 9

    def __post_init__(self) -> None:
        if not (1 <= self.precision <= 17):
            raise ConfigError("output precision must lie in [1, 17]")


# The class each config section builds; the sample class is the one
# ``sample.kind`` names.
_SECTIONS = {"microscope": MicroscopeConfig, "sample": None,
             "dispersion": DispersionSpec, "quadrature": QuadratureSpec,
             "scan": ScanSpec, "output": OutputSpec}


@dataclass(frozen=True, eq=False)
class RunConfig:
    microscope: MicroscopeConfig
    sample: SampleTransmittance
    quadrature: QuadratureSpec
    dispersion: DispersionSpec | None
    scan: ScanSpec
    output: OutputSpec


def _build_section(section: str, values: dict[str, object]):
    """The object a config section builds from the values of its keys;
    unset fields keep their defaults.  A dispersion section without keys
    is None.  A sample key that the chosen kind does not read is an
    error."""
    if section == "sample":
        kind = values.get(_key(section, "kind"), "delta")
        if kind not in _SAMPLE_KINDS:
            raise ConfigError(f"unknown sample.kind '{kind}'")
        cls, context = _SAMPLE_KINDS[kind], f"for sample.kind={kind}"
    else:
        cls, context = _SECTIONS[section], f"when {section} is configured"
        if section == "dispersion" and not values:
            return None
    kwargs = {}
    for f in dataclasses.fields(cls):
        key = _key(section, f.name)
        if key in values:
            kwargs[f.name] = values[key]
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"missing required key '{key}' {context}")
    read = {_key(section, name) for name in (*kwargs, "kind")}
    stray = [key for key in values if key not in read]
    if stray:
        raise ConfigError(f"key '{stray[0]}' is not read {context}")
    return cls(**kwargs)


def parse_run_config(text: str, overrides: dict[str, object] | None = None) -> RunConfig:
    """Parse flat ``key = value`` configuration text into a RunConfig.  Each
    parsed value in ``overrides`` replaces its key's value before any
    section is built."""
    raw: dict[str, object] = {}
    for line_no, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"config line {line_no}: unknown key '{key}'")
        if key in raw:
            raise ConfigError(f"config line {line_no}: duplicate key '{key}'")
        try:
            raw[key] = _SCHEMA[key][0](value)
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"config line {line_no}: key '{key}': {exc}") from exc
    raw.update(overrides or {})
    return RunConfig(**{
        section: _build_section(section, {key: value for key, value in raw.items()
                                          if key.startswith(section + ".")})
        for section in _SECTIONS})


# ============================================================================
# output helpers
# ============================================================================

def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}e}"


# What a subcommand makes: its CSV text, its report lines, and a thunk
# that renders its figure.
Results = tuple[str, list[str], Callable[[], str] | None]


def _finish(output: OutputSpec, table: str, report: Sequence[str],
            figure: Callable[[], str] | None, stdout, stderr) -> int:
    """Write a subcommand's ``Results``, the same way for every subcommand.

    The CSV text goes to ``output.csv``, or to stdout if that is unset.
    The report lines go to stdout when the CSV went to a file, and to
    stderr otherwise.  The figure is rendered only when ``output.svg`` is
    set.
    """
    if output.csv is None:
        stdout.write(table)
    else:
        Path(output.csv).write_text(table, encoding="utf-8")
    (stderr if output.csv is None else stdout).write("".join(line + "\n" for line in report))
    if output.svg is not None:
        Path(output.svg).write_text(figure(), encoding="utf-8")
    return 0


def _csv_table(header: Sequence[str], rows: Sequence[Sequence[float]],
               precision: int) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v, precision) for v in row))
    return "\n".join(lines) + "\n"


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def render_line_svg(xs: np.ndarray, series: Sequence[np.ndarray],
                    labels: Sequence[str], title: str,
                    xlabel: str, ylabel: str) -> str:
    width, height = 720, 480
    left, right, top, bottom = 80, 190, 50, 60
    plot_w, plot_h = width - left - right, height - top - bottom
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y1 = max(1.0, max(float(np.max(s)) for s in series))
    span_x = (x1 - x0) or 1.0

    def px(x: float) -> float:
        return left + (x - x0) / span_x * plot_w

    def py(v: float) -> float:
        return top + plot_h - v / y1 * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black"/>',
        f'<text x="{left + plot_w / 2:.0f}" y="24" text-anchor="middle" '
        f'font-size="15">{title}</text>',
        f'<text x="{left + plot_w / 2:.0f}" y="{height - 14}" '
        f'text-anchor="middle" font-size="13">{xlabel}</text>',
        f'<text x="20" y="{top + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 20 {top + plot_h / 2:.0f})">{ylabel}</text>',
        f'<text x="{left}" y="{top + plot_h + 16}" text-anchor="middle" '
        f'font-size="11">{x0:.3g}</text>',
        f'<text x="{left + plot_w}" y="{top + plot_h + 16}" text-anchor="middle" '
        f'font-size="11">{x1:.3g}</text>',
        f'<text x="{left - 8}" y="{top + plot_h + 4}" text-anchor="end" '
        f'font-size="11">0</text>',
        f'<text x="{left - 8}" y="{top + 4}" text-anchor="end" '
        f'font-size="11">{y1:.3g}</text>',
    ]
    for idx, (values, label) in enumerate(zip(series, labels)):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        points = " ".join(f"{px(float(x)):.2f},{py(float(v)):.2f}"
                          for x, v in zip(xs, values))
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{points}"/>')
        ly = top + 16 + 18 * idx
        parts.append(f'<line x1="{left + plot_w + 12}" y1="{ly - 4}" '
                     f'x2="{left + plot_w + 34}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{left + plot_w + 40}" y="{ly}" '
                     f'font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_heatmap_svg(matrix: np.ndarray, title: str) -> str:
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


# ============================================================================
# subcommands
# ============================================================================

def _is_reference_geometry(cfg: MicroscopeConfig) -> bool:
    reference = MicroscopeConfig()
    return all(math.isclose(getattr(cfg, name), getattr(reference, name), rel_tol=1e-12)
               for name in ("lambda_p", "lambda_o", "lambda_e", "a", "f", "f_p", "s0", "d"))


def cmd_params(run: RunConfig) -> Results:
    cfg = run.microscope
    precision = run.output.precision
    if run.output.svg is not None:
        raise ConfigError("params draws no figure; output.svg (--svg) must not be set")
    focus = pump_focus(cfg)
    width_wf = response_fwhm(psf_widefield, cfg)
    width_cf = response_fwhm(psf_confocal, cfg)
    width_tw = response_fwhm(psf_twin, cfg)

    lines: list[str] = []

    def emit(key: str, value: float) -> None:
        lines.append(f"{key} = {_fmt(value, precision)}\n")

    for name in ("lambda_p", "lambda_o", "lambda_e", "a", "f", "f_p",
                 "w0", "s0", "s1", "d"):
        emit(f"{name}_m", getattr(cfg, name))
    lines.append(f"pump_gaussian = {'true' if cfg.pump_gaussian else 'false'}\n")
    emit("numerical_aperture", cfg.numerical_aperture)
    emit("sigma_p_sq_re_m2", focus.sigma_p_sq.real)
    emit("sigma_p_sq_im_m2", focus.sigma_p_sq.imag)
    emit("r0_m", focus.r0)
    emit("eta0_inv_sq_re_m-2", focus.eta0_inv_sq.real)
    emit("eta0_inv_sq_im_m-2", focus.eta0_inv_sq.imag)
    emit("airy_radius_m", airy_radius(cfg))
    emit("crossover_waist_m", crossover_waist(cfg))
    emit("fwhm_widefield_m", width_wf)
    emit("fwhm_confocal_m", width_cf)
    emit("fwhm_twin_m", width_tw)
    emit("reduction_twin_vs_widefield_pct", width_reduction(width_wf, width_tw))
    emit("reduction_twin_vs_confocal_pct", width_reduction(width_cf, width_tw))
    return "".join(lines), [], None


def cmd_compare(run: RunConfig, waists: Sequence[float], ymax: float | None,
                points: int) -> Results:
    cfg = run.microscope
    precision = run.output.precision
    if ymax is None:
        # Stay inside the first twin sidelobe: beyond ~0.9 Airy radii the
        # sidelobe of the twin response rises over the confocal zero.
        ymax = 0.8 * airy_radius(cfg)
    _check_half_range(ymax, "ymax")
    if not (2 <= points <= _MAX_OFFSETS):
        raise ConfigError(f"compare needs 2 to {_MAX_OFFSETS} points, got {points}")
    if len(waists) > _MAX_OFFSETS:
        raise ConfigError(f"compare takes at most {_MAX_OFFSETS} waists, got {len(waists)}")
    values = points * (1 + len(waists))
    check_size(values, _MAX_COMPARE_VALUES, f"compare table of {values} values",
               _BYTES_PER_COMPARE_VALUE)
    twin_cfgs = [dataclasses.replace(cfg, w0=w) for w in waists]

    ys = np.linspace(0.0, ymax, points)
    header = ["y_m", "confocal"]
    columns = [ys, psf_confocal(ys, cfg)]
    for w, twin_cfg in zip(waists, twin_cfgs):
        header.append(f"twin_w0_{w:.3e}")
        columns.append(psf_twin(ys, twin_cfg))
    table = _csv_table(header, np.stack(columns, axis=1), precision)

    width_cf = response_fwhm(psf_confocal, cfg)
    report = [f"fwhm_confocal_m = {_fmt(width_cf, precision)}"]
    at_reference = _is_reference_geometry(cfg) and cfg.pump_gaussian
    any_reference = False
    for w, twin_cfg in zip(waists, twin_cfgs):
        width_tw = response_fwhm(psf_twin, twin_cfg)
        reduction = width_reduction(width_cf, width_tw)
        line = (f"reduction_pct w0={_fmt(w, 3)} "
                f"fwhm_twin_m={_fmt(width_tw, precision)} "
                f"value={reduction:.2f}")
        if at_reference:
            for ref_w, ref_val in _REFERENCE_REDUCTIONS.items():
                if math.isclose(w, ref_w, rel_tol=1e-12):
                    line += f" reference={ref_val:.1f}"
                    any_reference = True
        report.append(line)
    if any_reference:
        report.append(_REFERENCE_NOTE)

    labels = ["confocal"] + [f"twin w0={w:.3e} m" for w in waists]
    return table, report, lambda: render_line_svg(
        ys, [np.asarray(c) for c in columns[1:]], labels,
        "confocal vs twin-photon response", "scan offset [m]", "normalized intensity")


def cmd_sweep(run: RunConfig, w0_min: float, w0_max: float, steps: int) -> Results:
    cfg = run.microscope
    precision = run.output.precision
    if not (0.0 < w0_min < w0_max <= cfg.a):
        raise ConfigError("sweep requires 0 < w0-min < w0-max <= a")
    if not (2 <= steps <= _MAX_OFFSETS):
        raise ConfigError(f"sweep needs 2 to {_MAX_OFFSETS} steps, got {steps}")
    width_cf = response_fwhm(psf_confocal, cfg)
    rows = []
    for w in np.linspace(w0_min, w0_max, steps):
        twin_cfg = dataclasses.replace(cfg, w0=float(w))
        width_tw = response_fwhm(psf_twin, twin_cfg)
        rows.append((float(w), r0(twin_cfg), width_tw,
                     width_reduction(width_cf, width_tw)))
    header = ["w0_m", "r0_m", "fwhm_twin_m", "reduction_pct"]
    w0s, reductions = np.array(rows)[:, 0], np.array(rows)[:, 3]
    return _csv_table(header, rows, precision), [], lambda: render_line_svg(
        w0s, [reductions / max(1.0, reductions.max())], ["reduction (scaled)"],
        "twin-photon width reduction vs pump waist", "pump waist [m]", "scaled reduction")


def cmd_scan(run: RunConfig, stderr) -> Results:
    cfg = run.microscope
    precision = run.output.precision
    plan = run.scan.build_plan()

    disp = None
    t12 = None
    report: list[str] = []
    if run.dispersion is not None:
        disp = run.dispersion.build()
        window = delay_window(disp, cfg.omega_o, cfg.omega_e)
        if window <= 0.0:
            stderr.write(
                "warning: group-delay window D*L <= 0; the coincidence gate "
                "never opens and the twin-photon image is all zero\n")
        t12 = run.dispersion.t12
        if t12 is None:
            # Center the arrival-time offset in the open window.
            t12 = 0.5 * window if window > 0.0 else 0.0
        report.append(f"gate: window_s={_fmt(window, 3)} t12_s={_fmt(t12, 3)}")

    image = scan(plan, cfg, run.sample, quad=run.quadrature, t12=t12, disp=disp)

    geometry = plan.geometry
    if isinstance(geometry, Line):
        offsets = np.linspace(-geometry.half_range, geometry.half_range,
                              geometry.samples)
        rows = np.stack([offsets, image.values], axis=1)
        if isinstance(run.sample, TwoPoint):
            contrast = dip_contrast(image)
            resolved = "yes" if contrast >= run.scan.threshold else "no"
            report.append(f"dip_contrast={contrast:.4f} "
                          f"threshold={run.scan.threshold:.4f} resolved={resolved}")
        return _csv_table(["y_m", "rate"], rows, precision), report, lambda: render_line_svg(
            offsets, [image.values], [plan.instrument.value],
            f"{plan.instrument.value} line scan", "scan offset [m]", "normalized rate")
    pitch_x = 2.0 * geometry.half_range_x / (geometry.nx - 1)
    pitch_y = 2.0 * geometry.half_range_y / (geometry.ny - 1)
    header = (f"# nx={geometry.nx} ny={geometry.ny} "
              f"pitch_x={_fmt(pitch_x, precision)} pitch_y={_fmt(pitch_y, precision)}")
    return _csv_table([header], image.values, precision), report, lambda: render_heatmap_svg(
        image.values, f"{plan.instrument.value} grid scan")


# ============================================================================
# argument parsing and dispatch
# ============================================================================

@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it depends only on
    ``_SCHEMA``, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="twinfocal",
        description="Twin-photon confocal microscope simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, sections: Sequence[str]) -> None:
        """--config, and the flag of each key in ``sections`` that has one."""
        p.add_argument("--config", help="path to a key=value config file")
        for key, (_, flag) in _SCHEMA.items():
            if flag is None or key.split(".", 1)[0] not in sections:
                continue
            if flag.startswith("--no-"):
                p.add_argument(flag, dest=key, action="store_const", const="false",
                               help=f"set {key} = false")
            else:
                p.add_argument(flag, dest=key, metavar="VALUE", help=f"set {key}")

    # params, compare and sweep read only these sections
    studied = ("microscope", "output")
    p_params = sub.add_parser("params", help="print derived optical quantities")
    common(p_params, studied)

    p_compare = sub.add_parser("compare",
                               help="tabulate confocal vs twin responses")
    common(p_compare, studied)
    p_compare.add_argument("--waists", default="1mm,8mm,12mm",
                           help="comma-separated pump waists (default 1mm,8mm,12mm)")
    p_compare.add_argument("--ymax", default=None,
                           help="upper scan offset (default 0.8 Airy radii)")
    p_compare.add_argument("--points", type=int, default=401)

    p_sweep = sub.add_parser("sweep", help="sweep the pump waist")
    common(p_sweep, studied)
    p_sweep.add_argument("--w0-min", default="1mm")
    p_sweep.add_argument("--w0-max", default="2cm")
    p_sweep.add_argument("--steps", type=int, default=20)

    p_scan = sub.add_parser("scan", help="scan a sample past an instrument")
    common(p_scan, tuple(_SECTIONS))
    return parser


def _load_run_config(args) -> RunConfig:
    """The config file's RunConfig with each given flag's key overridden."""
    overrides: dict[str, object] = {}
    for key, (parse, flag) in _SCHEMA.items():
        given = getattr(args, key, None)
        if given is not None:
            try:
                overrides[key] = parse(given)
            except ValueError as exc:
                raise ConfigError(f"{flag}: {exc}") from exc
    text = Path(args.config).read_text(encoding="utf-8") if args.config is not None else ""
    return parse_run_config(text, overrides)


def _dispatch(args, stdout, stderr) -> int:
    run = _load_run_config(args)
    if args.command == "params":
        results = cmd_params(run)
    elif args.command == "compare":
        waists = tuple(_parse_length(part)
                       for part in str(args.waists).split(",") if part.strip())
        ymax = _parse_length(args.ymax) if args.ymax is not None else None
        results = cmd_compare(run, waists, ymax, args.points)
    elif args.command == "sweep":
        results = cmd_sweep(run, _parse_length(args.w0_min),
                            _parse_length(args.w0_max), args.steps)
    elif args.command == "scan":
        results = cmd_scan(run, stderr)
    else:
        raise ConfigError(f"unknown command {args.command!r}")
    return _finish(run.output, *results, stdout, stderr)


def _attach_negative_values(argv: Sequence[str]) -> list[str]:
    """``argv`` with each ``--flag -1mm`` written ``--flag=-1mm``.

    argparse takes a token that begins with ``-`` for a flag, not a value,
    unless it is a bare negative number; a value with a unit, such as
    ``--t12 -100fs``, would fail as "expected one argument".  A token that
    begins with ``-`` and a digit or a point after a long flag without
    ``=`` becomes that flag's value, so it reaches the value parser.
    """
    tokens: list[str] = []
    for token in argv:
        if tokens and re.match(r"-[0-9.]", token) and re.fullmatch(r"--[^=]+", tokens[-1]):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    return tokens


def main(argv: Sequence[str] | None = None,
         stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return _dispatch(args, stdout, stderr)
    except (ConfigError, ValueError) as exc:
        stderr.write(f"error: {exc}\n")
        return 2
    except NumericalError as exc:
        stderr.write(f"numerical error: {exc}\n")
        return 3
    except OSError as exc:
        stderr.write(f"i/o error: {exc}\n")
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
