"""Output checks for benchmark jobs.

Every job's output is reduced to named series of floats (a digest).  The
invariants below hold for every seed; for seeds with committed reference
digests the series are also compared against them.  Tolerances come from
the package's accuracy contracts, never from byte equality, so a rewrite
that keeps the contracts passes:

* special functions are accurate to 1e-12 absolute; a closed-form
  response is a product of at most four Airy factors, peak-normalised,
  so its values may move by about 1e-11 (``CLOSED_FORM_ABS`` adds margin);
* ``fwhm`` bisects to 1e-8 relative, and one bisection step may flip
  under a within-contract change; widths, their ratios and percentages
  get ``FWHM_REL``;
* quadrature accepts a node-doubling disagreement of 10 * target_rel_tol
  (1e-8) of the amplitude; rates square it and normalisation by the peak
  doubles it again (``QUAD_ABS``);
* ``min_resolvable_separation`` bisects to 1e-3 relative (``MIN_RES_REL``).
"""

from __future__ import annotations

import math

CLOSED_FORM_ABS = 1e-10
FWHM_REL = 1e-7
QUAD_ABS = 1e-6
MIN_RES_REL = 2e-3
PEAK_ABS = 1e-12

# Samples whose responses need panel quadrature.
QUADRATURE_SAMPLES = ("slit", "grating", "raster")
REFERENCE_POINTS = 17


class CheckFailed(Exception):
    """An output violated an invariant or its reference digest."""


def _csv_columns(text: str) -> tuple[list[str], list[list[float]]]:
    lines = [line for line in text.splitlines() if line]
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, [list(col) for col in zip(*rows)]


def _grid_values(text: str) -> list[float]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return [float(v) for line in lines for v in line.split(",")]


def _key_values(text: str) -> dict[str, float]:
    """Numeric ``key = value`` lines of ``params``; ``s1_m`` is skipped
    because collimated detection sets it to infinity."""
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        if key != "s1_m" and value not in ("true", "false"):
            out[key] = float(value)
    return out


def _reductions(text: str) -> list[float]:
    """Width reductions (and their FWHMs) from the compare report."""
    vals = []
    for line in text.splitlines():
        if line.startswith("fwhm_confocal_m = "):
            vals.append(float(line.split(" = ")[1]))
        elif line.startswith("reduction_pct "):
            fields = dict(item.split("=", 1) for item in line.split()[1:])
            vals += [float(fields["fwhm_twin_m"]), float(fields["value"])]
    return vals


def digest(job, output) -> dict[str, list[float]]:
    """Named float series of one job's output.

    ``output`` is ``(exit_code, stdout, stderr)`` for CLI jobs, the image
    values (an array) for ``api_scan`` and a float for ``api_min_res``.
    """
    if job.command == "api_min_res":
        return {"separation_m": [float(output)]}
    if job.command == "api_scan":
        return {"values": [float(v) for v in output.ravel()]}
    code, out, err = output
    if code != 0:
        raise CheckFailed(f"exit code {code}: {err.strip()[-200:]}")
    if job.command == "params":
        return {key: [value] for key, value in _key_values(out).items()}
    if job.command == "scan" and out.startswith("#"):
        return {"values": _grid_values(out)}
    header, columns = _csv_columns(out)
    series = dict(zip(header, columns))
    if job.command == "compare":
        series["report"] = _reductions(err)
    if job.command == "scan":
        series = {"values": series["rate"]}
    return series


def _tolerance(job, key: str) -> tuple[float, float]:
    """(absolute, relative) tolerance for one digest series."""
    if job.command == "api_min_res":
        return 0.0, MIN_RES_REL
    if job.command in ("params", "sweep") or key == "report":
        return 0.0, FWHM_REL
    if any(f"kind = {kind}" in job.config for kind in QUADRATURE_SAMPLES):
        return QUAD_ABS, 0.0
    return CLOSED_FORM_ABS, 0.0


def _close(a: float, b: float, tol: tuple[float, float]) -> bool:
    return abs(a - b) <= tol[0] + tol[1] * abs(b)


def check_job(job, series: dict[str, list[float]]) -> None:
    """Apply the job's seed-independent invariants; raise CheckFailed."""
    for key, values in series.items():
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"{key}: non-finite value")
    if "peak" in job.checks:
        values = series["values"]
        if abs(max(values) - 1.0) > PEAK_ABS or min(values) < 0.0:
            raise CheckFailed("scan is not peak-normalised to 1")
    if "mirror" in job.checks:
        values = series["values"]
        tol = _tolerance(job, "values")
        for a, b in zip(values, reversed(values)):
            if not _close(a, b, tol):
                raise CheckFailed(f"scan of a symmetric sample is not mirror-symmetric "
                                  f"({a!r} vs {b!r})")
    if "peak_rows" in job.checks:
        for key, values in series.items():
            if key in ("y_m", "report"):
                continue
            if abs(values[0] - 1.0) > PEAK_ABS or max(values) > 1.0 + PEAK_ABS:
                raise CheckFailed(f"{key}: response is not peak-normalised at y = 0")
    if "width_order" in job.checks:
        twin, confocal, widefield = (series[f"fwhm_{k}_m"][0]
                                     for k in ("twin", "confocal", "widefield"))
        if not twin < confocal < widefield:
            raise CheckFailed("widths do not order as twin < confocal < widefield")
    if "twin_half" in job.checks:
        ratio = series["fwhm_twin_m"][0] / series["fwhm_confocal_m"][0]
        if abs(ratio - 0.5) > FWHM_REL:
            raise CheckFailed(f"flat-pump twin FWHM is {ratio!r} of the confocal one, not 1/2")


def check_resolution_order(separations: dict[str, float]) -> None:
    """Resolution limits of one pass must order as twin < confocal < widefield."""
    if not separations["twin"] < separations["confocal"] < separations["widefield"]:
        raise CheckFailed(f"resolution limits do not order: {separations!r}")


def reference_digest(series: dict[str, list[float]]) -> dict[str, list[float]]:
    """At most REFERENCE_POINTS evenly spaced values of every series."""
    out = {}
    for key, values in series.items():
        n = len(values)
        if n <= REFERENCE_POINTS:
            out[key] = list(values)
        else:
            step = (n - 1) / (REFERENCE_POINTS - 1)
            out[key] = [values[round(i * step)] for i in range(REFERENCE_POINTS)]
    return out


def check_reference(job, series: dict[str, list[float]],
                    expected: dict[str, list[float]]) -> None:
    """Compare a job's digest with its committed reference digest."""
    actual = reference_digest(series)
    if sorted(actual) != sorted(expected):
        raise CheckFailed(f"output series {sorted(actual)} differ from the reference")
    for key, values in expected.items():
        if len(actual[key]) != len(values):
            raise CheckFailed(f"{key}: length differs from the reference")
        tol = _tolerance(job, key)
        for a, b in zip(actual[key], values):
            if not _close(a, b, tol):
                raise CheckFailed(f"{key}: {a!r} differs from the reference {b!r}")
