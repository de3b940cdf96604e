"""Seeded inputs for the benchmark workloads.

Every workload is a fixed list of jobs.  A job is either a ``twinfocal``
command line (``params``, ``compare``, ``sweep``, ``scan``) or a call of the
public API (``scan``, ``min_resolvable_separation``); both kinds receive
only flat config text, parsed before timing starts for the API jobs.

The seed changes patterns, positions, waists and separations, never the
amount of work: raster shapes and lit-pixel counts, the grating period,
``w0`` on extended samples, quadrature node counts and every scan size are
constants of the workload.  ``work_signature`` lists those constants so
the tests can hold them fixed across seeds.

This module is plain data and imports nothing from the package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOAD_NAMES = ("closed_form", "twin_extended", "classical_extended")

# Crystal used for every gated job: n_o has a linear dispersion term, n_e
# is flat, so the group-delay window D*L is about 725 fs at the reference
# carriers.  Seeded t12 values stay well inside it, so the gate is open.
DISPERSION = (
    "dispersion.n_o = 1.6654, 2.0e-17\n"
    "dispersion.n_e = 1.5555\n"
    "dispersion.psi = 49.2 deg\n"
    "dispersion.length = 1mm\n"
)

# Extended samples: pump waist, raster pitch and shape, seeded pixel
# pairs per raster, grating period.
EXTENDED_W0_MM = 8.0
PITCH_UM = 0.2
LINE_RASTER_SIDE = 6
LINE_RASTER_SEEDED_PAIRS = 2
LINE_RASTERS = 3
GRID_RASTER_SIDE = 4
GRATING_PERIOD_UM = 2.0
# Reduced node counts where the default ones would make a single job take
# several seconds; node doubling still checks them against target_rel_tol.
GRATING_ANGULAR_NODES = 64
GRID_RADIAL_NODES = 12
EXTENDED_LINE_SAMPLES = 16
# The grid step equals the raster pitch, so every grid offset sits on the
# pixel displacement lattice.
GRID_SIDE = 16
GRID_HALF_RANGE_UM = 0.5 * (GRID_SIDE - 1) * PITCH_UM

TWO_POINT_LINE_SAMPLES = 129
TWO_POINT_GRID_SIDE = 33


@dataclass(frozen=True)
class JobSpec:
    """One job of a workload.

    ``command`` is a CLI subcommand, or ``api_scan`` / ``api_min_res`` for
    the public API.  ``args`` are extra CLI arguments (for ``api_min_res``
    the instrument name).  ``scan_points`` is the number of scan offsets
    for scan jobs and 0 otherwise.  ``checks`` names the output invariants
    that apply (see ``checks.py``).
    """

    name: str
    command: str
    config: str
    args: tuple[str, ...] = ()
    scan_points: int = 0
    checks: tuple[str, ...] = ()
    svg: bool = False


def _jitter(rng: random.Random, value: float, spread: float = 0.03) -> float:
    return value * rng.uniform(1.0 - spread, 1.0 + spread)


def _microscope(w0_mm: float) -> str:
    return f"microscope.w0 = {w0_mm!r} mm\noutput.precision = 17\n"


def _half_turn_pairs(side: int) -> list[tuple[int, int]]:
    """One pixel of each pair {(i, j), (side-1-i, side-1-j)}."""
    return [(i, j) for i in range(side) for j in range(side)
            if (i, j) < (side - 1 - i, side - 1 - j)]


def _raster_rows(side: int, pixels: list[tuple[int, int]]) -> str:
    """``sample.rows`` text lighting each pixel and its half-turn image.

    Point-symmetric samples make every scan line through the origin
    mirror-symmetric, which the output checks test.
    """
    grid = [[0] * side for _ in range(side)]
    for i, j in pixels:
        grid[i][j] = grid[side - 1 - i][side - 1 - j] = 1
    return ";".join("".join(str(v) for v in row) for row in grid)


def line_raster(rng: random.Random) -> str:
    """Four corners plus seeded pixel pairs.

    Lit corners fix the sample's extent, so the range of kernel arguments,
    which sets how many terms the Bessel evaluation takes, does not
    depend on the seed.
    """
    side = LINE_RASTER_SIDE
    corners = [(0, 0), (0, side - 1)]
    others = [p for p in _half_turn_pairs(side) if p not in corners]
    return _raster_rows(side, corners + rng.sample(others, LINE_RASTER_SEEDED_PAIRS))


def grid_raster(rng: random.Random) -> str:
    """One seeded pair of non-corner border pixels.

    All such pixels sit at one distance from the centre and map onto each
    other under the square grid's symmetries, so every choice costs the
    same.
    """
    side = GRID_RASTER_SIDE
    border = [(i, j) for i, j in _half_turn_pairs(side)
              if (i in (0, side - 1)) != (j in (0, side - 1))]
    return _raster_rows(side, [rng.choice(border)])


def _line_scan(instrument: str, direction: str, half_range_um: float,
               samples: int) -> str:
    return (f"scan.instrument = {instrument}\nscan.geometry = line\n"
            f"scan.direction = {direction}\n"
            f"scan.half_range = {half_range_um!r} um\nscan.samples = {samples}\n")


def _grid_scan(instrument: str, half_range_um: float, side: int) -> str:
    return (f"scan.instrument = {instrument}\nscan.geometry = grid\n"
            f"scan.half_range_x = {half_range_um!r} um\n"
            f"scan.half_range_y = {half_range_um!r} um\n"
            f"scan.nx = {side}\nscan.ny = {side}\n")


def closed_form(rng: random.Random) -> list[JobSpec]:
    """Point-like samples only: closed-form responses, FWHM searches,
    point-by-point twin scans, the gate per point and resolution bisection."""
    w0 = _jitter(rng, 8.0)
    jobs = [
        JobSpec("params", "params", _microscope(w0),
                checks=("finite", "width_order")),
        JobSpec("params_flat_pump", "params", _microscope(_jitter(rng, 12.0)),
                args=("--no-pump-gaussian",), checks=("finite", "twin_half")),
        JobSpec("compare", "compare", _microscope(w0),
                args=("--waists", ",".join(f"{_jitter(rng, w)!r}mm" for w in (1.0, 8.0, 12.0)),
                      "--points", "401"),
                checks=("finite", "peak_rows"), svg=True),
        JobSpec("sweep", "sweep", _microscope(w0),
                args=("--w0-min", f"{_jitter(rng, 1.0)!r}mm",
                      "--w0-max", f"{20.0 * rng.uniform(0.95, 1.0)!r}mm",
                      "--steps", "20"),
                checks=("finite",), svg=True),
    ]
    # Twin scans cost more per point when the points sit farther apart
    # (longer Bessel expansions), so separations vary only a little.
    separation = rng.uniform(0.24, 0.26)
    two_point = f"sample.kind = two_point\nsample.separation = {separation!r} um\n"
    for instrument in ("twin", "confocal", "widefield"):
        jobs.append(JobSpec(
            f"scan_line_{instrument}_two_point", "scan",
            _microscope(w0) + two_point
            + _line_scan(instrument, "x", 1.0, TWO_POINT_LINE_SAMPLES),
            scan_points=TWO_POINT_LINE_SAMPLES, checks=("finite", "peak", "mirror")))
    gated = DISPERSION + f"dispersion.t12 = {rng.uniform(150.0, 550.0)!r} fs\n"
    jobs.append(JobSpec(
        "scan_grid_twin_two_point_gated", "scan",
        _microscope(w0) + two_point + gated
        + _grid_scan("twin", 0.6, TWO_POINT_GRID_SIDE),
        scan_points=TWO_POINT_GRID_SIDE ** 2, checks=("finite", "peak", "mirror"), svg=True))
    # The bisection path of the resolution search depends on the waist, so
    # its waists are fixed.  Three twin searches per pass, the slowest jobs,
    # put at least 11 of them in a run, so job_tail_s falls among them.
    ordered = ("finite", "resolution_order")
    for name, instrument, waist, checks in (("min_res_twin", "twin", 8.0, ordered),
                                            ("min_res_twin_10mm", "twin", 10.0, ("finite",)),
                                            ("min_res_twin_12mm", "twin", 12.0, ("finite",)),
                                            ("min_res_confocal", "confocal", 8.0, ordered),
                                            ("min_res_widefield", "widefield", 8.0, ordered)):
        jobs.append(JobSpec(name, "api_min_res", _microscope(waist),
                            args=(instrument,), checks=checks))
    return jobs


def _extended_samples(rng: random.Random) -> list[tuple[str, str, str]]:
    """(label, sample config, quadrature config) of the line-scanned samples."""
    samples = [
        (f"raster{k}",
         f"sample.kind = raster\nsample.pitch = {PITCH_UM!r} um\n"
         f"sample.rows = {line_raster(rng)}\n",
         "")
        for k in range(1, LINE_RASTERS + 1)
    ]
    samples.append(("slit", f"sample.kind = slit\nsample.width = {rng.uniform(0.4, 0.6)!r} um\n", ""))
    samples.append(("grating",
                    f"sample.kind = grating\nsample.period = {GRATING_PERIOD_UM!r} um\n"
                    f"sample.duty = {rng.uniform(0.3, 0.7)!r}\n",
                    f"quadrature.angular_nodes = {GRATING_ANGULAR_NODES}\n"))
    return samples


def _extended_line_jobs(rng: random.Random, instruments: tuple[str, ...],
                        extra: str) -> list[JobSpec]:
    samples = _extended_samples(rng)
    jobs = []
    for instrument in instruments:
        for label, sample, quad in samples:
            # Gratings vary along x only; rasters and slits take either axis.
            direction = "x" if label == "grating" else rng.choice("xy")
            jobs.append(JobSpec(
                f"scan_line_{instrument}_{label}", "scan",
                _microscope(EXTENDED_W0_MM) + sample + quad + extra
                + _line_scan(instrument, direction, 1.0, EXTENDED_LINE_SAMPLES),
                scan_points=EXTENDED_LINE_SAMPLES, checks=("finite", "peak", "mirror")))
    return jobs


def twin_extended(rng: random.Random) -> list[JobSpec]:
    """Gated twin-photon scans of extended samples: coherent panel
    quadrature of the coincidence kernel, chunked over threads."""
    gated = DISPERSION + f"dispersion.t12 = {rng.uniform(150.0, 550.0)!r} fs\n"
    jobs = _extended_line_jobs(rng, ("twin",), gated)
    raster = grid_raster(rng)
    jobs.append(JobSpec(
        "api_scan_grid_twin_raster", "api_scan",
        _microscope(EXTENDED_W0_MM)
        + f"sample.kind = raster\nsample.pitch = {PITCH_UM!r} um\nsample.rows = {raster}\n"
        + f"quadrature.radial_nodes = {GRID_RADIAL_NODES}\n"
        + _grid_scan("twin", GRID_HALF_RANGE_UM, GRID_SIDE),
        scan_points=GRID_SIDE ** 2, checks=("finite", "peak", "mirror")))
    return jobs


def classical_extended(rng: random.Random) -> list[JobSpec]:
    """Confocal and widefield scans of the same kind of extended samples:
    incoherent quadrature of the real PSF kernel, one thread."""
    return _extended_line_jobs(rng, ("confocal", "widefield"), "")


_BUILDERS = {
    "closed_form": closed_form,
    "twin_extended": twin_extended,
    "classical_extended": classical_extended,
}


def generate(workload: str, seed: int) -> list[JobSpec]:
    """The workload's job list for ``seed``; equal seeds give equal lists."""
    return _BUILDERS[workload](random.Random(f"{workload}/{seed}"))


def threads_for(workload: str, nproc: int) -> int:
    """TWINFOCAL_THREADS for the workload; never above nproc, because the
    package does not clamp it."""
    return max(1, min(nproc, 4)) if workload == "twin_extended" else 1


def work_signature(jobs: list[JobSpec]) -> list[tuple]:
    """The seed-independent shape of a job list: names, commands, scan
    sizes, node counts and lit-pixel counts."""
    fixed_keys = ("sample.kind", "sample.pitch", "sample.period",
                  "scan.instrument", "scan.geometry", "scan.samples",
                  "scan.nx", "scan.ny", "scan.half_range",
                  "quadrature.radial_nodes", "quadrature.angular_nodes")
    sig = []
    for job in jobs:
        entries = dict(line.split(" = ", 1) for line in job.config.splitlines())
        fixed = [(key, entries[key]) for key in fixed_keys if key in entries]
        if job.command == "api_min_res" or entries.get("sample.kind") in (
                "slit", "grating", "raster"):
            fixed.append(("microscope.w0", entries["microscope.w0"]))
        if "sample.rows" in entries:
            rows = entries["sample.rows"].split(";")
            fixed.append(("sample.rows", len(rows), len(rows[0]),
                          entries["sample.rows"].count("1")))
        sig.append((job.name, job.command, job.scan_points, tuple(fixed),
                    len(job.args)))
    return sig
