"""twinfocal benchmark: seeded study workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload closed_form --seed 1 --seconds 32 --trace 0

Workloads are listed in ``BENCHMARK.json`` and built by ``workloads.py``.
The package is imported from ``src/`` of the checkout and driven from
outside, the way users drive it: ``twinfocal.cli.main`` in-process for
the CLI jobs and the public API for ``scan`` and
``min_resolvable_separation``.  Load is one closed loop, one job at a
time; the workload's job list is run in passes until ``--seconds`` of
calibrated time (see below) is spent.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced passes (``tracer.py``
wraps the package's public functions) and reports per-layer metrics and
the tracing overhead, after self-checks of the tracer's coverage.
``--workload all`` runs the three workloads, each in its own process.

Timings are calibrated: each job's wall time is scaled by how long a fixed
numpy computation takes just before and after it, which cancels most of
the CPU-speed drift of a shared virtual machine.  Raw wall times are
kept in the run record.

Every job's output is checked (``checks.py``).  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric with its unit and a
run record, which is also written under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORK_ROOT = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60.0
TAIL_BEYOND = 10
WALL_CAP = 1.15
LAYERS = ("specfun", "optics", "psf", "coincidence", "scansim", "cli")
CLI_COMMANDS = ("params", "compare", "sweep", "scan")
PAIRS = [f"{i}.{s}" for i in ("twin", "confocal", "widefield")
         for s in ("two_point", "slit", "grating", "raster")]


# ============================================================================
# package and job set-up
# ============================================================================

def load_package():
    """Import twinfocal from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import twinfocal
        import twinfocal.cli
    except ImportError as exc:
        sys.stderr.write(f"bench: cannot import twinfocal from {src}: {exc}\n")
        raise SystemExit(2)
    if Path(twinfocal.__file__).resolve().parent.parent != src.resolve():
        sys.stderr.write(f"bench: twinfocal imported from {twinfocal.__file__}, not {src}\n")
        raise SystemExit(2)
    return twinfocal


def make_runner(job, tf, workdir: Path):
    """Zero-argument callable that runs one job and returns its raw output."""
    if job.command in CLI_COMMANDS:
        config = workdir / f"{job.name}.cfg"
        config.write_text(job.config, encoding="utf-8")
        argv = [job.command, "--config", str(config), *job.args]
        if job.svg:
            argv += ["--svg", str(workdir / f"{job.name}.svg")]

        def run_cli():
            out, err = io.StringIO(), io.StringIO()
            code = tf.cli.main(argv, stdout=out, stderr=err)
            return code, out.getvalue(), err.getvalue()
        return run_cli

    spec = tf.cli.parse_run_config(job.config)
    cfg = spec.microscope
    if job.command == "api_min_res":
        instrument = tf.Instrument(job.args[0])
        return lambda: tf.min_resolvable_separation(cfg, instrument)
    plan = spec.scan.build_plan()
    disp = spec.dispersion.build() if spec.dispersion is not None else None
    t12 = spec.dispersion.t12 if spec.dispersion is not None else None
    return lambda: tf.scan(plan, cfg, spec.sample, quad=spec.quadrature,
                           t12=t12, disp=disp).values


class Workload:
    """The seeded jobs of one workload, ready to run in this process."""

    def __init__(self, name: str, seed: int, tf):
        self.name, self.seed, self.tf = name, seed, tf
        self.jobs = workloads.generate(name, seed)
        self.workdir = WORK_ROOT / f"run-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.runners = [make_runner(job, tf, self.workdir) for job in self.jobs]
        self.reference = {}
        if REFERENCE.exists():
            data = json.loads(REFERENCE.read_text(encoding="utf-8"))
            self.reference = data.get(name, {}).get(str(seed), {})

    def warm_up(self) -> None:
        cfg = self.tf.MicroscopeConfig()
        self.tf.psf_twin(0.1e-6, cfg)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# ============================================================================
# passes and checks
# ============================================================================

# ============================================================================
# machine-speed calibration
# ============================================================================

# On a shared 2-vCPU virtual machine the CPU speed drifts by up to 2x over
# seconds (other tenants of the host), in process CPU time too.  Every timed
# interval is therefore scaled by how fast a fixed numpy computation, which
# does not use the package, runs just before and just after it:
#   calibrated = wall * CALIBRATION_NOMINAL_S / calibration seconds.
# Of the reference computations tried (a Python loop of small-array calls,
# one large-array call, both, and each on two threads at once), the
# single-threaded large-array call kept the 40 s medians of all three
# workloads steadiest.  The nominal is a little above its typical time on
# such a machine (3.1-3.6 ms), so a run usually ends on its calibrated
# budget before the wall-time cap.
CALIBRATION_NOMINAL_S = 0.004
CALIBRATION_ROUNDS = 3
_CAL_ARRAY = np.linspace(0.0, 1.0, 400_000)


def calibration_seconds() -> float:
    """Median wall time of the reference computation right now."""
    times = []
    for _ in range(CALIBRATION_ROUNDS):
        start = time.perf_counter()
        np.sin(_CAL_ARRAY).sum()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def calibrated(wall: float, before: float, after: float) -> float:
    """Wall seconds scaled by the calibration times around the interval."""
    return wall * CALIBRATION_NOMINAL_S / (0.5 * (before + after))


class Pass:
    """One run of a workload's job list: per-job wall and calibrated
    seconds, outputs and failures."""

    def __init__(self):
        self.wall: list[float] = []
        self.seconds: list[float] = []
        self.outputs: list[object] = []
        self.failures: list[str | None] = []

    @property
    def total(self) -> float:
        """Calibrated seconds of the whole job list."""
        return sum(self.seconds)


def run_pass(wl: Workload) -> Pass:
    result = Pass()
    gc.collect()
    before = calibration_seconds()
    for runner in wl.runners:
        start = time.perf_counter()
        try:
            output = runner()
        except Exception as exc:  # a job that raises counts as failed
            output = exc
        wall = time.perf_counter() - start
        after = calibration_seconds()
        result.wall.append(wall)
        result.seconds.append(calibrated(wall, before, after))
        result.outputs.append(output)
        before = after
    check_pass(wl, result)
    return result


def check_pass(wl: Workload, result: Pass) -> None:
    """Fill ``result.failures`` with None or the reason each job failed."""
    separations = {}
    for job, output in zip(wl.jobs, result.outputs):
        reason = None
        if isinstance(output, Exception):
            reason = f"raised {type(output).__name__}: {output}"
        else:
            try:
                series = checks.digest(job, output)
                checks.check_job(job, series)
                if job.name in wl.reference:
                    checks.check_reference(job, series, wl.reference[job.name])
                if "resolution_order" in job.checks:
                    separations[job.args[0]] = float(output)
            except (checks.CheckFailed, KeyError, ValueError, IndexError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
        result.failures.append(reason)
    if len(separations) == 3:
        try:
            checks.check_resolution_order(separations)
        except checks.CheckFailed as exc:
            for k, job in enumerate(wl.jobs):
                if "resolution_order" in job.checks and result.failures[k] is None:
                    result.failures[k] = str(exc)


def timed_passes(wl: Workload, seconds: float, traced=None) -> tuple[list[Pass], list[Pass]]:
    """Run passes until the next one would take the calibrated time spent
    past ``seconds``, or the wall time past ``WALL_CAP * seconds``.

    Calibrated time is steady while the machine's speed drifts, so runs
    make the same number of passes and order statistics such as
    ``job_tail_s`` keep their rank.  Untraced passes only, or, with a
    ``traced`` callable, alternating untraced and traced passes.  Returns
    (untraced, traced) pass lists.
    """
    plain: list[Pass] = []
    with_trace: list[Pass] = []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(wl))
        if traced is not None:
            with_trace.append(traced())
        kinds = [plain, with_trace] if traced is not None else [plain]
        spent = sum(p.total for kind in kinds for p in kind)
        cycle = sum(statistics.median(p.total for p in kind) for kind in kinds)
        wall_cycle = sum(statistics.median(sum(p.wall) for p in kind) for kind in kinds)
        if (spent + cycle > seconds
                or time.perf_counter() - start + wall_cycle > WALL_CAP * seconds):
            return plain, with_trace


# ============================================================================
# end-to-end metrics
# ============================================================================

def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the highest percentile
    that leaves at least ``beyond`` samples above it.

    With ``beyond`` or fewer samples no percentile qualifies; the maximum
    is returned with percentile 100 and 0 samples beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0, 0
    index = n - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / n, beyond


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Calibrated time from starting a fresh interpreter to its "ready" line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    before = calibration_seconds()
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return calibrated(elapsed, before, calibration_seconds())


def end_to_end(wl: Workload, passes: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    """Metrics and the record fields behind them.

    Throughput divides the scan jobs' offsets by the sum of their median
    times over the passes, so one disturbed pass does not move it.
    """
    job_seconds = [s for p in passes for s in p.seconds]
    scans = [k for k, job in enumerate(wl.jobs) if job.scan_points]
    scan_points = sum(wl.jobs[k].scan_points for k in scans)
    scan_seconds = sum(statistics.median(p.seconds[k] for p in passes) for k in scans)
    tail_value, tail_pct, tail_beyond = tail(job_seconds)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "study_s": (statistics.median(p.total for p in passes), "s"),
        "scan_points_per_s": (scan_points / scan_seconds, "1/s"),
        "job_p50_s": (statistics.median(job_seconds), "s"),
        "job_tail_s": (tail_value, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    record = {
        "job_tail": {"percentile": tail_pct, "samples": len(job_seconds),
                     "samples_beyond": tail_beyond},
        "setup_samples_s": setup,
        "pass_seconds": [p.total for p in passes],
        "pass_wall_seconds": [sum(p.wall) for p in passes],
    }
    return metrics, record


# ============================================================================
# traced run
# ============================================================================

def per_layer(summaries: list[dict], plain: list[Pass], traced: list[Pass],
              threads: int, csv_bytes: int) -> dict:
    """Per-layer metrics: counts from the first traced pass (they repeat
    exactly), times as medians over traced passes, calibrated."""

    def entry(summary, name):
        return summary.get(name, {"calls": 0, "work": 0, "self_s": 0.0,
                                  "total_s": 0.0, "work_parts": [0, 0], "tags": {}})

    # Span times are wall seconds; scale each traced pass like its jobs.
    factors = [p.total / sum(p.wall) for p in traced]

    def med(fn, scale=True):
        return statistics.median(fn(s) * (f if scale else 1.0)
                                 for s, f in zip(summaries, factors))

    def group(summary, names, field):
        return sum(entry(summary, n)[field] for n in names)

    first = summaries[0]
    layer_names = {layer: [f"{layer}.{f}" for f in tracer.TRACED[layer]] for layer in LAYERS}
    airy = entry(first, "specfun.airy_amp")
    airy_points = airy["work"]
    integrals = entry(first, "coincidence.integrate_sample")["calls"]
    scans = entry(first, "scansim.scan")
    m = {
        "specfun.airy_amp.calls": (airy["calls"], "count"),
        "specfun.airy_amp.points_series": (airy.get("work_parts", [0, 0])[0], "count"),
        "specfun.airy_amp.points_hankel": (airy.get("work_parts", [0, 0])[1], "count"),
        "specfun.airy_amp.self_s": (med(lambda s: entry(s, "specfun.airy_amp")["self_s"]), "s"),
        "specfun.airy_amp.ns_per_point": (
            med(lambda s: entry(s, "specfun.airy_amp")["self_s"]) / airy_points * 1e9
            if airy_points else 0.0, "ns"),
        "optics.calls": (group(first, layer_names["optics"], "calls"), "count"),
        "optics.self_s": (med(lambda s: group(s, layer_names["optics"], "self_s")), "s"),
        "psf.response.calls": (group(first, tracer.RESPONSES, "calls"), "count"),
        "psf.response.points": (group(first, tracer.RESPONSES, "work"), "count"),
        "psf.response.self_s": (med(lambda s: group(s, tracer.RESPONSES, "self_s")), "s"),
        "psf.fwhm.calls": (entry(first, "psf.fwhm")["calls"], "count"),
        "psf.fwhm.evals": (entry(first, "psf.fwhm")["work"], "count"),
        "psf.fwhm.self_s": (med(lambda s: entry(s, "psf.fwhm")["self_s"]), "s"),
        "coincidence.integrate_sample.calls": (integrals, "count"),
        "coincidence.integrate_sample.self_s": (
            med(lambda s: entry(s, "coincidence.integrate_sample")["self_s"]), "s"),
        "coincidence.kernel_field.calls": (entry(first, "coincidence.kernel_field")["calls"], "count"),
        "coincidence.kernel_field.points": (entry(first, "coincidence.kernel_field")["work"], "count"),
        "coincidence.kernel_field.self_s": (
            med(lambda s: entry(s, "coincidence.kernel_field")["self_s"]), "s"),
        "coincidence.kernel_points_per_integral": (
            first["_kernel_points_in_integrals"] / integrals if integrals else 0.0, "count"),
        "coincidence.amplitude.calls": (entry(first, "coincidence.amplitude")["calls"], "count"),
        "coincidence.coincidence_rate.calls": (
            entry(first, "coincidence.coincidence_rate")["calls"], "count"),
        "coincidence.coincidence_rate.self_s": (
            med(lambda s: entry(s, "coincidence.coincidence_rate")["self_s"]), "s"),
        "coincidence.gate.calls": (entry(first, "coincidence.gate")["calls"], "count"),
        "coincidence.gate.self_s": (med(lambda s: entry(s, "coincidence.gate")["self_s"]), "s"),
        "coincidence.quadrature_errors": (
            first["_origin_errors"].get(("coincidence", "QuadratureError"), 0), "count"),
        "psf.range_errors": (first["_origin_errors"].get(("psf", "ScanRangeError"), 0), "count"),
        "scansim.scan.calls": (scans["calls"], "count"),
        "scansim.scan.points": (scans["work"], "count"),
        "scansim.scan.self_s": (med(lambda s: entry(s, "scansim.scan")["self_s"]), "s"),
    }
    for pair in PAIRS:
        def per_point(s, pair=pair):
            tag = entry(s, "scansim.scan")["tags"].get(pair)
            return tag["total_s"] / tag["work"] * 1e6 if tag else 0.0
        m[f"scansim.scan.us_per_point.{pair}"] = (med(per_point), "us")
    min_res = entry(first, "scansim.min_resolvable_separation")
    m.update({
        "scansim.min_resolvable_separation.calls": (min_res["calls"], "count"),
        "scansim.min_resolvable_separation.scans": (
            first["_child_calls"].get(("scansim.min_resolvable_separation", "scansim.scan"), 0),
            "count"),
        "scansim.min_resolvable_separation.self_s": (
            med(lambda s: entry(s, "scansim.min_resolvable_separation")["self_s"]), "s"),
        "scansim.threads": (threads, "count"),
        "scansim.worker_busy_frac": (
            med(lambda s: s["_scan_busy_s"] / (entry(s, "scansim.scan")["total_s"] * threads)
                if entry(s, "scansim.scan")["total_s"] else 0.0, scale=False), "ratio"),
        "cli.main.calls": (entry(first, "cli.main")["calls"], "count"),
        "cli.parse_run_config.self_s": (
            med(lambda s: entry(s, "cli.parse_run_config")["self_s"]), "s"),
        "cli.self_s": (med(lambda s: entry(s, "cli.main")["self_s"]), "s"),
        "cli.csv_bytes": (csv_bytes, "bytes"),
        "trace.overhead_frac": (
            (statistics.median(p.total for p in traced) - statistics.median(p.total for p in plain))
            / statistics.median(p.total for p in plain), "ratio"),
    })
    return m


# Span-summary fields that must repeat exactly from one traced pass to the next.
COUNT_FIELDS = ("calls", "work", "work_parts")


def count_checks(wl: Workload, tr: tracer.Tracer) -> dict[str, str | None]:
    """Coverage checks with exact counts: check name -> failure or None."""
    tf = wl.tf
    cfg = tf.MicroscopeConfig(w0=8e-3)
    with tr:
        tf.amplitude(0.0, cfg, tf.Slit(0.5e-6), tf.QuadratureSpec())
    kernel_points = tracer.summarize(tr.take())["_kernel_points_in_integrals"]

    spec = tf.cli.parse_run_config(workloads.DISPERSION)
    disp = spec.dispersion.build()
    window = tf.coincidence.delay_window(disp, cfg.omega_o, cfg.omega_e)
    plan = tf.ScanPlan(tf.Grid(0.6e-6, 0.6e-6, 33, 33), tf.Instrument.TWIN_PHOTON)
    with tr:
        tf.scan(plan, cfg, tf.TwoPoint(0.25e-6), t12=0.5 * window, disp=disp)
    gates = tracer.summarize(tr.take()).get("coincidence.gate", {"calls": 0})["calls"]
    return {
        "slit_kernel_points": None if kernel_points == 6 * 48 ** 2 else
        f"a Slit integral at the default QuadratureSpec evaluated {kernel_points} "
        "kernel points, not 6 * 48**2 = 13824",
        "gated_grid_gate_calls": None if gates == 33 * 33 else
        f"a gated 33x33 twin grid called gate {gates} times, not 1089",
    }


def _bindings(modules) -> dict:
    return {(m.__name__, attr): value for m in modules
            for attr, value in vars(m).items() if callable(value)}


def same_output(a, b) -> bool:
    """Exact equality of two raw job outputs (CLI text, arrays, floats)."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return False
    if isinstance(a, (tuple, float)):
        return a == b
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def run_traced(wl: Workload, seconds: float, threads: int):
    """Count checks, then alternating untraced and traced passes.

    Returns (metrics, record fields, all passes, self-checks), where the
    self-checks map a check name to its failure message or None.
    """
    tf = wl.tf
    modules = [tf] + [getattr(tf, layer) for layer in LAYERS]
    tr = tracer.Tracer(modules)
    before = _bindings(modules)
    self_checks = count_checks(wl, tr)
    summaries: list[dict] = []
    last_spans: list[tuple] = []

    def traced_pass() -> Pass:
        nonlocal last_spans
        with tr:
            result = run_pass(wl)
        last_spans = tr.take()
        summaries.append(tracer.summarize(last_spans))
        return result

    plain, traced = timed_passes(wl, seconds, traced_pass)
    self_checks["bindings_restored"] = (
        None if _bindings(modules) == before else "the tracer left patched bindings behind")
    differing = sorted({job.name for p, q in zip(plain, traced)
                        for job, a, b in zip(wl.jobs, p.outputs, q.outputs)
                        if not same_output(a, b)})
    self_checks["traced_output_identical"] = (
        f"traced output differs from untraced output: {differing}" if differing else None)
    counts = [{name: tuple(v.get(k) for k in COUNT_FIELDS) for name, v in s.items()
               if isinstance(v, dict) and "calls" in v} for s in summaries]
    self_checks["counts_repeat"] = (
        None if all(c == counts[0] for c in counts)
        else "per-layer counts differ between traced passes")
    csv_bytes = sum(len(out[1].encode()) for job, out in zip(wl.jobs, plain[0].outputs)
                    if job.command in ("compare", "sweep", "scan") and isinstance(out, tuple))
    metrics = per_layer(summaries, plain, traced, threads, csv_bytes)
    record = {"passes_untraced": len(plain), "passes_traced": len(traced),
              "self_checks": self_checks,
              "trace_file": str(write_trace(wl, summaries[-1], last_spans).relative_to(ROOT))}
    return metrics, record, plain + traced, self_checks


# ============================================================================
# output
# ============================================================================

def results_dir() -> Path:
    path = WORK_ROOT / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_trace(wl: Workload, summary: dict, spans: list[tuple]) -> Path:
    """Per-name summary and the spans of the last traced pass, gzipped."""
    names = {k: v for k, v in summary.items() if not k.startswith("_")}
    path = results_dir() / f"trace-{wl.name}-seed{wl.seed}.json.gz"
    fields = ["id", "name", "parent", "start", "end", "thread", "work", "tag", "error"]
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"per_name": names, "span_fields": fields, "spans": spans}, fh)
    return path


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_all(args) -> int:
    """Run every workload in its own process and print a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{name}: {line}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)

    tf = load_package()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        wl = Workload(args.workload, args.seed, tf)
        wl.warm_up()
        wl.close()
        print("ready", flush=True)
        return 0

    cpus = nproc()
    threads = workloads.threads_for(args.workload, cpus)
    os.environ["TWINFOCAL_THREADS"] = str(threads)
    setup = [] if args.trace else [setup_probe_seconds(args.workload, args.seed)
                                   for _ in range(SETUP_PROBES)]
    wl = Workload(args.workload, args.seed, tf)
    try:
        wl.warm_up()
        self_checks: dict[str, str | None] = {}
        if args.trace:
            metrics, extra, passes, self_checks = run_traced(wl, args.seconds, threads)
        else:
            passes, _ = timed_passes(wl, args.seconds)
            metrics, extra = end_to_end(wl, passes, setup)
    finally:
        wl.close()

    job_failures = sorted({f"{job.name}: {reason}" for p in passes
                           for job, reason in zip(wl.jobs, p.failures) if reason})
    check_failures = [f"self-check {name}: {why}" for name, why in self_checks.items() if why]
    attempted = sum(len(p.failures) for p in passes) + len(self_checks)
    failed = sum(1 for p in passes for reason in p.failures if reason) + len(check_failures)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": cpus, "twinfocal_threads": threads,
        "python": platform.python_version(), "numpy": sys.modules["numpy"].__version__,
        "commit": git_commit(), "jobs": len(wl.jobs), "passes": len(passes),
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "failures": job_failures + check_failures,
        "job_median_s": {job.name: statistics.median(p.seconds[k] for p in passes)
                         for k, job in enumerate(wl.jobs)},
        "job_median_wall_s": {job.name: statistics.median(p.wall[k] for p in passes)
                              for k, job in enumerate(wl.jobs)},
        **extra,
    }
    path = results_dir() / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"record": record, "metrics": metrics}, indent=1) + "\n",
                    encoding="utf-8")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"failed_frac = {failed / attempted!r} ratio")
    for reason in record["failures"]:
        print(f"failure: {reason}")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
