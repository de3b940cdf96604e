"""Time scans in fresh interpreters, where no earlier large allocation has
raised the C allocator's thresholds.

Run from the repository root::

    python scripts/cold_scan.py [--seed N] [--repeats N] [--threads 1,2]

Each row runs in a new Python process: it builds one scan of the
benchmark's inputs (``bench/workloads.py`` at ``--seed``), runs it once to
warm up and then ``--repeats`` more times.  The scans are the first raster
line of the ``twin_extended`` workload (gated, 16 offsets) and the first
confocal raster line of ``classical_extended``, each at every thread count
of ``--threads`` (``TWINFOCAL_THREADS``).  A row gives the median wall time
of the timed scans, the median minor page faults per scan (``ru_minflt``
of the whole process, all threads) and the peak resident set of the
process (``ru_maxrss``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Row name -> (workload, job name) in bench/workloads.py.
SCANS = {
    "twin_raster_line": ("twin_extended", "scan_line_twin_raster1"),
    "confocal_raster_line": ("classical_extended", "scan_line_confocal_raster1"),
}
FIELDS = ("scan", "threads", "median_ms", "faults_per_scan", "peak_rss_mib")


def measure(name: str, seed: int, repeats: int) -> dict:
    """Warm-up scan, then ``repeats`` timed scans, in this process."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from twinfocal import cli, scan

    workload, job_name = SCANS[name]
    job = next(j for j in workloads.generate(workload, seed) if j.name == job_name)
    spec = cli.parse_run_config(job.config)
    plan = spec.scan.build_plan()
    disp = spec.dispersion.build() if spec.dispersion is not None else None
    t12 = spec.dispersion.t12 if spec.dispersion is not None else None

    def run() -> None:
        scan(plan, spec.microscope, spec.sample, quad=spec.quadrature, t12=t12, disp=disp)

    run()
    times, faults = [], []
    for _ in range(repeats):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return {"median_ms": 1e3 * statistics.median(times),
            "faults_per_scan": statistics.median(faults),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--threads", default="1,2")
    parser.add_argument("--child", choices=sorted(SCANS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.child is not None:
        print(json.dumps(measure(args.child, args.seed, args.repeats)))
        return 0
    print(" ".join(FIELDS))
    for name in SCANS:
        for threads in args.threads.split(","):
            proc = subprocess.run(
                [sys.executable, __file__, "--child", name, "--seed", str(args.seed),
                 "--repeats", str(args.repeats)],
                env={**os.environ, "TWINFOCAL_THREADS": threads},
                capture_output=True, text=True, check=True)
            row = json.loads(proc.stdout)
            print(f"{name} {threads} {row['median_ms']:.1f} {row['faults_per_scan']:.0f} "
                  f"{row['peak_rss_mib']:.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
