"""Regenerate ``reference.json``: output digests for the reference seeds.

Run from the root of a checkout::

    python3 bench/make_reference.py

Each workload's job list runs once per seed in ``SEEDS``; every job must
pass its invariants.  The digests keep at most ``checks.REFERENCE_POINTS``
values per output series, compared later within the tolerances in
``checks.py``.  Regenerate only when a change to the program is meant to
change its outputs beyond those tolerances, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

import run  # sets up sys.path for the benchmark modules

import checks
import workloads

SEEDS = (1, 2, 3)


def main() -> int:
    tf = run.load_package()
    out: dict = {}
    for name in workloads.WORKLOAD_NAMES:
        os.environ["TWINFOCAL_THREADS"] = str(workloads.threads_for(name, run.nproc()))
        for seed in SEEDS:
            wl = run.Workload(name, seed, tf)
            wl.reference = {}
            try:
                result = run.run_pass(wl)
            finally:
                wl.close()
            bad = [f"{job.name}: {why}" for job, why in zip(wl.jobs, result.failures) if why]
            if bad:
                sys.stderr.write("\n".join(bad) + "\n")
                return 1
            out.setdefault(name, {})[str(seed)] = {
                job.name: checks.reference_digest(checks.digest(job, output))
                for job, output in zip(wl.jobs, result.outputs)}
            print(f"{name} seed {seed}: {len(wl.jobs)} jobs", flush=True)
    run.REFERENCE.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
