"""scripts/cold_scan.py, and what it measures: a scan in a fresh interpreter
reuses its workspace instead of faulting fresh pages in on every kernel
call."""

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cold_scan.py"


def run_script(*args: str) -> str:
    proc = subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True,
                          text=True, timeout=300, check=True,
                          env={**os.environ, "TWINFOCAL_THREADS": "1"})
    return proc.stdout


def test_prints_one_row_per_scan_and_thread_count():
    lines = run_script("--repeats", "1", "--threads", "1").splitlines()
    assert lines[0].split() == ["scan", "threads", "median_ms", "faults_per_scan",
                                "peak_rss_mib"]
    rows = [line.split() for line in lines[1:]]
    assert [(row[0], row[1]) for row in rows] == [("twin_raster_line", "1"),
                                                  ("confocal_raster_line", "1")]
    for _, _, ms, faults, rss in rows:
        assert float(ms) > 0.0 and int(faults) >= 0 and float(rss) > 0.0


def test_second_scan_of_a_fresh_process_reuses_its_pages():
    """The benchmark's 6x6 twin raster line, 16 offsets at one thread, run
    twice in a new interpreter: the second scan takes fewer than 500 minor
    page faults (about 5 400 when every kernel call allocated its arrays)."""
    row = json.loads(run_script("--child", "twin_raster_line", "--repeats", "1"))
    assert row["faults_per_scan"] < 500
