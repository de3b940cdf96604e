"""Pair the benchmark runs of a git revision with those of the working tree.

Run from the repository root::

    python scripts/pair_bench.py REV --workload W [--pairs 10] [--seconds 32] [--seed 11]
    python scripts/pair_bench.py REV --counts [--seconds 2] [--seed 7]

``REV`` is extracted with ``git archive`` into a temporary directory, which
is removed afterwards, so no worktree is left behind.  Each pair runs
``bench/run.py --trace 0`` once in that tree and once in the working tree,
alternating which of the two runs first.  For every end-to-end metric of
``BENCHMARK.json`` the script prints the medians of both sides, how many
pairs the change won (ties count for neither), the interquartile range of
the parent's runs and a verdict (``verdict``), then each side's failed
and attempted operations.

``--counts`` runs ``bench/run.py --workload all --trace 1`` once in each
tree instead and prints every traced metric of unit ``count`` that
differs between the two (``count_changes``), then whether each side's
run was correct.  It prints, and never fails on a difference.

The script only reads ``bench/`` and ``BENCHMARK.json``; the runs write
their records under ``.bench_work/`` of their own tree.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# A gain needs the change to win this share of the pairs.
WIN_SHARE = 0.9


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare paired runs of one metric, ``parent[k]`` with ``change[k]``.

    ``better`` is ``"lower"`` or ``"higher"``; ``bound`` is the fraction of
    the parent's median by which the change may read worse.  The verdict is

    * ``gain``: the change wins at least nine tenths of the pairs and its
      median is better than the parent's by more than the parent's
      interquartile range;
    * ``regression``: its median is worse by more than ``bound``;
    * ``unresolved``: neither, the parent's interquartile range is wider
      than ``bound`` of its median, and some run of the change does not
      read better than every run of the parent;
    * ``within bound`` otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0.0)
    mid_parent, mid_change = statistics.median(parent), statistics.median(change)
    low, high = np.percentile(parent, [25.0, 75.0])
    iqr = float(high - low)
    gap = sign * (mid_parent - mid_change)  # positive when the change is better
    if wins >= WIN_SHARE * len(parent) and gap > iqr:
        result = "gain"
    elif -gap > bound * abs(mid_parent):
        result = "regression"
    elif iqr > bound * abs(mid_parent) and not all(
            sign * (p - c) > 0.0 for p in parent for c in change):
        result = "unresolved"
    else:
        result = "within bound"
    return {"parent": mid_parent, "change": mid_change, "wins": wins,
            "pairs": len(parent), "parent_iqr": iqr, "verdict": result}


def count_changes(parent: dict, change: dict) -> list[tuple[str, object, object]]:
    """The metrics of unit ``count`` that differ between two benchmark
    summaries (the last line of ``bench/run.py``), as ``(name, parent
    value, change value)`` sorted by name; a side without the metric
    reads None."""
    def counts(summary: dict) -> dict:
        return {name: metric["value"] for name, metric in summary["metrics"].items()
                if metric["unit"] == "count"}

    before, after = counts(parent), counts(change)
    return [(name, before.get(name), after.get(name)) for name in sorted(before.keys() | after.keys())
            if before.get(name) != after.get(name)]


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run in ``tree``: its final JSON summary."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@contextlib.contextmanager
def extracted(rev: str):
    """The tree of ``rev``, from ``git archive`` into a temporary directory
    that is removed afterwards."""
    with tempfile.TemporaryDirectory(prefix="pair_bench-") as scratch:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", scratch], input=archive, check=True)
        yield Path(scratch)


def print_counts(rev: str, seed: int, seconds: float) -> None:
    """Print the traced count metrics of ``rev`` and the working tree that
    differ (``count_changes``), and whether each run was correct."""
    with extracted(rev) as parent_tree:
        parent = run_once(parent_tree, "all", seed, seconds, trace=1)
    change = run_once(ROOT, "all", seed, seconds, trace=1)
    moved = count_changes(parent, change)
    total = sum(metric["unit"] == "count" for metric in change["metrics"].values())
    print(f"{rev} against the working tree: traced count metrics, seed {seed}, "
          f"{seconds:g} s per workload; {len(moved)} of {total} differ")
    for name, before, after in moved:
        print(f"{name:<64} {before!r:>14} -> {after!r}")
    print(f"correct: parent {parent['correct']}, change {change['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="default 32, or 2 with --counts")
    parser.add_argument("--seed", type=int, help="default 11, or 7 with --counts")
    parser.add_argument("--counts", action="store_true",
                        help="print the traced count metrics that differ, once per tree")
    args = parser.parse_args(argv)
    seed = (7 if args.counts else 11) if args.seed is None else args.seed
    seconds = (2.0 if args.counts else 32.0) if args.seconds is None else args.seconds
    if args.counts:
        print_counts(args.rev, seed, seconds)
        return 0
    if args.workload is None:
        parser.error("--workload is required without --counts")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with extracted(args.rev) as parent_tree:
        trees = [("parent", parent_tree), ("change", ROOT)]
        for k in range(args.pairs):
            for side, tree in trees if k % 2 == 0 else trees[::-1]:
                runs[side].append(run_once(tree, args.workload, seed, seconds))
            print(f"pair {k + 1}/{args.pairs} done", file=sys.stderr, flush=True)

    print(f"{args.rev} against the working tree: {args.workload}, seed {seed}, "
          f"{args.pairs} pairs of {seconds:g} s runs")
    print(f"{'metric':<20} {'parent':>12} {'change':>12} {'wins':>7} {'parent_iqr':>12}  verdict")
    for metric in declared:
        name = metric["name"]
        row = verdict([r["metrics"][name]["value"] for r in runs["parent"]],
                      [r["metrics"][name]["value"] for r in runs["change"]],
                      metric["better"], metric["bound"])
        print(f"{name:<20} {row['parent']:>12.6g} {row['change']:>12.6g} "
              f"{row['wins']:>3}/{row['pairs']:<3} {row['parent_iqr']:>12.3g}  {row['verdict']}")
    for side, side_runs in runs.items():
        failed = sum(r["failed"] for r in side_runs)
        attempted = sum(r["attempted"] for r in side_runs)
        print(f"{side} failed operations: {failed} of {attempted}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
