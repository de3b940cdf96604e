"""Pair the benchmark runs of a git revision with those of the working tree.

Run from the repository root::

    python scripts/pair_bench.py REV --workload W [--pairs 10] [--seconds 32] [--seed 11]

``REV`` is extracted with ``git archive`` into a temporary directory, which
is removed afterwards, so no worktree is left behind.  Each pair runs
``bench/run.py --trace 0`` once in that tree and once in the working tree,
alternating which of the two runs first.  For every end-to-end metric of
``BENCHMARK.json`` the script prints the medians of both sides, how many
pairs the change won (ties count for neither), the interquartile range of
the parent's runs and a verdict (``verdict``), then each side's failed
and attempted operations.  It only reads ``bench/`` and
``BENCHMARK.json``; the runs write their records under ``.bench_work/`` of
their own tree.
"""

from __future__ import annotations

import argparse
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


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``: its final JSON summary."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="pair_bench-") as scratch:
        parent_tree = Path(scratch)
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive, check=True)
        trees = [("parent", parent_tree), ("change", ROOT)]
        for k in range(args.pairs):
            for side, tree in trees if k % 2 == 0 else trees[::-1]:
                runs[side].append(run_once(tree, args.workload, args.seed, args.seconds))
            print(f"pair {k + 1}/{args.pairs} done", file=sys.stderr, flush=True)

    print(f"{args.rev} against the working tree: {args.workload}, seed {args.seed}, "
          f"{args.pairs} pairs of {args.seconds:g} s runs")
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
