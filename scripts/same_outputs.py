"""Show that the benchmark job outputs of the working tree match those of a
git revision, and do not depend on the thread count.

Run from the repository root::

    python scripts/same_outputs.py REV

``REV`` is extracted with ``git archive`` into a temporary directory, which
is removed afterwards.  In that tree and in the working tree, one fresh
interpreter per ``TWINFOCAL_THREADS`` value (1 and 2) runs every job of
every benchmark workload once, at seeds 7 and 11, through the runners of
``bench/run.py``'s ``Workload``, and hashes each job's raw output: the exit
code, stdout and stderr of a command line, the bytes of an array, the bits
of a float, or the type and message of an exception, together with the
bytes of the SVG figure the job wrote, if any.  The script prints
each job whose output differs between ``REV`` and the working tree, with
the largest move of its values relative to their peak, the largest
magnitude on either side (``largest_move``; the values of an array, a
float, or the CSV rows a command line prints), then each job whose
working-tree output differs between the thread counts, then a summary
line.  Only the second kind breaks the package's promise of
bit-identical output for any thread count, so only it exits 1; a
revision git does not know, or a tree whose jobs cannot be run, exits 2.
It only reads ``bench/``; the runners write their config files and
figures under ``.bench_work/`` of their own tree and remove them.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 11)
THREADS = (1, 2)

# A fresh interpreter in which ``digests(tree)`` of this file runs.
CHILD = "import runpy, sys; runpy.run_path(sys.argv[1])['digests'](sys.argv[2])"


def output_bytes(output) -> bytes:
    """A job's raw output as bytes that change whenever the output does."""
    if isinstance(output, Exception):
        return f"{type(output).__name__}: {output}".encode()
    if isinstance(output, float):
        return output.hex().encode()
    if isinstance(output, tuple):  # a command line: exit code, stdout, stderr
        return repr(output).encode()
    return repr((output.dtype.str, output.shape)).encode() + output.tobytes()


def job_digest(output, workdir: Path) -> str:
    """SHA-256 of a job's raw output and of each SVG file it wrote into
    ``workdir``, by name and bytes.  The files are removed, so the next
    job's digest holds only its own figure."""
    digest = hashlib.sha256(output_bytes(output))
    for path in sorted(workdir.glob("*.svg")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
        path.unlink()
    return digest.hexdigest()


def output_values(output) -> list[float] | None:
    """The values of an array or float output, flattened, or the numbers of
    the rows of a command line's stdout that are all numbers (its CSV
    table, exact at the benchmark's 17 digits); None for an exception.
    JSON carries them exactly: a float's repr round-trips."""
    if isinstance(output, float):
        return [output]
    if isinstance(output, tuple):  # a command line: exit code, stdout, stderr
        values = []
        for line in output[1].splitlines():
            try:
                values += [float(field) for field in line.split(",")]
            except ValueError:
                pass  # a header or a report line
        return values
    if hasattr(output, "dtype") and output.dtype.kind == "f":
        return output.ravel().tolist()
    return None


def largest_move(old: list[float] | None, new: list[float] | None) -> float | None:
    """The largest difference between two outputs' values relative to their
    peak, the largest magnitude on either side (0 if every value is 0);
    None unless both are non-empty value lists of one length."""
    if not old or not new or len(old) != len(new):
        return None
    peak = max(map(abs, old + new))
    return max(abs(a - b) for a, b in zip(old, new)) / peak if peak else 0.0


def digests(tree: str) -> None:
    """Run every benchmark job of ``tree`` once per seed and print one JSON
    object: job (``workload seed name``) to the SHA-256 of its output and
    figure (``job_digest``) and its values (``output_values``)."""
    sys.path.insert(0, str(Path(tree) / "bench"))
    import run  # the benchmark of ``tree``, on the path only now

    tf = run.load_package()
    found = {}
    for name in run.workloads.WORKLOAD_NAMES:
        for seed in SEEDS:
            wl = run.Workload(name, seed, tf)
            try:
                for job, runner in zip(wl.jobs, wl.runners):
                    try:
                        output = runner()
                    except Exception as exc:  # a job that raises has that as its output
                        output = exc
                    found[f"{name} {seed} {job.name}"] = (
                        job_digest(output, wl.workdir), output_values(output))
            finally:
                wl.close()
    print(json.dumps(found))


def run_tree(tree: Path, threads: int) -> dict[str, list]:
    """The output digest and values of every job of ``tree`` at ``threads``
    threads."""
    env = dict(os.environ, TWINFOCAL_THREADS=str(threads))
    done = subprocess.run([sys.executable, "-c", CHILD, __file__, str(tree)], cwd=tree,
                          env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def compare(outputs: dict[tuple[str, int], dict[str, str]]) -> tuple[list, list]:
    """Jobs that moved and jobs that split, from the digests of each
    ``(side, threads)`` run, ``side`` being ``"rev"`` or ``"worktree"``.

    A job moved, as ``(threads, job)``, when its digest at ``threads``
    differs between the sides, or it runs on one side only; it split when
    its working-tree digests differ between the thread counts.
    """
    moved = sorted((threads, job) for threads in THREADS
                   for job in outputs["rev", threads].keys() | outputs["worktree", threads].keys()
                   if outputs["rev", threads].get(job) != outputs["worktree", threads].get(job))
    split = sorted(job for job in outputs["worktree", THREADS[0]]
                   if any(outputs["worktree", threads].get(job)
                          != outputs["worktree", THREADS[0]][job] for threads in THREADS[1:]))
    return moved, split


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/same_outputs.py REV", file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as scratch:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True)
        if archive.returncode != 0:
            print(f"error: unknown revision {rev!r}", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", scratch], input=archive.stdout, check=True)
        try:
            runs = {(side, threads): run_tree(tree, threads)
                    for side, tree in (("rev", Path(scratch)), ("worktree", ROOT))
                    for threads in THREADS}
        except subprocess.CalledProcessError as exc:
            sys.stderr.write(exc.stderr)
            print(f"error: the jobs of {exc.cmd[-1]} could not be run", file=sys.stderr)
            return 2
    outputs = {key: {job: digest for job, (digest, _) in found.items()}
               for key, found in runs.items()}
    moved, split = compare(outputs)
    for threads, job in moved:
        move = largest_move(*(runs[side, threads].get(job, (None, None))[1]
                              for side in ("rev", "worktree")))
        print(f"differs from {rev} at TWINFOCAL_THREADS={threads}: {job}"
              + ("" if move is None else f" (largest move {move:.2e} of its peak)"))
    for job in split:
        print(f"differs between thread counts in the working tree: {job}")
    total = len(outputs["worktree", THREADS[0]])
    print(f"{total} job outputs (seeds {' and '.join(map(str, SEEDS))}) at each of "
          f"TWINFOCAL_THREADS {' and '.join(map(str, THREADS))}: {len(moved)} of "
          f"{total * len(THREADS)} differ from {rev}, {len(split)} differ between thread counts")
    return 1 if split else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
