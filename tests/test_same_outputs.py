"""The comparison rule of scripts/same_outputs.py on synthetic output
digests; no benchmark job is run."""

import importlib.util
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_outputs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(rev1, rev2, tree1, tree2):
    """Digests of the four ``(side, threads)`` runs, in the script's order."""
    return {("rev", 1): rev1, ("rev", 2): rev2, ("worktree", 1): tree1, ("worktree", 2): tree2}


def test_identical_outputs_neither_move_nor_split():
    same = {"closed_form 7 params": "a", "twin_extended 11 scan": "b"}
    assert load_script().compare(runs(same, same, dict(same), dict(same))) == ([], [])


def test_a_moved_output_is_reported_per_thread_count():
    """An output that differs from the revision's at one thread count moves
    there only; one present on one side only moves too.  Neither splits."""
    rev = {"a": "1", "b": "2"}
    tree = {"a": "1", "b": "3", "c": "4"}
    moved, split = load_script().compare(runs(rev, {"a": "1", "b": "3"}, tree, dict(tree)))
    assert moved == [(1, "b"), (1, "c"), (2, "c")]
    assert split == []


def test_an_output_that_depends_on_the_thread_count_splits():
    """A working-tree output that differs between thread counts splits; a
    revision's output that did only moves."""
    script = load_script()
    rev = {"a": "1", "b": "2"}
    moved, split = script.compare(runs(rev, rev, {"a": "1", "b": "2"}, {"a": "1", "b": "5"}))
    assert moved == [(2, "b")] and split == ["b"]
    # the revision split at "a", the working tree does not
    moved, split = script.compare(runs(rev, {"a": "9", "b": "2"}, rev, dict(rev)))
    assert moved == [(2, "a")] and split == []


def test_output_bytes_tell_outputs_apart():
    """Each kind of job output hashes by its full content: an array's dtype,
    shape and bits, a float's bits, a command line's exit code and text."""
    output_bytes = load_script().output_bytes
    values = np.array([1.0, 0.5])
    assert output_bytes(values) == output_bytes(values.copy())
    assert output_bytes(values) != output_bytes(np.nextafter(values, 2.0))
    assert output_bytes(values) != output_bytes(values.reshape(1, 2))
    assert output_bytes(0.1) != output_bytes(np.nextafter(0.1, 1.0))
    assert output_bytes((0, "x,y\n", "")) != output_bytes((1, "x,y\n", ""))
    assert output_bytes(ValueError("no")) != output_bytes(ValueError("yes"))


def test_a_job_digest_covers_the_figure_it_wrote(tmp_path):
    """Two runs of a job with the same output but other SVG bytes differ;
    the figure is removed once hashed, so the next job's digest is its
    output's alone."""
    job_digest = load_script().job_digest
    output = (0, "x,y\n1,2\n", "")
    figure = tmp_path / "scan_grid.svg"
    digests = []
    for text in ("<svg>a</svg>\n", "<svg>a</svg>\n", "<svg>b</svg>\n", None):
        if text is not None:
            figure.write_text(text, encoding="utf-8")
        digests.append(job_digest(output, tmp_path))
        assert not figure.exists()
    assert digests[0] == digests[1]
    assert len(set(digests)) == 3
    (tmp_path / "params.cfg").write_text("a = 1\n", encoding="utf-8")  # not a figure
    assert job_digest(output, tmp_path) == digests[3]


def test_moved_values_are_measured_against_their_peak():
    """An array, a float and a command line's CSV rows carry their values;
    the largest move is taken against the larger side's peak.  Outputs
    without values, of other lengths or empty are not measured."""
    script = load_script()
    assert script.output_values(np.array([[1.0, -4.0]])) == [1.0, -4.0]
    assert script.output_values(0.25) == [0.25]
    table = "y_m,rate\n-1.00e-06,2.5e-01\n0.0,1\ngate: window_s=7e-13\n"
    assert script.output_values((0, table, "warning\n")) == [-1e-6, 0.25, 0.0, 1.0]
    assert script.output_values((0, "x,y\n", "")) == []
    assert script.output_values(ValueError("no")) is None
    assert script.largest_move([1.0, -4.0], [1.0, -3.0]) == 0.25
    assert script.largest_move([0.5], [2.0]) == 0.75
    assert script.largest_move([0.0, -0.0], [0.0, 0.0]) == 0.0
    assert script.largest_move([1.0], [1.0, 2.0]) is None
    assert script.largest_move(None, [1.0]) is None
    assert script.largest_move([], []) is None
