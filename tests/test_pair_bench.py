"""The verdict rule of scripts/pair_bench.py on synthetic paired runs; no
benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "pair_bench.py"


def load_script():
    spec = importlib.util.spec_from_file_location("pair_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# parent runs with median 1.0 and interquartile range 0.035
PARENT = [1.0, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.0, 1.02, 0.98]


@pytest.mark.parametrize("change, better, bound, expected", [
    # nine wins and a median gap far beyond the parent's IQR
    ([0.5] * 9 + [1.1], "lower", 0.25, "gain"),
    # eight wins are too few, however large the gap
    ([0.5] * 8 + [1.1] * 2, "lower", 0.25, "within bound"),
    # ten wins, but a gap inside the parent's IQR
    ([p - 0.001 for p in PARENT], "lower", 0.25, "within bound"),
    # higher is better: a doubled rate is a gain, a 30% drop a regression
    ([2.0 * p for p in PARENT], "higher", 0.25, "gain"),
    ([0.7 * p for p in PARENT], "higher", 0.25, "regression"),
    # 30% slower regresses against a 0.25 bound and not against 0.5
    ([1.3 * p for p in PARENT], "lower", 0.25, "regression"),
    ([1.3 * p for p in PARENT], "lower", 0.5, "within bound"),
    # ties count for neither side
    (PARENT, "lower", 0.25, "within bound"),
])
def test_verdict_on_a_steady_parent(change, better, bound, expected):
    assert load_script().verdict(PARENT, change, better, bound)["verdict"] == expected


def test_verdict_reports_medians_wins_and_parent_iqr():
    row = load_script().verdict(PARENT, [0.5] * 9 + [1.1], "lower", 0.25)
    assert row["parent"] == 1.0 and row["change"] == 0.5
    assert row["wins"] == 9 and row["pairs"] == 10
    assert row["parent_iqr"] == pytest.approx(0.035)


def test_verdict_on_a_parent_spread_wider_than_the_bound():
    """With a parent IQR wider than the bound a change that is neither a
    gain nor a regression is unresolved, unless every one of its runs
    reads better than every run of the parent."""
    verdict = load_script().verdict
    parent = [1.0, 2.0] * 5  # median 1.5, IQR 1.0
    assert verdict(parent, [1.5] * 10, "lower", 0.25)["verdict"] == "unresolved"
    assert verdict(parent, [0.9] * 10, "lower", 0.25)["verdict"] == "within bound"
    assert verdict(parent, [0.4] * 10, "lower", 0.25)["verdict"] == "gain"
