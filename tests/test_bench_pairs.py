"""`tools/bench_pairs.py`: the gain and no-regression verdicts, on synthetic
samples (no benchmark runs)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [28.0, 27.9, 28.1, 28.2, 27.8, 28.0, 28.3, 27.7, 28.1, 27.9]


def test_gain_held_with_nine_wins_and_a_gap_above_the_spread():
    change = [p - 1.5 for p in PARENT]
    change[4] = 29.0  # one pair lost
    held, detail = bench_pairs.gain_verdict(PARENT, change, "lower")
    assert held and detail.startswith("wins 9/10")


def test_gain_not_met_with_eight_wins():
    change = [p - 1.5 for p in PARENT]
    change[4] = change[7] = 29.0
    assert not bench_pairs.gain_verdict(PARENT, change, "lower")[0]


def test_ties_count_for_neither_side():
    change = [p - 1.5 for p in PARENT]
    change[0] = PARENT[0]
    assert bench_pairs.wins(PARENT, change, "lower") == 9
    assert bench_pairs.wins(PARENT, PARENT, "lower") == 0


def test_gain_not_met_when_the_gap_is_within_the_parent_spread():
    # every pair won, by less than the parent's interquartile range
    change = [p - 0.1 for p in PARENT]
    held, _ = bench_pairs.gain_verdict(PARENT, change, "lower")
    assert not held


def test_higher_is_better_flips_the_direction():
    rows = [1000.0 / p for p in PARENT]
    assert bench_pairs.gain_verdict(rows, [r * 1.2 for r in rows], "higher")[0]
    assert not bench_pairs.gain_verdict(rows, [r * 0.8 for r in rows], "higher")[0]


@pytest.mark.parametrize("factor, better, verdict", [
    (1.04, "lower", "ok"), (1.30, "lower", "REGRESSION"),
    (0.96, "higher", "ok"), (0.70, "higher", "REGRESSION"),
])
def test_regression_against_the_bound(factor, better, verdict):
    assert bench_pairs.regression_verdict(PARENT, [p * factor for p in PARENT],
                                          better, 0.25) == verdict


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [100.0, 80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0]
    assert bench_pairs.regression_verdict(parent, parent, "lower", 0.05) == "unresolved"
    # unless every change run reads better than every parent run
    assert bench_pairs.regression_verdict(parent, [p - 50.0 for p in parent],
                                          "lower", 0.05) == "ok"
