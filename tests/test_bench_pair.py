"""The gain and bound verdicts of ``tools/bench_pair.py`` on fixed runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

# Base quartiles (inclusive method): q1 1.0225, median 1.045, q3 1.0675.
BASE = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def test_a_clear_gain_is_met():
    head = [b - 0.2 for b in BASE]
    v = bench_pair.verdicts(BASE, head, "lower", 0.25)
    assert v == {"head_wins": 10, "gain_met": True, "bound_met": True}


def test_ties_count_for_neither_side():
    # Nine pairs won by far, one tied: 9 of 10 is enough.
    head = [b - 0.2 for b in BASE[:9]] + [BASE[9]]
    assert bench_pair.verdicts(BASE, head, "lower", 0.25)["head_wins"] == 9
    assert bench_pair.verdicts(BASE, head, "lower", 0.25)["gain_met"]
    # Two ties leave 8 wins, short of 9.
    head = [b - 0.2 for b in BASE[:8]] + BASE[8:]
    v = bench_pair.verdicts(BASE, head, "lower", 0.25)
    assert v["head_wins"] == 8 and not v["gain_met"]
    # Every pair tied: no wins, no gain, within the bound.
    assert bench_pair.verdicts(BASE, BASE, "lower", 0.0) == {"head_wins": 0, "gain_met": False, "bound_met": True}


def test_a_gain_inside_the_base_spread_is_not_met():
    # Head wins every pair by 0.01, less than the base's q3 - q1 of 0.045.
    v = bench_pair.verdicts(BASE, [b - 0.01 for b in BASE], "lower", 0.25)
    assert v["head_wins"] == 10 and not v["gain_met"]


@pytest.mark.parametrize(
    "shift, better, met",
    [
        (0.26, "lower", True),  # 0.26 worse against 0.25 * 1.045 = 0.26125
        (0.262, "lower", False),
        (-0.26, "higher", True),
        (-0.262, "higher", False),
        (-5.0, "lower", True),
        (5.0, "higher", True),
    ],
)
def test_bound(shift, better, met):
    v = bench_pair.verdicts(BASE, [b + shift for b in BASE], better, 0.25)
    assert v["bound_met"] is met


def test_higher_is_better_counts_wins_upward():
    v = bench_pair.verdicts(BASE, [b + 0.2 for b in BASE], "higher", 0.05)
    assert v == {"head_wins": 10, "gain_met": True, "bound_met": True}
