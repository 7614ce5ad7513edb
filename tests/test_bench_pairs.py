"""scripts/bench_pairs.py: the summary of alternating parent/change runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def runs_of(values: list[float], unit: str = "ms") -> list[dict]:
    return [{"frame_ms_p50": {"value": v, "unit": unit},
             "frames_per_s": {"value": 1000.0 / v, "unit": "1/s"}} for v in values]


def test_quartiles_inclusive():
    assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "values": [5.0, 1.0, 3.0, 2.0, 4.0]}
    q = bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0])
    assert (q["q1"], q["median"], q["q3"]) == (1.75, 2.5, 3.25)


def test_wins_counted_in_the_better_direction():
    # pairs 1-3: the change is faster; pair 4: a tie, won by neither side;
    # pair 5: the parent is faster
    parent = [2.0, 2.0, 2.0, 1.0, 1.0]
    change = [1.0, 1.5, 1.8, 1.0, 1.2]
    out = bench_pairs.summary({"parent": runs_of(parent), "change": runs_of(change)},
                              {"frame_ms_p50": "lower", "frames_per_s": "higher"})
    p50, fps = out["frame_ms_p50"], out["frames_per_s"]
    assert (p50["wins"], p50["pairs"]) == (3, 5)
    assert (fps["wins"], fps["pairs"]) == (3, 5)
    assert (p50["unit"], p50["better"], fps["better"]) == ("ms", "lower", "higher")
    assert p50["parent"] == bench_pairs.quartiles(parent)
    assert p50["change"] == bench_pairs.quartiles(change)
    assert p50["change_over_parent"] == pytest.approx(1.2 / 2.0)
    assert fps["change_over_parent"] == pytest.approx((1000 / 1.2) / 500.0)


def test_change_over_a_zero_parent_median_is_none():
    zero = [{"failed_ratio": {"value": 0.0, "unit": "ratio"}}] * 3
    out = bench_pairs.summary({"parent": zero, "change": zero}, {"failed_ratio": "lower"})
    assert out["failed_ratio"]["change_over_parent"] is None
    assert out["failed_ratio"]["wins"] == 0
