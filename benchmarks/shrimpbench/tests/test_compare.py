"""Verdicts of ``compare`` on synthetic results."""

import pytest

from benchmarks.shrimpbench import runner
from benchmarks.shrimpbench.spec import end_to_end_metrics
from benchmarks.shrimpbench.stats import summary, verdict

BOUNDS = {m["name"]: m["bound"] for m in end_to_end_metrics()}
STEADY = [10.0, 10.01, 9.99, 10.02, 9.98]


def _result(wall, sim_us=100.0, failed_frac=0.0, events=1000):
    end_to_end = {}
    for name in runner.HOST_METRICS:
        values = wall if name == "wall_s" else STEADY
        end_to_end[name] = dict(summary(values), values=values)
    end_to_end.update({
        "sim_us": {"value": sim_us},
        "sim_lat_p50_us": {"value": None},
        "sim_lat_tail_us": {"value": None},
        "failed_frac": {"value": failed_frac},
    })
    return {"seed": 1, "quick": False, "workloads": {"storm": {
        "end_to_end": end_to_end, "deterministic": {"events": events}}}}


def _rows(parent, change):
    return {row["metric"]: row for row in runner.compare(parent, change)}


def _scaled(factor):
    return [v * factor for v in STEADY]


@pytest.mark.parametrize("factor, expected", [
    (1.0, "unchanged"),
    (1.0 + 2 * BOUNDS["wall_s"], "worse"),
    (1.0 - 2 * BOUNDS["wall_s"], "better"),
])
def test_wall_verdicts(factor, expected):
    rows = _rows(_result(STEADY), _result(_scaled(factor)))
    assert rows["wall_s"]["verdict"] == expected
    assert rows["setup_s"]["verdict"] == "unchanged"
    assert not rows["wall_s"]["model_changed"]


def test_wide_parent_spread_is_unresolved():
    noisy = [5.0, 10.0, 15.0, 20.0, 25.0]
    rows = _rows(_result(noisy), _result([14.0, 15.0, 16.0, 15.0, 15.0]))
    assert rows["wall_s"]["verdict"] == "unresolved"
    rows = _rows(_result(noisy), _result([1.0, 2.0, 3.0, 4.0, 4.5]))
    assert rows["wall_s"]["verdict"] == "better"


def test_deterministic_drift_flags_model_changed():
    rows = _rows(_result(STEADY),
                 _result(STEADY, sim_us=100.0 * (1 + 2 * BOUNDS["sim_us"]),
                         events=999))
    assert rows["sim_us"]["verdict"] == "worse"
    assert all(row["model_changed"] for row in rows.values())
    assert "sim_lat_p50_us" not in rows  # n/a on both sides


def test_any_rise_in_failures_is_worse():
    rows = _rows(_result(STEADY), _result(STEADY, failed_frac=0.001))
    assert rows["failed_frac"]["verdict"] == "worse"


def test_compare_refuses_different_seeds():
    other = _result(STEADY)
    other["seed"] = 2
    with pytest.raises(ValueError):
        runner.compare(_result(STEADY), other)


def test_verdict_direction_for_higher_is_better():
    assert verdict([10.0] * 3, [20.0] * 3, "higher", 0.1) == "better"
    assert verdict([10.0] * 3, [5.0] * 3, "higher", 0.1) == "worse"
