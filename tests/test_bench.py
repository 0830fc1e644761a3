import json

import pytest

from nearheight.bench import (
    CSV_HEADER,
    RunReport,
    decision_set_bound,
    report_to_csv_row,
    run_scaling,
    state_set_bound,
    state_stats,
)


def test_bounds():
    assert state_set_bound(4, 0) == 10
    assert decision_set_bound(4, 0) == 20


def test_state_stats_small():
    report = state_stats(4, 0)
    assert all(c <= 10 for c in report.state_counts)
    assert report.state_counts[1] == 3  # |S_2|
    assert report.theorem1_ok and report.theorem2_ok
    assert report.relaxation_count == sum(report.decision_counts)
    assert len(report.state_counts) == 5
    assert len(report.decision_counts) == 4


def test_state_stats_single_key():
    report = state_stats(1, 0)
    assert report.state_counts[0] == 1


def test_state_stats_clamps_height():
    assert state_stats(3, 100).state_counts == state_stats(3, 1).state_counts


def test_state_stats_rejects_zero():
    with pytest.raises(ValueError):
        state_stats(0, 0)


def test_state_stats_rejects_negative_delta():
    with pytest.raises(ValueError, match="delta must be nonnegative"):
        state_stats(4, -1)


@pytest.mark.parametrize("n", [3, 17, 64, 100])
@pytest.mark.parametrize("delta", [0, 1, 2])
def test_theorem_flags_hold(n, delta):
    report = state_stats(n, delta)
    assert report.theorem1_ok
    assert report.theorem2_ok


def test_run_scaling_reports():
    reports = run_scaling([20, 40], delta=1, reps=2, seed=7)
    assert [(r.n, r.seed) for r in reports] == [
        (20, 7000021), (20, 7000022), (40, 7000021), (40, 7000022)
    ]
    for r in reports:
        assert r.relaxation_count <= r.n * decision_set_bound(r.n, r.delta)
        assert r.wall_clock_s is not None and r.wall_clock_s >= 0
        assert r.wpl
    # counts depend only on (n, delta), so repetitions match exactly
    assert reports[0].relaxation_count == reports[1].relaxation_count


def test_run_scaling_rejects_unsorted():
    with pytest.raises(ValueError):
        run_scaling([40, 20], delta=0)
    with pytest.raises(ValueError):
        run_scaling([], delta=0)


def test_run_scaling_rejects_zero_reps():
    with pytest.raises(ValueError, match="reps must be >= 1"):
        run_scaling([10], delta=0, reps=0)


def test_report_serialization_round_trip():
    report = state_stats(6, 1)
    obj = json.loads(json.dumps(report.to_obj()))
    assert obj["n"] == 6
    assert obj["theorem1_ok"] is True
    assert obj["relaxation_count"] == report.relaxation_count


def test_state_stats_record_is_pinned():
    """The whole record of n = 4, delta = 0 (h = 3), key order included:
    S_1 = {0} has all 3 levels, and S_2 = {1, 2, 4}, one key on level 0,
    1 or 2, has 2 + 2 + 1 moves."""
    report = state_stats(4, 0)
    expected = {
        "n": 4,
        "delta": 0,
        "seed": None,
        "relaxation_count": 20,
        "state_counts": [1, 3, 5, 5, 4],
        "decision_counts": [3, 5, 7, 5],
        "wall_clock_s": None,
        "wpl": None,
        "state_set_bound": 10,
        "decision_set_bound": 20,
        "theorem1_ok": True,
        "theorem2_ok": True,
        "policy_bytes": 16,
    }
    obj = report.to_obj()
    assert list(obj.items()) == list(expected.items())
    assert report_to_csv_row(report) == "4,0,,20,5,7,,"


def test_csv_row_shape():
    report = state_stats(6, 1)
    row = report_to_csv_row(report)
    assert len(row.split(",")) == len(CSV_HEADER.split(","))
    assert row.startswith("6,1,,")


def test_counts_are_reproducible():
    a = state_stats(37, 2)
    b = state_stats(37, 2)
    assert a.state_counts == b.state_counts
    assert a.relaxation_count == b.relaxation_count
