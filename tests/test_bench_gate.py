"""The shared bench gate (``benchmarks/gate.py``).

Fake scales return fixed dicts, so these run in milliseconds and pin
the gate itself: which moves refuse the write, that a refusal leaves
the record byte for byte, that ``--force`` records, and that a scale
whose two runs differ is an error.
"""

import json

import pytest

from benchmarks.gate import check_regression, main

GUARDS = {"size": (0.10, "lower"), "goodput": (0.25, "higher")}


def _record(path, scales):
    path.write_text(json.dumps({"scales": scales}, indent=2, sort_keys=True) + "\n")


def _run(path, result, *flags):
    scales = {"only": lambda: dict(result)}
    return main(["--output", str(path), *flags], scales, GUARDS, str(path))


def test_growth_past_tolerance_refused_for_a_lower_key():
    problems = check_regression({"s": {"size": 100}}, {"s": {"size": 111}}, GUARDS)
    assert problems == ["s: size 111 is >10% above the recorded 100"]


def test_drop_past_tolerance_refused_for_a_higher_key():
    problems = check_regression({"s": {"goodput": 100.0}},
                                {"s": {"goodput": 74.0}}, GUARDS)
    assert problems == ["s: goodput 74.0 is >25% below the recorded 100.0"]


def test_moves_within_tolerance_or_the_good_way_pass():
    old = {"s": {"size": 100, "goodput": 100.0}}
    for new in ({"size": 110, "goodput": 75.0}, {"size": 1, "goodput": 1e9}):
        assert check_regression(old, {"s": new}, GUARDS) == []


def test_key_missing_on_either_side_is_skipped():
    assert check_regression({"s": {}}, {"s": {"size": 10**6}}, GUARDS) == []
    assert check_regression({"s": {"size": 1}}, {"s": {}}, GUARDS) == []
    assert check_regression({}, {"new_scale": {"size": 10**6}}, GUARDS) == []


def test_change_within_tolerance_is_written(tmp_path):
    path = tmp_path / "BENCH.json"
    _record(path, {"only": {"size": 100, "note": "old"}})
    assert _run(path, {"size": 105, "note": "new"}) == 0
    assert json.loads(path.read_text()) == {
        "scales": {"only": {"size": 105, "note": "new"}}}


def test_refusal_leaves_the_file_byte_identical(tmp_path):
    path = tmp_path / "BENCH.json"
    _record(path, {"only": {"size": 100}})
    before = path.read_bytes()
    assert _run(path, {"size": 200}) == 1
    assert path.read_bytes() == before


def test_force_writes_a_regression(tmp_path):
    path = tmp_path / "BENCH.json"
    _record(path, {"only": {"size": 100}})
    assert _run(path, {"size": 200}, "--force") == 0
    assert json.loads(path.read_text()) == {"scales": {"only": {"size": 200}}}


def test_rerun_against_own_record_is_byte_identical(tmp_path):
    path = tmp_path / "BENCH.json"
    assert _run(path, {"size": 100, "goodput": 2.5}) == 0
    first = path.read_bytes()
    assert _run(path, {"size": 100, "goodput": 2.5}) == 0
    assert path.read_bytes() == first


def test_scale_with_differing_runs_raises(tmp_path):
    path = tmp_path / "BENCH.json"
    runs = iter([{"size": 1}, {"size": 2}])
    with pytest.raises(AssertionError, match="two runs differ"):
        main(["--output", str(path)], {"flaky": lambda: next(runs)},
             GUARDS, str(path))
    assert not path.exists()
