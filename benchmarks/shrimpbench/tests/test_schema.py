"""BENCHMARK.json and spec.json agree with each other and stay within
the BENCHMARK.json format limits."""

import fnmatch
import re

from benchmarks.shrimpbench.layers import LAYER_METRICS
from benchmarks.shrimpbench.runner import HOST_METRICS
from benchmarks.shrimpbench.spec import (end_to_end_metrics, load_benchmark,
                                         load_spec)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")

BENCHMARK = load_benchmark()
SPEC = load_spec()
LAYER_UNITS = {name: unit for name, unit, _better in LAYER_METRICS}


def test_benchmark_json_keys_and_limits():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert 1 <= len(BENCHMARK["paths"]) <= 16
    assert all(PATH.match(p) and ".." not in p.split("/")
               for p in BENCHMARK["paths"])
    command = BENCHMARK["command"]
    assert 1 <= len(command) <= 32
    assert all(len(arg) <= 200 and not arg.startswith("/")
               and ".." not in arg for arg in command)
    assert isinstance(BENCHMARK["run_seconds"], int)
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metric_names_units_and_bounds():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert len(names) == len(set(names))
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in BENCHMARK["end_to_end"])}]


def test_host_metrics_are_the_gated_ones():
    assert set(HOST_METRICS) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_totals_and_layer_metrics():
    everything = end_to_end_metrics()
    assert len(everything) <= 16
    assert len({m["name"] for m in everything}) == len(everything)
    assert len(LAYER_METRICS) <= 128
    assert len(LAYER_UNITS) == len(LAYER_METRICS)
    for name in list(LAYER_UNITS) + [m["name"] for m in everything]:
        assert NAME.match(name), name
    for metric in BENCHMARK["per_layer"]:
        assert LAYER_UNITS.get(metric["name"]) == metric["unit"], metric


def test_spec_workloads_match_benchmark():
    assert list(SPEC["workloads"]) == [w["name"]
                                       for w in BENCHMARK["workloads"]]
    for name, workload in SPEC["workloads"].items():
        assert set(workload["params"]) == set(workload["quick_params"]), name
        tail = workload["tail_percentile"]
        assert tail is None or 50 < tail < 100, name


def test_layer_targets_name_real_metrics_and_workloads():
    end_to_end = {m["name"] for m in end_to_end_metrics()}
    for target in SPEC["layer_targets"]:
        assert fnmatch.filter(LAYER_UNITS, target["layer_metrics"]), target
        assert set(target["moves"]) <= end_to_end, target
        assert set(target["workloads"]) <= set(SPEC["workloads"]), target
