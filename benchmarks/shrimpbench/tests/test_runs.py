"""Self-tests that run the benchmark: the quick set, the BENCHMARK.json
result line, a checkout without sources, and the oracles."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from benchmarks.shrimpbench import runner
from benchmarks.shrimpbench.spec import (BENCH_DIR, BENCHMARK_PATH, ROOT,
                                         end_to_end_metrics, load_benchmark,
                                         load_spec)
from benchmarks.shrimpbench.workloads import WORKLOADS


def test_quick_set_passes_every_oracle(tmp_path):
    out = tmp_path / "quick.json"
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.shrimpbench", "run", "--quick",
         "--repeats", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert set(result["workloads"]) == set(load_spec()["workloads"])
    printed = {line.split()[0]: line.split()
               for line in proc.stdout.splitlines() if line.strip()}
    for metric in end_to_end_metrics():
        assert printed[metric["name"]][1] == metric["unit"]
    for name, entry in result["workloads"].items():
        assert entry["guard"] == [], name
        assert entry["end_to_end"]["failed_frac"]["value"] == 0, name
        assert entry["layers"]["trace.overhead_x"] > 1, name


def _fake_record(wall, events=100):
    return {"wall_s": wall, "setup_s": wall / 10, "peak_rss_mb": 30.0,
            "attempted": 5, "failed": 0, "traced": False, "events": events,
            "sim_ns": 1000, "registry_sha256": "x", "latency": None,
            "gen_late_p99_ns": None}


def test_measure_reports_medians_and_guards(monkeypatch):
    walls = iter([3.0, 1.0, 2.0])
    monkeypatch.setattr(runner, "run_child",
                        lambda *a, **k: _fake_record(next(walls)))
    result = runner.measure("pingpong", 1, 0, False, load_benchmark())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 15
    assert result["metrics"]["wall_s"] == {"value": 2.0, "unit": "s"}
    assert set(result["metrics"]) == {
        m["name"] for m in load_benchmark()["end_to_end"]}

    events = iter([100, 100, 101])
    monkeypatch.setattr(runner, "run_child",
                        lambda *a, **k: _fake_record(1.0, next(events)))
    assert not runner.measure("pingpong", 1, 0, False,
                              load_benchmark())["correct"]


def test_measure_fails_without_sources(tmp_path):
    """Given only BENCHMARK.json and the benchmark's own files, the
    BENCHMARK.json command exits non-zero and prints no result."""
    shutil.copy(BENCHMARK_PATH, tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks" / "shrimpbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    command = load_benchmark()["command"]
    proc = subprocess.run(
        [sys.executable] + command[1:] + [
            "--workload", "pingpong", "--seed", "1", "--seconds", "1",
            "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _run_quick(name, seed=1):
    workload = WORKLOADS[name](seed, load_spec()["workloads"][name]
                               ["quick_params"])
    workload.setup()
    workload.observe()
    workload.run()
    attempted, failed = workload.check()
    assert attempted > 0 and failed == 0
    return workload


def _corrupt_pingpong(w):
    w.a.memory.write_word(w.PONG_RBUF, w.a.memory.read_word(w.PONG_RBUF) ^ 1)


def _corrupt_storm(w):
    addr = w.DEST + 3 * 4096 + 8
    w.hot.memory.write_word(addr, w.hot.memory.read_word(addr) ^ 1)


def _lose_dc_response(w):
    w.answered.pop()


def _corrupt_dsm_progress(w):
    from repro.workload.dsm_apps import SCRATCH_PROGRESS

    addr = w.workload.layout.scratch_addr(SCRATCH_PROGRESS)
    memory = w.system.nodes[5].memory
    memory.write_word(addr, memory.read_word(addr) - 1)


@pytest.mark.parametrize("name, plant", [
    ("pingpong", _corrupt_pingpong),
    ("storm", _corrupt_storm),
    ("dc_strided", _lose_dc_response),
    ("dsm_stencil", _corrupt_dsm_progress),
])
def test_oracle_catches_a_planted_fault(name, plant):
    workload = _run_quick(name)
    plant(workload)
    _attempted, failed = workload.check()
    assert failed >= 1
