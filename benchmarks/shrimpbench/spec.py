"""Where the benchmark's declarations live.

``BENCHMARK.json`` at the repository root has a fixed schema: the
workloads and their reasons, the host-measured end-to-end metrics with
their bounds, and the per-layer metrics that every workload reports.
``spec.json`` beside this file holds the rest: workload parameters,
loop type, operation unit and tail percentile, the deterministic
end-to-end observables, and which end-to-end metric each layer metric
should move.
"""

import json
import os

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))
SPEC_PATH = os.path.join(BENCH_DIR, "spec.json")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def load_spec():
    return _load(SPEC_PATH)


def load_benchmark():
    return _load(BENCHMARK_PATH)


def end_to_end_metrics(benchmark=None, spec=None):
    """Every end-to-end metric: host-measured ones first, then the
    deterministic observables."""
    benchmark = benchmark or load_benchmark()
    spec = spec or load_spec()
    return list(benchmark["end_to_end"]) + list(spec["observables"])
