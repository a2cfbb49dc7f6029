"""Run one workload once, in this (fresh) process, and print its record.

Started by the runner as
``python -m benchmarks.shrimpbench.child --workload W --seed N [--trace]``
with ``PYTHONHASHSEED=0`` and the source tree under test on
``PYTHONPATH``.  Every simulator import happens at module import, before
any timer starts.  The last stdout line is one JSON record:

- host measurements: ``setup_s``, ``wall_s``, ``peak_rss_mb``;
- deterministic observables: ``events``, ``sim_ns``, the registry
  digest, the latency samples' percentiles, the oracle's counts;
- with ``--trace``, the per-layer self time of each phase, from a
  ``cProfile`` profile enabled only around that phase.
"""

import argparse
import cProfile
import json
import resource
import sys
import time

from repro.sim.instrument import nearest_rank

from benchmarks.shrimpbench import layers
from benchmarks.shrimpbench.spec import load_spec
from benchmarks.shrimpbench.workloads import WORKLOADS


def _timed(fn, profile):
    """Call ``fn``; return its wall seconds, profiling it if asked."""
    start = time.perf_counter()
    if profile is None:
        fn()
    else:
        profile.runcall(fn)
    return time.perf_counter() - start


def _latency(samples, tail_percentile):
    if not samples or tail_percentile is None:
        return None
    ordered = sorted(samples)
    tail = nearest_rank(ordered, tail_percentile)
    return {
        "n": len(ordered),
        "p50_ns": nearest_rank(ordered, 50),
        "tail_ns": tail,
        "tail_percentile": tail_percentile,
        "beyond_tail": sum(1 for v in ordered if v > tail),
    }


def run_once(name, seed, quick=False, trace=False):
    """Set up, run and check one workload; return its record."""
    spec = load_spec()["workloads"][name]
    workload = WORKLOADS[name](
        seed, spec["quick_params" if quick else "params"])
    profiles = {"setup": cProfile.Profile(), "run": cProfile.Profile()} \
        if trace else {"setup": None, "run": None}

    setup_s = _timed(workload.setup, profiles["setup"])
    workload.observe()
    wall_s = _timed(workload.run, profiles["run"])

    attempted, failed = workload.check()
    system = workload.system
    gen_late = sorted(workload.gen_late_ns)
    record = {
        "workload": name,
        "seed": seed,
        "quick": quick,
        "traced": trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "events": system.sim.event_count,
        "sim_ns": system.sim.now,
        "registry_sha256": layers.registry_digest(system),
        "latency": _latency(workload.latencies_ns, spec["tail_percentile"]),
        "gen_late_p99_ns": nearest_rank(gen_late, 99) if gen_late else None,
        "counts": layers.registry_counts(system),
    }
    if trace:
        record["self_s"] = {phase: layers.self_seconds(profile)
                            for phase, profile in profiles.items()}
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    record = run_once(args.workload, args.seed, args.quick, args.trace)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
