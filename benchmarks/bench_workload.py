"""Datacenter-workload SLO benchmark: tail latency and goodput at scale.

Runs the seeded open-loop workload (``repro.workload``) on a 32x32
mesh -- 1024 nodes, half a million simulated clients multiplexed onto
per-node frontends -- once per placement policy (blocked, strided), and
records p50/p99/p999 round-trip latency and goodput-vs-offered-load
into ``BENCH_workload.json``:

    python -m benchmarks.bench_workload            # full 32x32 sweep
    python -m benchmarks.bench_workload --quick    # 8x8 smoke (CI; no write)
    make bench-workload                            # same as the first form

The regression gate refuses to record a goodput drop of more than 25%
against the committed numbers (override with ``--force``): tail latency
is the *observable*, goodput collapse is the symptom a scheduling or
flow-control regression actually shows.
"""

import argparse
import json
import os
import sys
import time

from repro.workload import DatacenterWorkload, WorkloadParams

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_workload.json")
REGRESSION_TOLERANCE = 0.25

# keys > node_count (4 tiles per node) so blocked and strided are
# genuinely different placements; with keys == node_count both maps
# degenerate to home = key and the comparison is vacuous.
FULL = dict(width=32, height=32, requests=512, seed=1, keys=4096)
QUICK = dict(width=8, height=8, requests=96, seed=1,
             clients=50_000, keys=1024)


def run_one(addr_map, base_kwargs):
    """One placement policy, run once: its SLO record plus wall time."""
    params = WorkloadParams(addr_map=addr_map, **base_kwargs)
    t0 = time.perf_counter()
    workload = DatacenterWorkload(params).run()
    wall = time.perf_counter() - t0
    slo = workload.results()
    slo["wall_s"] = wall
    slo["events"] = workload.system.sim.event_count
    return slo


def run_all(quick=False):
    base = QUICK if quick else FULL
    return {addr_map: run_one(addr_map, base)
            for addr_map in ("blocked", "strided")}


def check_regression(old, new, tolerance=REGRESSION_TOLERANCE):
    problems = []
    for name, result in new.items():
        prior = (old.get("runs") or {}).get(name)
        if not prior or not prior.get("goodput_rps"):
            continue
        floor = prior["goodput_rps"] * (1.0 - tolerance)
        if (result["goodput_rps"] or 0.0) < floor:
            problems.append(
                "%s: goodput %.0f rps is >%d%% below the recorded %.0f"
                % (name, result["goodput_rps"] or 0.0,
                   int(tolerance * 100), prior["goodput_rps"])
            )
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true",
                        help="record even on a goodput regression")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="result file (default: repo BENCH_workload.json)")
    parser.add_argument("--quick", action="store_true",
                        help="8x8 smoke (CI); never writes")
    args = parser.parse_args(argv)

    results = run_all(quick=args.quick)
    for name, r in results.items():
        print("%-8s %4d resp  p50=%-6s p99=%-6s p999=%-6s ns  "
              "goodput %.0f/%d rps  (%.1fs)"
              % (name, r["responses"], r["p50_ns"], r["p99_ns"],
                 r["p999_ns"], r["goodput_rps"] or 0.0,
                 r["offered_load_rps"], r["wall_s"]))

    if args.quick:
        print("(quick mode: results not written)")
        return 0

    payload = {}
    if os.path.exists(args.output):
        with open(args.output) as fh:
            payload = json.load(fh)
        problems = check_regression(payload, results)
        if problems and not args.force:
            print("REFUSING to overwrite %s:" % args.output)
            for line in problems:
                print("  " + line)
            return 1

    payload["version"] = 1
    payload["runs"] = results
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("recorded -> %s" % args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
