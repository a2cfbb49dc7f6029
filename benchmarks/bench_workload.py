"""Datacenter-workload SLO benchmark: tail latency and goodput at scale.

Runs the seeded open-loop workload (``repro.workload``) on a 32x32
mesh -- 1024 nodes, a million simulated clients multiplexed onto
per-node frontends -- once per placement policy (blocked, strided), and
records p50/p99/p999 round-trip latency and goodput-vs-offered-load
into ``BENCH_workload.json`` through the shared gate
(``benchmarks/gate.py``):

    python -m benchmarks.bench_workload            # refuses regressions
    python -m benchmarks.bench_workload --force    # overwrite regardless
    make bench-workload                            # same as the first form

The gate refuses to record a goodput drop of more than 25% against the
committed numbers: tail latency is the *observable*, goodput collapse
is the symptom a scheduling or flow-control regression actually shows.
"""

import os
import sys
from functools import partial

from benchmarks import gate
from repro.workload import DatacenterWorkload, WorkloadParams

GUARDS = {"goodput_rps": (0.25, "higher")}

# keys > node_count (4 tiles per node) so blocked and strided are
# genuinely different placements; with keys == node_count both maps
# degenerate to home = key and the comparison is vacuous.
PARAMS = dict(width=32, height=32, requests=512, seed=1, keys=4096)


def run_one(addr_map):
    """One placement policy, run once: its SLO record."""
    params = WorkloadParams(addr_map=addr_map, **PARAMS)
    return DatacenterWorkload(params).run().results()


SCALES = {addr_map: partial(run_one, addr_map)
          for addr_map in ("blocked", "strided")}


def main(argv=None):
    return gate.main(argv, SCALES, GUARDS,
                     os.path.join(gate.REPO_ROOT, "BENCH_workload.json"))


if __name__ == "__main__":
    sys.exit(main())
