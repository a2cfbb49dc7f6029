"""DSM benchmarks: fetch/upgrade latency and protocol traffic per app.

Runs the fetch-on-fault app family (:mod:`repro.workload.dsm_apps`)
over the directory protocol and records the ``dsm.*`` namespace:

- ``end_ns``          -- simulated completion time;
- ``faults``/``fetches``/``invalidations``/``recalls`` -- protocol
  traffic (each fetch is one page-sized deliberate-update push);
- ``fetch_p50_ns``/``fetch_p99_ns``     -- read-fault resolution time;
- ``upgrade_p50_ns``/``upgrade_p99_ns`` -- write-fault resolution time,
  including the section 4.4 invalidation walk over every reader copy.

Every stencil/bfs run is verified against its closed-form expectation
first, so the numbers are the cost of a run that provably computed the
right bytes.  All keys are deterministic simulated observables.  Results
land in ``BENCH_dsm.json`` through the shared gate
(``benchmarks/gate.py``):

    python -m benchmarks.bench_dsm            # refuses regressions
    python -m benchmarks.bench_dsm --force    # overwrite regardless
    make bench-dsm                            # same as the first form
"""

import os
import sys

from benchmarks import gate
from repro.workload.dsm_apps import DsmWorkload

#: Keys whose growth beyond 25% refuses the write.
GUARDS = {key: (0.25, "lower") for key in (
    "end_ns", "fetches", "fetch_p99_ns", "upgrade_p99_ns",
)}


def _measure(**kwargs):
    """One workload run, verified where a closed form exists."""
    workload = DsmWorkload(**kwargs).start()
    workload.run()

    if kwargs["kind"] == "stencil":
        assert workload.final_shared_bytes() == workload.expected_stencil(), \
            "stencil bytes diverge from the closed form"
    elif kwargs["kind"] == "bfs":
        distances = workload.final_shared_bytes()[0][:workload.node_count]
        assert distances == workload.expected_bfs(), \
            "bfs distances diverge from the closed form"

    runtime = workload.runtime
    hub = runtime.instr
    fetch = hub.summary("dsm.fetch_ns")
    upgrade = hub.summary("dsm.upgrade_ns")
    return {
        "end_ns": workload.system.sim.now,
        "faults": runtime.faults.value,
        "fetches": runtime.fetches.value,
        "invalidations": runtime.invalidations.value,
        "recalls": runtime.recalls.value,
        "fetch_p50_ns": fetch["p50"],
        "fetch_p99_ns": fetch["p99"],
        "upgrade_p50_ns": upgrade["p50"],
        "upgrade_p99_ns": upgrade["p99"],
    }


SCALES = {
    "stencil_4x4": lambda: _measure(
        kind="stencil", width=4, height=4, iterations=2, words=8),
    "stencil_8x8": lambda: _measure(
        kind="stencil", width=8, height=8, iterations=1, words=4),
    "bfs_4x4": lambda: _measure(kind="bfs", width=4, height=4),
    "kv_4x4": lambda: _measure(
        kind="kv", width=4, height=4, seed=1, requests=64),
}


def main(argv=None):
    return gate.main(argv, SCALES, GUARDS,
                     os.path.join(gate.REPO_ROOT, "BENCH_dsm.json"))


if __name__ == "__main__":
    sys.exit(main())
