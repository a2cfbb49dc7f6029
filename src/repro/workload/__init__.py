"""Open-loop datacenter traffic over the SHRIMP machine.

The package splits along the natural seams:

- :mod:`repro.workload.traffic` -- the *model*: seeded Poisson arrivals,
  Zipf-skewed keys, millions of simulated clients, and the pluggable
  key-to-home-node placement (:class:`~repro.machine.addrmap.AddrMap`);
- :mod:`repro.workload.arena` -- per-node memory arenas packing many
  reliable channels into one node's DRAM under the NIPT's two-halves-
  per-page budget;
- :mod:`repro.workload.generator` -- the *runner*: builds the machine,
  the channel mesh and the frontend processes, and reports SLO metrics
  (p50/p99/p999 latency, goodput vs offered load).

Run it from the command line (``python -m repro.workload``) or as the
``workload`` scenario in :mod:`repro.scenarios`; the same parameters
always produce the same fingerprint.
"""

from repro.workload.arena import ArenaError, NodeArena
from repro.workload.generator import (
    LATENCY_METRIC,
    LOCAL_METRIC,
    REQUESTS_METRIC,
    RESPONSES_METRIC,
    DatacenterWorkload,
)
from repro.workload.traffic import (
    KEY_TILE_LOG2,
    Request,
    WorkloadError,
    WorkloadParams,
    ZipfSampler,
    build_schedule,
)

__all__ = [
    "ArenaError",
    "NodeArena",
    "LATENCY_METRIC",
    "LOCAL_METRIC",
    "REQUESTS_METRIC",
    "RESPONSES_METRIC",
    "DatacenterWorkload",
    "KEY_TILE_LOG2",
    "Request",
    "WorkloadError",
    "WorkloadParams",
    "ZipfSampler",
    "build_schedule",
]
