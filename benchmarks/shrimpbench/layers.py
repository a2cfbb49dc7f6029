"""Per-layer accounting from outside the simulator.

Two sources, both read after a phase has finished:

- host time: a stdlib ``cProfile`` profile of the phase, its ``tottime``
  summed by ``repro.<package>``.  Builtins and other non-``repro``
  functions have no layer of their own; their time is split over their
  callers through the ``pstats`` caller table.  Time in the benchmark's
  own probes, or with no ``repro`` caller, is charged to ``other``;
- work counts: the instrumentation registry, summed over instances by
  metric leaf (``node3.cache.hits`` counts toward ``memsys.cache_hits``).
"""

import hashlib
import os
import pstats
import statistics

from benchmarks.shrimpbench.spec import BENCH_DIR

LAYERS = ("sim", "cpu", "memsys", "nic", "mesh", "msg", "os", "dsm",
          "machine", "workload")

#: Every per-layer metric: (name, unit, better).  Self times come from
#: the traced run; counts from the registry (identical in every run of
#: one seed); per-unit host costs charge the layer's traced share of the
#: untraced median ``wall_s`` to its work count.
LAYER_METRICS = [
    (layer + suffix, unit, "lower")
    for layer in LAYERS + ("other",)
    for suffix, unit in ((".self_s", "s"), (".setup_self_s", "s"),
                         (".share", "ratio"))
] + [
    ("trace.overhead_x", "x", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.ns_per_event", "ns", "lower"),
    ("cpu.instructions", "count", "lower"),
    ("cpu.ns_per_instruction", "ns", "lower"),
    ("memsys.cache_hits", "count", "higher"),
    ("memsys.cache_misses", "count", "lower"),
    ("memsys.hit_ratio", "ratio", "higher"),
    ("memsys.bus_transactions", "count", "lower"),
    ("memsys.bus_busy_us", "us", "lower"),
    ("memsys.eisa_bursts", "count", "lower"),
    ("memsys.dram_mb", "MiB", "lower"),
    ("nic.packetized", "count", "lower"),
    ("nic.delivered", "count", "lower"),
    ("nic.merged_writes", "count", "higher"),
    ("nic.dma_transfers", "count", "lower"),
    ("nic.dma_rejected", "count", "lower"),
    ("nic.drops", "count", "lower"),
    ("nic.ns_per_packet", "ns", "lower"),
    ("mesh.flits", "count", "lower"),
    ("mesh.packets", "count", "lower"),
    ("mesh.ns_per_flit", "ns", "lower"),
    ("msg.frames_sent", "count", "lower"),
    ("msg.retransmits", "count", "lower"),
    ("msg.acks_written", "count", "lower"),
    ("msg.useful_ratio", "ratio", "higher"),
    ("dsm.faults", "count", "lower"),
    ("dsm.fetches", "count", "lower"),
    ("dsm.invalidations", "count", "lower"),
    ("dsm.recalls", "count", "lower"),
    ("dsm.us_per_fault", "us", "lower"),
    ("workload.responses", "count", "higher"),
    ("workload.gen_late_p99_us", "us", "lower"),
]

#: Benchmark count -> (registry name prefix, registry name suffix).
_LEAVES = {
    "cpu.instructions": ("node", ".cpu.instructions"),
    "memsys.cache_hits": ("node", ".cache.hits"),
    "memsys.cache_misses": ("node", ".cache.misses"),
    "memsys.bus_transactions": ("node", ".bus.transactions"),
    "memsys.bus_busy_ns": ("node", ".bus.busy_ns"),
    "memsys.eisa_bursts": ("node", ".eisa.bursts"),
    "nic.packetized": ("node", ".nic.packetized"),
    "nic.delivered": ("node", ".nic.delivered"),
    "nic.merged_writes": ("node", ".nic.merged_writes"),
    "nic.dma_transfers": ("node", ".nic.dma.transfers"),
    "nic.dma_rejected": ("node", ".nic.dma.rejected"),
    "nic.crc_drops": ("node", ".nic.crc_drops"),
    "nic.coord_drops": ("node", ".nic.coord_drops"),
    "nic.unmapped_drops": ("node", ".nic.unmapped_drops"),
    "mesh.flits": ("router(", ".flits"),
    "mesh.packets": ("mesh.delivered", ""),
    "msg.frames_sent": ("", ".frames_sent"),
    "msg.retransmits": ("", ".retransmits"),
    "msg.acks_written": ("", ".acks_written"),
    "dsm.faults": ("dsm.faults", ""),
    "dsm.fetches": ("dsm.fetches", ""),
    "dsm.invalidations": ("dsm.invalidations", ""),
    "dsm.recalls": ("dsm.recalls", ""),
    "workload.responses": ("workload.responses", ""),
}


def layer_of(filename):
    """The layer owning a profiled function's file, or None if no layer
    owns it (builtins, the standard library)."""
    path = os.path.abspath(filename) if filename != "~" else filename
    if path.startswith(BENCH_DIR):
        return "other"
    parts = path.replace(os.sep, "/").split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            return parts[i + 1] if parts[i + 1] in LAYERS else "other"
    return None


def self_seconds(profile):
    """``{layer: self seconds}`` for one profiled phase, plus ``other``."""
    totals = dict.fromkeys(LAYERS + ("other",), 0.0)
    for func, (_cc, _nc, tottime, _ct, callers) in \
            pstats.Stats(profile).stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            totals[layer] += tottime
            continue
        # No layer of its own: split the time over the callers that spent it.
        for caller, caller_stats in callers.items():
            totals[layer_of(caller[0]) or "other"] += caller_stats[2]
            tottime -= caller_stats[2]
        totals["other"] += max(0.0, tottime)
    return totals


def registry_counts(system):
    """Work counts summed by metric leaf, plus DRAM allocated."""
    hub = system.instrumentation
    counts = dict.fromkeys(_LEAVES, 0)
    for name in hub.names():
        for metric, (prefix, suffix) in _LEAVES.items():
            if name.startswith(prefix) and name.endswith(suffix):
                counts[metric] += hub.value(name)
    counts["memsys.dram_bytes"] = sum(node.memory.size_bytes
                                      for node in system.nodes)
    return counts


def _ratio(part, whole):
    return part / whole if whole else None


def layer_table(traced, untraced=None):
    """:data:`LAYER_METRICS` values from one traced child record.

    The untraced records of the same (code, seed) supply the median
    ``wall_s`` that the overhead, per-second and per-unit host costs
    need; without them those metrics are left out.  A value is ``None``
    where the workload does no such work (a ratio over zero).
    """
    run, setup = traced["self_s"]["run"], traced["self_s"]["setup"]
    total = sum(run.values())
    counts = traced["counts"]
    table = {}
    for layer in LAYERS + ("other",):
        table[layer + ".self_s"] = run[layer]
        table[layer + ".setup_self_s"] = setup[layer]
        table[layer + ".share"] = _ratio(run[layer], total)
    hits, misses = counts["memsys.cache_hits"], counts["memsys.cache_misses"]
    frames, retransmits = counts["msg.frames_sent"], counts["msg.retransmits"]
    gen_late = traced["gen_late_p99_ns"]
    table.update({
        "sim.events": traced["events"],
        "cpu.instructions": counts["cpu.instructions"],
        "memsys.cache_hits": hits,
        "memsys.cache_misses": misses,
        "memsys.hit_ratio": _ratio(hits, hits + misses),
        "memsys.bus_transactions": counts["memsys.bus_transactions"],
        "memsys.bus_busy_us": counts["memsys.bus_busy_ns"] / 1e3,
        "memsys.eisa_bursts": counts["memsys.eisa_bursts"],
        "memsys.dram_mb": counts["memsys.dram_bytes"] / 2.0 ** 20,
        "nic.packetized": counts["nic.packetized"],
        "nic.delivered": counts["nic.delivered"],
        "nic.merged_writes": counts["nic.merged_writes"],
        "nic.dma_transfers": counts["nic.dma_transfers"],
        "nic.dma_rejected": counts["nic.dma_rejected"],
        "nic.drops": (counts["nic.crc_drops"] + counts["nic.coord_drops"]
                      + counts["nic.unmapped_drops"]),
        "mesh.flits": counts["mesh.flits"],
        "mesh.packets": counts["mesh.packets"],
        "msg.frames_sent": frames,
        "msg.retransmits": retransmits,
        "msg.acks_written": counts["msg.acks_written"],
        "msg.useful_ratio": _ratio(frames, frames + retransmits),
        "dsm.faults": counts["dsm.faults"],
        "dsm.fetches": counts["dsm.fetches"],
        "dsm.invalidations": counts["dsm.invalidations"],
        "dsm.recalls": counts["dsm.recalls"],
        "workload.responses": counts["workload.responses"],
        "workload.gen_late_p99_us":
            None if gen_late is None else gen_late / 1e3,
    })
    if not untraced:
        return table
    wall = statistics.median(r["wall_s"] for r in untraced)

    def host_ns(layer, work):
        return _ratio(table[layer + ".share"] * wall * 1e9, work)

    table.update({
        "trace.overhead_x": traced["wall_s"] / wall,
        "sim.events_per_s": traced["events"] / wall,
        "sim.ns_per_event": _ratio(wall * 1e9, traced["events"]),
        "cpu.ns_per_instruction": host_ns("cpu", table["cpu.instructions"]),
        "nic.ns_per_packet": host_ns("nic", table["nic.packetized"]),
        "mesh.ns_per_flit": host_ns("mesh", table["mesh.flits"]),
        "dsm.us_per_fault": _ratio(table["dsm.share"] * wall * 1e6,
                                   table["dsm.faults"]),
    })
    return table


def registry_digest(system):
    """SHA-256 over every registered metric's summary, in name order."""
    digest = hashlib.sha256()
    for line in system.instrumentation.metrics_jsonl():
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()
