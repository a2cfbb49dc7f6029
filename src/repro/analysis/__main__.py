"""Regenerate the paper's whole evaluation from the command line.

    python -m repro.analysis            # everything
    python -m repro.analysis table1     # just Table 1
    python -m repro.analysis latency bandwidth

Sections: table1, latency, bandwidth, breakdown, comparison, metrics,
trace-export.

``metrics`` and ``trace-export`` run a small two-node machine through a
short automatic-update workload and dump, respectively, the full metrics
registry and the structured event trace as JSONL (one JSON object per
line; see ``docs/observability.md`` for the schemas).
"""

import sys

from repro.analysis.bandwidth import bandwidth_sweep
from repro.analysis.breakdown import measure_latency_breakdown
from repro.analysis.latency import measure_latency_vs_hops, measure_store_latency
from repro.analysis.report import Table
from repro.analysis.table1 import measure_csend_crecv, run_table1
from repro.machine.config import eisa_prototype, next_generation


def show_table1():
    table = Table(
        ["Message Passing Primitive", "Paper", "Measured"],
        title="Table 1: software overhead (instructions)",
    )
    for row in run_table1():
        table.add(
            row.primitive,
            "%d (%d+%d)" % (row.paper_total, row.paper_send, row.paper_recv),
            "%d (%d+%d)" % (
                row.measured_send + row.measured_recv,
                row.measured_send,
                row.measured_recv,
            ),
        )
    print(table)


def show_latency():
    table = Table(
        ["configuration", "paper", "measured (ns)"],
        title="Section 5.1: store-to-remote-memory latency (16 nodes)",
    )
    table.add("EISA prototype", "< 2000 ns",
              measure_store_latency(eisa_prototype))
    table.add("next-generation", "< 1000 ns",
              measure_store_latency(next_generation))
    print(table)
    hops = measure_latency_vs_hops()
    series = Table(["hops", "latency (ns)"], title="Latency vs hop count")
    for h in sorted(hops):
        series.add(h, hops[h])
    print()
    print(series)


def show_bandwidth():
    sizes = [256, 1024, 4096, 16384, 65536]
    eisa = bandwidth_sweep(sizes, eisa_prototype)
    nextgen = bandwidth_sweep(sizes, next_generation)
    table = Table(
        ["transfer bytes", "EISA MB/s (peak 33)", "next-gen MB/s (~70)"],
        title="Section 5.1: deliberate-update bandwidth",
    )
    for size in sizes:
        table.add(size, "%.1f" % eisa[size], "%.1f" % nextgen[size])
    print(table)


def show_breakdown():
    eisa = measure_latency_breakdown(eisa_prototype)
    nextgen = measure_latency_breakdown(next_generation)
    table = Table(
        ["stage", "EISA (ns)", "next-gen (ns)"],
        title="Latency breakdown by datapath stage",
    )
    for stage in ("packetized", "injected", "accepted", "delivered"):
        table.add(stage, eisa["delta:" + stage], nextgen["delta:" + stage])
    table.add("TOTAL", eisa["total"], nextgen["total"])
    print(table)


def show_comparison():
    from repro.msg.nx2_baseline import BaselineParams

    params = BaselineParams()
    shrimp = measure_csend_crecv()
    table = Table(
        ["implementation", "csend", "crecv", "total"],
        title="Section 5.2: SHRIMP vs kernel-DMA NX/2 (instructions)",
    )
    table.add("SHRIMP user-level", shrimp.measured_send, shrimp.measured_recv,
              shrimp.measured_send + shrimp.measured_recv)
    table.add("iPSC/2 NX/2 fast path", params.csend_instructions,
              params.crecv_instructions,
              params.csend_instructions + params.crecv_instructions)
    print(table)


def _instrumented_run(collect_events=False):
    """A short automatic-update workload on a 2x1 machine; returns the hub."""
    from repro.cpu import Asm, Context, Mem
    from repro.machine import mapping
    from repro.machine.system import ShrimpSystem
    from repro.memsys.address import PAGE_SIZE
    from repro.nic.nipt import MappingMode
    from repro.sim.process import Process

    system = ShrimpSystem(2, 1, eisa_prototype)
    system.start()
    hub = system.instrumentation
    if collect_events:
        hub.enable_events()
    sender, receiver = system.nodes
    mapping.establish(sender, 0x10000, receiver, 0x20000, PAGE_SIZE,
                      MappingMode.AUTO_SINGLE)
    asm = Asm("instrument-probe")
    for i in range(4):
        asm.mov(Mem(disp=0x10000 + 4 * i), i + 1)
    asm.halt()
    Process(
        system.sim,
        sender.cpu.run_to_halt(asm.build(), Context(stack_top=0x3F000)),
        "instrument-probe",
    ).start()
    system.run()
    return hub


def show_metrics():
    for line in _instrumented_run().metrics_jsonl():
        print(line)


def show_trace_export():
    for line in _instrumented_run(collect_events=True).events_jsonl():
        print(line)


SECTIONS = {
    "table1": show_table1,
    "latency": show_latency,
    "bandwidth": show_bandwidth,
    "breakdown": show_breakdown,
    "comparison": show_comparison,
    "metrics": show_metrics,
    "trace-export": show_trace_export,
}


def main(argv):
    requested = argv or list(SECTIONS)
    unknown = [name for name in requested if name not in SECTIONS]
    if unknown:
        print("usage: python -m repro.analysis [section ...]")
        print("unknown section(s): %s" % ", ".join(unknown))
        print("available: %s" % ", ".join(SECTIONS))
        return 2
    for i, name in enumerate(requested):
        if i:
            print()
        SECTIONS[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
