"""Ablation A1 -- single-write vs blocked-write automatic update.

Section 4.1: "While single write is optimized for low overhead, blocked
write is optimized for efficient network bandwidth usage."  A burst of
consecutive stores shows the tradeoff: blocked-write merges them into few
packets (amortising the 18-byte header+CRC overhead), at the cost of the
merge-window delay before the data leaves the node.
"""

from repro.cpu import Asm, Context, Mem
from repro.machine import ShrimpSystem, mapping
from repro.mesh.packet import HEADER_BYTES, CRC_BYTES
from repro.analysis import Table
from repro.memsys.address import PAGE_SIZE
from repro.nic.nipt import MappingMode
from repro.sim.process import Process

SRC, DST = 0x10000, 0x20000
NSTORES = 64


def run_burst(mode):
    """Store NSTORES consecutive words; returns wire statistics."""
    system = ShrimpSystem(2, 1)
    system.start()
    a, b = system.nodes
    mapping.establish(a, SRC, b, DST, PAGE_SIZE, mode)
    arrival_time = {}
    last_addr = DST + 4 * (NSTORES - 1)
    b.bus.add_snooper(
        lambda t: arrival_time.__setitem__("t", t.time)
        if t.kind == "write" and t.addr <= last_addr < t.end_addr() else None
    )
    asm = Asm("burst")
    for i in range(NSTORES):
        asm.mov(Mem(disp=SRC + 4 * i), i + 1)
    asm.halt()
    Process(
        system.sim,
        a.cpu.run_to_halt(asm.build(), Context(stack_top=0x3F000)),
        "w",
    ).start()
    system.run()
    assert b.memory.read_words(DST, NSTORES) == list(range(1, NSTORES + 1))
    packets = a.nic.packets_injected.value
    wire_bytes = packets * (HEADER_BYTES + CRC_BYTES) + 4 * NSTORES
    return {
        "packets": packets,
        "wire_bytes": wire_bytes,
        "done_ns": arrival_time["t"],
        "merged": a.nic.merged_writes.value,
    }


def test_blocked_write_amortises_headers(run_once):
    def experiment():
        return run_burst(MappingMode.AUTO_SINGLE), run_burst(
            MappingMode.AUTO_BLOCKED
        )

    single, blocked = run_once(experiment)
    table = Table(
        ["mode", "packets", "wire bytes", "last word arrives (ns)"],
        title="A1: %d consecutive stores, single-write vs blocked-write"
        % NSTORES,
    )
    table.add("single-write", single["packets"], single["wire_bytes"],
              single["done_ns"])
    table.add("blocked-write", blocked["packets"], blocked["wire_bytes"],
              blocked["done_ns"])
    print()
    print(table)
    # Blocked-write: far fewer packets and much less header traffic.
    assert blocked["packets"] < single["packets"] / 4
    assert blocked["wire_bytes"] < single["wire_bytes"] / 2
    assert blocked["merged"] > 0


def test_merge_window_sweep(run_once):
    """The 'programmable time limit' knob (section 4.1): longer windows
    merge sparser store streams into fewer packets, at the cost of
    holding the last packet longer."""
    from repro.machine.config import eisa_prototype

    windows = [100, 500, 2000]
    gap_ns = 700  # time between consecutive stores

    def run_with_window(window_ns):
        def factory():
            params = eisa_prototype()
            params.nic.blocked_write_window_ns = window_ns
            return params

        system = ShrimpSystem(2, 1, factory)
        system.start()
        a, b = system.nodes
        mapping.establish(a, SRC, b, DST, PAGE_SIZE,
                          MappingMode.AUTO_BLOCKED)

        def paced_writer():
            for i in range(16):
                yield from a.cpu.cache.write(SRC + 4 * i, i + 1, "WT")
                yield gap_ns

        Process(system.sim, paced_writer(), "w").start()
        system.run()
        assert b.memory.read_words(DST, 16) == list(range(1, 17))
        return b.nic.packets_delivered.value

    def experiment():
        return {w: run_with_window(w) for w in windows}

    results = run_once(experiment)
    table = Table(
        ["merge window (ns)", "packets for 16 paced stores"],
        title="A1: merge-window sweep (stores %d ns apart)" % gap_ns,
    )
    for w in windows:
        table.add(w, results[w])
    print()
    print(table)
    # A window shorter than the store gap cannot merge; a longer one can.
    assert results[100] == 16
    assert results[2000] < results[500] <= results[100]


def test_single_write_has_lower_first_word_latency(run_once):
    """The flip side: single-write pushes the first word out immediately;
    blocked-write holds it in the merge buffer."""

    def experiment():
        results = {}
        for label, mode in (
            ("single", MappingMode.AUTO_SINGLE),
            ("blocked", MappingMode.AUTO_BLOCKED),
        ):
            system = ShrimpSystem(2, 1)
            system.start()
            a, b = system.nodes
            mapping.establish(a, SRC, b, DST, PAGE_SIZE, mode)
            first = {}
            b.bus.add_snooper(
                lambda t, first=first: first.setdefault("t", t.time)
                if t.kind == "write" and t.addr == DST else None
            )
            asm = Asm("one-store")
            asm.mov(Mem(disp=SRC), 1)
            asm.halt()
            Process(
                system.sim,
                a.cpu.run_to_halt(asm.build(), Context(stack_top=0x3F000)),
                "w",
            ).start()
            system.run()
            results[label] = first["t"]
        return results

    results = run_once(experiment)
    print("\nfirst-word arrival: single %d ns, blocked %d ns"
          % (results["single"], results["blocked"]))
    # The merge window delays a lone blocked-write store.
    assert results["blocked"] > results["single"]
