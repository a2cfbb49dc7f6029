"""Tests for the per-packet latency collector."""

from repro.analysis.packets import PacketStats
from repro.cpu import Asm, Context, Mem
from repro.machine import ShrimpSystem, mapping
from repro.memsys.address import PAGE_SIZE
from repro.nic.nipt import MappingMode
from repro.sim import Process

SRC, DST = 0x10000, 0x20000


def run_stores(count):
    system = ShrimpSystem(2, 1)
    system.start()
    a, b = system.nodes
    mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
    stats = PacketStats(system)
    asm = Asm("w")
    for i in range(count):
        asm.mov(Mem(disp=SRC + 4 * i), i + 1)
    asm.halt()
    Process(
        system.sim,
        a.cpu.run_to_halt(asm.build(), Context(stack_top=0x3F000)),
        "w",
    ).start()
    system.run()
    return stats


def test_counts_every_delivered_packet():
    stats = run_stores(10)
    assert stats.count == 10


def test_latencies_positive_and_bounded():
    stats = run_stores(5)
    assert all(0 < latency < 50_000 for latency in stats.latencies_ns)


def test_statistics_consistent():
    stats = run_stores(8)
    assert stats.percentile(100) == stats.maximum()
    assert stats.percentile(1) <= stats.mean() <= stats.maximum()


def test_histogram_covers_all_samples():
    stats = run_stores(12)
    total = sum(count for _lo, count in stats.histogram(bucket_ns=1000))
    assert total == stats.count


def test_empty_stats():
    system = ShrimpSystem(2, 1)
    system.start()
    stats = PacketStats(system)
    assert stats.count == 0
    assert stats.mean() is None
    assert stats.percentile(50) is None
    assert stats.maximum() is None
    assert stats.histogram() == []


def test_chains_existing_hooks():
    system = ShrimpSystem(2, 1)
    system.start()
    a, b = system.nodes
    mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
    seen = []
    b.nic.stage_hook = lambda stage, packet, now: seen.append(stage)
    stats = PacketStats(system)
    asm = Asm("w")
    asm.mov(Mem(disp=SRC), 1)
    asm.halt()
    Process(
        system.sim,
        a.cpu.run_to_halt(asm.build(), Context(stack_top=0x3F000)),
        "w",
    ).start()
    system.run()
    assert stats.count == 1
    assert "delivered" in seen  # the pre-existing hook still fires
