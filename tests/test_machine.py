"""Tests for machine assembly: configs, nodes, system, hardware mappings."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.machine import (
    CONFIGS,
    Cluster,
    ShrimpSystem,
    eisa_prototype,
    next_generation,
    pram_testbed,
)
from repro.machine.mapping import establish, establish_bidirectional, tear_down
from repro.memsys.address import AddressError, PAGE_SIZE
from repro.nic.nipt import MappingMode, NiptError


class TestConfigs:
    def test_presets_registered(self):
        assert set(CONFIGS) == {
            "eisa-prototype", "next-generation", "pram-testbed", "datacenter"
        }

    def test_datacenter_scales_down_per_node_footprint(self):
        from repro.machine.config import datacenter

        params = datacenter()
        assert params.dram_bytes == 1024 * 1024
        assert not params.nic.incoming_via_eisa  # next-generation timing

    def test_factories_return_fresh_objects(self):
        a, b = eisa_prototype(), eisa_prototype()
        a.nic.snoop_ns = 999
        assert b.nic.snoop_ns != 999

    def test_next_gen_bypasses_eisa(self):
        assert eisa_prototype().nic.incoming_via_eisa
        assert not next_generation().nic.incoming_via_eisa

    def test_pram_testbed_is_i486(self):
        params = pram_testbed()
        assert params.memsys.cpu_clock_ns > eisa_prototype().memsys.cpu_clock_ns


class TestShrimpSystem:
    def test_node_count_and_ids(self):
        system = ShrimpSystem(4, 2)
        assert system.node_count == 8
        assert [n.node_id for n in system.nodes] == list(range(8))

    def test_start_is_idempotent(self):
        system = ShrimpSystem(2, 1)
        system.start()
        system.start()

    def test_command_addr_helper(self):
        system = ShrimpSystem(2, 1)
        node = system.nodes[0]
        cmd = node.command_addr(0x1000)
        assert node.address_map.is_command(cmd)
        assert node.address_map.dram_addr_for(cmd) == 0x1000

    def test_nodes_have_disjoint_state(self):
        system = ShrimpSystem(2, 1)
        a, b = system.nodes
        a.memory.write_word(0x100, 7)
        assert b.memory.read_word(0x100) == 0


class TestHardwareMapping:
    def _system(self):
        system = ShrimpSystem(2, 1)
        system.start()
        return system

    def test_establish_validates_alignment(self):
        system = self._system()
        a, b = system.nodes
        with pytest.raises(AddressError):
            establish(a, 0x10002, b, 0x20000, 64, MappingMode.AUTO_SINGLE)
        with pytest.raises(AddressError):
            establish(a, 0x10000, b, 0x20000, 0, MappingMode.AUTO_SINGLE)
        with pytest.raises(ValueError):
            establish(a, 0x10000, b, 0x20000, 64, "wrong-mode")

    def test_tear_down_clears_both_sides(self):
        system = self._system()
        a, b = system.nodes
        m = establish(a, 0x10000, b, 0x20000, 2 * PAGE_SIZE,
                      MappingMode.AUTO_SINGLE)
        assert a.nic.nipt.mapped_out_pages() == [16, 17]
        assert b.nic.nipt.mapped_in_pages() == [32, 33]
        tear_down(m)
        assert a.nic.nipt.mapped_out_pages() == []
        assert b.nic.nipt.mapped_in_pages() == []

    def test_bidirectional_creates_both_directions(self):
        system = self._system()
        a, b = system.nodes
        establish_bidirectional(a, 0x10000, b, 0x10000, PAGE_SIZE,
                                MappingMode.AUTO_SINGLE)
        assert a.nic.nipt.entry(16).mapped_out
        assert a.nic.nipt.is_mapped_in(16)
        assert b.nic.nipt.entry(16).mapped_out
        assert b.nic.nipt.is_mapped_in(16)

    def test_third_mapping_on_one_page_rejected(self):
        """The hardware limit surfaces through the helper too."""
        system = ShrimpSystem(4, 1)
        system.start()
        a, b, c, d = system.nodes
        establish(a, 0x10000, b, 0x20000, 1024, MappingMode.AUTO_SINGLE)
        establish(a, 0x10400, c, 0x20000, 1024, MappingMode.AUTO_SINGLE)
        with pytest.raises(NiptError):
            establish(a, 0x10800, d, 0x20000, 1024, MappingMode.AUTO_SINGLE)


class TestCluster:
    def test_boot_and_spawn(self):
        from repro.cpu import Asm
        from repro.os.syscalls import Syscall

        cluster = Cluster(2, 1)
        asm = Asm("p")
        asm.syscall(Syscall.EXIT)
        process = cluster.spawn(0, "p", asm.build())
        cluster.start()
        cluster.run()
        assert process.state == "finished"

    def test_kernels_installed_on_nodes(self):
        cluster = Cluster(2, 1)
        for node, kernel in zip(cluster.nodes, cluster.kernels):
            assert node.kernel is kernel
            assert node.cpu.syscall_handler is not None
            assert node.cpu.fault_handler is not None

    def test_start_idempotent(self):
        cluster = Cluster(2, 1)
        cluster.start()
        cluster.start()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the Linux peak-RSS counter VmHWM")
def test_untouched_node_state_costs_no_host_memory():
    """Building and starting 256 nodes of the default 4 MB DRAM (1 GiB
    if every page were resident) stays far below that peak: DRAM, NIPT
    entries and cache ways cost host memory only once touched.

    Measured in a subprocess so this process's own peak cannot mask the
    result.  The child reads VmHWM, its own address space's peak, rather
    than ``ru_maxrss``: Linux carries the forking process's RSS over the
    exec into ``ru_maxrss``, so a child of a large pytest process would
    report the parent's size."""
    repo = Path(__file__).resolve().parent.parent
    script = (
        "from repro.machine import ShrimpSystem\n"
        "ShrimpSystem(16, 16).start()\n"
        "print(open('/proc/self/status').read())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    (line,) = [line for line in result.stdout.splitlines()
               if line.startswith("VmHWM:")]
    peak_mib = int(line.split()[1]) / 1024  # reported in kB
    assert peak_mib < 256, "peak RSS %.0f MiB" % peak_mib
