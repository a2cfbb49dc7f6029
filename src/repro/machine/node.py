"""One SHRIMP node: Xpress PC plus network interface (paper figure 2)."""

from repro.ckpt.protocol import PAIRS, PART, Checkpointable
from repro.cpu.core import Cpu
from repro.memsys.address import PhysicalAddressMap, page_number
from repro.memsys.bus import XpressBus, DramDevice
from repro.memsys.cache import Cache, CachePolicy
from repro.memsys.eisa import EisaBus
from repro.memsys.physmem import PhysicalMemory
from repro.nic.interface import NetworkInterface


class BareMmu(Checkpointable):
    """Identity (physical-addressed) MMU with per-page cache policies.

    Used when running the machine without an operating system (hardware
    tests and the hardware benchmarks).  DRAM pages default to write-back;
    the kernel or test sets mapped-out pages to write-through, as the
    ``map`` call does on real SHRIMP (section 3.1).  The command region is
    always uncached.
    """

    CKPT_STATE = (("_policies", PAIRS),)

    def __init__(self, address_map):
        self.address_map = address_map
        self._policies = {}

    def set_policy(self, page, policy):
        self._policies[page] = policy

    def translate(self, vaddr, access):
        if self.address_map.is_command(vaddr):
            return vaddr, CachePolicy.UNCACHED
        return vaddr, self._policies.get(page_number(vaddr), CachePolicy.WRITE_BACK)



class ShrimpNode(Checkpointable):
    """CPU + cache + bus + DRAM + EISA bridge + SHRIMP NIC."""

    CKPT_STATE = (("memory", PART), ("bus", PART), ("cache", PART),
                  ("eisa", PART), ("nic", PART), ("mmu", PART), ("cpu", PART))

    def __init__(self, sim, node_id, backplane, machine_params, name=None):
        self.sim = sim
        self.node_id = node_id
        self.params = machine_params
        self.name = name or ("node%d" % node_id)
        memsys = machine_params.memsys

        self.address_map = PhysicalAddressMap(machine_params.dram_bytes)
        self.memory = PhysicalMemory(machine_params.dram_bytes)
        self.bus = XpressBus(sim, memsys, self.name + ".bus")
        self.bus.attach(
            0,
            machine_params.dram_bytes,
            DramDevice(self.memory, memsys.dram_access_ns),
        )
        self.cache = Cache(sim, self.bus, memsys, self.name + ".cache")
        self.eisa = EisaBus(sim, self.bus, memsys, self.name + ".eisa")
        self.nic = NetworkInterface(
            sim,
            node_id,
            self.bus,
            self.eisa,
            backplane,
            self.address_map,
            machine_params.nic,
            cpu_originator=self.cache.name,
            name=self.name + ".nic",
        )
        self.mmu = BareMmu(self.address_map)
        self.cpu = Cpu(sim, self.cache, self.mmu, memsys, self.name + ".cpu")
        self.nic.attach_cpu(self.cpu)
        self.kernel = None  # installed by repro.os.Kernel

    def start(self):
        self.nic.start()

    def command_addr(self, dram_addr):
        """Command-memory address controlling ``dram_addr`` (section 4.2)."""
        return self.address_map.command_addr_for(dram_addr)

    def backplane_node_of(self, coords):
        """Node id at the given mesh coordinates."""
        return self.nic.backplane.node_at(coords)
