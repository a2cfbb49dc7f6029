"""Timing parameters for the node memory system and NIC datapath.

All times are integer nanoseconds.  The defaults model the EISA-based
prototype described in the paper; :mod:`repro.machine.config` provides the
named presets (EISA prototype, next-generation Xpress-mastering interface,
and the two-node PRAM testbed).

Calibration targets from the paper (section 5.1):

- automatic-update store-to-remote-memory latency just under 2 us on the
  EISA prototype, under 1 us next-gen;
- peak deliberate-update bandwidth 33 MB/s on the prototype (EISA burst
  limit), about 70 MB/s next-gen.
"""

from dataclasses import dataclass, field


@dataclass
class MemsysParams:
    """Knobs for buses, memory and caches of one node."""

    # CPU
    cpu_clock_ns: int = 15  # 66 MHz Pentium
    # Xpress memory bus
    bus_arbitration_ns: int = 30
    bus_word_ns: int = 30  # ~133 MB/s, comfortably > 2x EISA
    # DRAM
    dram_access_ns: int = 60
    # Cache
    cache_hit_ns: int = 15
    cache_line_bytes: int = 32
    cache_sets: int = 128
    cache_assoc: int = 2
    # EISA expansion bus (incoming DMA path of the prototype NIC)
    eisa_setup_ns: int = 400
    eisa_word_ns: int = 121  # 4 bytes / 121 ns ~= 33 MB/s burst

    def eisa_bandwidth_mbps(self):
        """Peak EISA burst bandwidth in MB/s implied by the word time."""
        return 4.0 / self.eisa_word_ns * 1000.0


@dataclass
class NicParams:
    """Knobs for the SHRIMP network interface."""

    snoop_ns: int = 50  # snoop + NIPT lookup
    packetize_ns: int = 60  # header build + CRC
    fifo_stage_ns: int = 40  # through either FIFO
    outgoing_fifo_bytes: int = 4096
    incoming_fifo_bytes: int = 4096
    # Programmable thresholds (paper section 4, flow control).  Expressed in
    # bytes of occupancy; reaching the threshold triggers the action.
    outgoing_interrupt_threshold: int = 3584
    incoming_stop_threshold: int = 3584
    # Deliberate-update DMA engine: per-word source read cost.  On the
    # prototype this is overlapped with the (slower) receive EISA bus, so
    # the receiver is the bottleneck; next-gen it becomes the bottleneck at
    # about 70 MB/s.
    dma_setup_ns: int = 200
    dma_word_ns: int = 57  # ~70 MB/s source-side ceiling
    # Blocked-write automatic update: merge window (paper: writes merge if
    # consecutive, same page, and within a programmable time limit).
    blocked_write_window_ns: int = 500
    max_payload_words: int = 64  # largest payload in one network packet
    # Incoming path on the prototype deposits via EISA (MemsysParams); the
    # next-gen interface masters the Xpress bus directly.
    incoming_via_eisa: bool = True
    incoming_setup_ns: int = 100  # used when incoming_via_eisa is False
    incoming_word_ns: int = 30  # used when incoming_via_eisa is False


@dataclass
class MeshParams:
    """Knobs for the Paragon-style routing backplane."""

    flit_bytes: int = 2  # iMRC-style 16-bit phits
    link_flit_ns: int = 10  # ~200 MB/s per link
    router_hop_ns: int = 40  # head-flit routing decision latency
    input_buffer_flits: int = 16


@dataclass
class MachineParams:
    """Everything configurable about a SHRIMP machine in one object."""

    memsys: MemsysParams = field(default_factory=MemsysParams)
    nic: NicParams = field(default_factory=NicParams)
    mesh: MeshParams = field(default_factory=MeshParams)
    # 4 MB/node = 1024 pages, one NIPT entry each; host memory is
    # committed only for the pages and entries a run touches.
    dram_bytes: int = 4 * 1024 * 1024
