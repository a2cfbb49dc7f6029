"""Named hardware configurations.

Each factory returns a fresh :class:`~repro.memsys.params.MachineParams`
calibrated against the paper's stated numbers:

- :func:`eisa_prototype` -- the system measured in section 5: incoming
  data deposited over the EISA expansion bus (33 MB/s burst peak), giving
  store-to-remote-memory latency just under 2 us and ~33 MB/s peak
  deliberate-update bandwidth.
- :func:`next_generation` -- the projected follow-on that "will bypass the
  EISA bus and drive the Xpress memory bus directly, thus reducing the
  latency to less than 1 us" and "achieving peak bandwidth of about
  70 MB/s" (section 5.1).
- :func:`pram_testbed` -- the restricted two-node environment the software
  overheads were measured on: i486 PCs joined by Pipelined RAM interfaces
  supporting only single-write automatic-update style mappings.
"""

from repro.memsys.params import MachineParams


def eisa_prototype():
    """The EISA-based prototype measured in the paper."""
    return MachineParams()


def next_generation():
    """The projected Xpress-bus-mastering interface (section 5.1)."""
    params = MachineParams()
    params.nic.incoming_via_eisa = False
    # The second-generation interface also trims the board-level pipeline.
    params.nic.snoop_ns = 40
    params.nic.packetize_ns = 50
    return params


def pram_testbed():
    """The two-node i486 + Pipelined RAM measurement environment.

    The PRAM interface supports only automatic-update-style mappings ("the
    PRAM interface does not support deliberate-update transfers", section
    5.2); software written against it runs unchanged on SHRIMP.  The i486
    clock is slower than the Pentium's.
    """
    params = MachineParams()
    params.memsys.cpu_clock_ns = 30  # 33 MHz i486
    params.dram_bytes = 1024 * 1024
    return params


def datacenter():
    """A scaled-out deployment: the next-generation interface on every
    node, for 32x32-node machines.

    Per-node DRAM is 1 MB (256 pages) and the cache is halved.  The size
    is no longer about host cost -- DRAM, NIPT entries and cache ways
    cost host memory only once the simulation touches them -- but 1 MB
    is kept because ``DsmLayout`` and the arena placement of the
    datacenter traffic generator (``repro.workload``) are derived from
    ``dram_bytes``: a Zipf-hot home node can terminate a couple hundred
    channels, each costing half a page of map-out budget.  Changing the
    size therefore moves addresses and is a model change.  Per-node
    timing is identical to :func:`next_generation`.
    """
    params = next_generation()
    params.dram_bytes = 1024 * 1024
    params.memsys.cache_sets = 64
    return params


CONFIGS = {
    "eisa-prototype": eisa_prototype,
    "next-generation": next_generation,
    "pram-testbed": pram_testbed,
    "datacenter": datacenter,
}
