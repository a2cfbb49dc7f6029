"""The Pipelined RAM (PRAM) experimental environment (paper section 5.2).

"The implementation environment consists of two i486-based Xpress PCs,
connected via a pair of Pipelined RAM (PRAM) network interfaces.  Each
network interface contains 32 Kbytes of dual-ported SRAM which is mapped
to the SRAM of the other in a manner similar to a complementary SHRIMP
single-write, automatic-update mapping."

The environment "can be viewed as a restricted version of SHRIMP --
application code that works on the implementation environment will run
without change on a real SHRIMP system".  This module enforces exactly
those restrictions on top of the full machine:

- exactly two nodes;
- mappings only inside a 32-KB window (the SRAM aperture);
- only single-write automatic update (no blocked-write, no deliberate
  update -- "the PRAM interface does not support deliberate-update
  transfers");
- every mapping is complementary (bidirectional).

Tests use this to check the paper's portability claim: the same primitive
programs produce the same instruction counts here and on full SHRIMP.
"""

from repro.machine.config import pram_testbed
from repro.machine.system import ShrimpSystem
from repro.machine import mapping as hardware_mapping
from repro.nic.nipt import MappingMode

SRAM_BYTES = 32 * 1024


class PramError(Exception):
    """Raised when a program asks for something the PRAM testbed lacks."""


class PramTestbed:
    """Two i486 PCs joined by complementary PRAM interfaces."""

    def __init__(self, sram_base=0x10000):
        self.system = ShrimpSystem(2, 1, pram_testbed)
        self.system.start()
        self.sram_base = sram_base
        self.node_a, self.node_b = self.system.nodes
        self._mapped = []

    def _check_window(self, addr, nbytes):
        if not (self.sram_base <= addr
                and addr + nbytes <= self.sram_base + SRAM_BYTES):
            raise PramError(
                "range [%#x, +%d) outside the 32KB PRAM SRAM window [%#x, %#x)"
                % (addr, nbytes, self.sram_base, self.sram_base + SRAM_BYTES)
            )

    def map_complementary(self, addr_a, addr_b, nbytes,
                          mode=MappingMode.AUTO_SINGLE):
        """Create the PRAM-style bidirectional mapping between the nodes.

        Only single-write automatic update is accepted: the PRAM board has
        no merge logic and no DMA engine.
        """
        if mode != MappingMode.AUTO_SINGLE:
            raise PramError(
                "the PRAM interface supports only single-write automatic "
                "update (got %r)" % (mode,)
            )
        self._check_window(addr_a, nbytes)
        self._check_window(addr_b, nbytes)
        pair = hardware_mapping.establish_bidirectional(
            self.node_a, addr_a, self.node_b, addr_b, nbytes, mode
        )
        self._mapped.append(pair)
        return pair

    def run(self, max_events=20_000_000):
        self.system.run(max_events=max_events)
