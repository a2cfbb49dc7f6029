"""Application view of the shared space: word load/store generators.

A :class:`DsmSegment` is one node's window onto the global DSM space
(``[0, layout.space_bytes)`` of word-addressable shared memory).  Loads
and stores are generators: the **fast path** checks the NIPT resident
bit plus the page-state word and charges one DRAM access; the **slow
path** runs the fetch-on-fault protocol (:meth:`DsmRuntime.fault`)
first.  Data lives in the node's local frame for the page, so a hit
never crosses the mesh.

Accesses are modeled functionally against DRAM with explicit timing
(the receiver-driver idiom from :mod:`repro.msg.reliable`): the grant
deposit DMA writes DRAM, and a cache model between the app and the
frame would need the section 4.4 walk to also shoot down cache lines --
a modeling shortcut documented in docs/dsm.md.

``peek``/``poke`` are the *sanctioned* zero-time escape hatch for tests
and verification harnesses; any other direct DRAM write into a DSM
frame by a node without rights on the page trips the runtime's DRAM
write guard (:class:`~repro.dsm.state.DsmError`).
"""

from repro.dsm.runtime import ACCESS_NS
from repro.dsm.state import READ, WRITE, DsmError
from repro.memsys.address import PAGE_SIZE, WORD_SIZE


class DsmSegment:
    """One node's handle on the shared space."""

    def __init__(self, runtime, node_id):
        self.runtime = runtime
        self.layout = runtime.layout
        self.node_id = node_id
        self.node = runtime.system.nodes[node_id]
        self._pstates = runtime._pstates[node_id]

    def _local_addr(self, gaddr):
        if gaddr % WORD_SIZE:
            raise DsmError("DSM access %#x is not word aligned" % gaddr)
        page = self.layout.page_of(gaddr)
        return page, self.layout.frame_addr(page) + (gaddr - page * PAGE_SIZE)

    def _resident(self, page, want):
        # The hardware half (NIPT resident bit) gates the software half
        # (page-state word): both are per-node local state.
        return (self.node.nic.nipt.is_dsm_resident(self.layout.frame_page(page))
                and self._pstates.get(page) >= want)

    def load_word(self, gaddr):
        """Generator: read one shared word; returns the value."""
        page, addr = self._local_addr(gaddr)
        if not self._resident(page, READ):
            yield from self.runtime.fault(self.node_id, page, write=False)
        yield ACCESS_NS
        return self.node.memory.read_word(addr)

    def store_word(self, gaddr, value):
        """Generator: write one shared word (upgrades to exclusive)."""
        page, addr = self._local_addr(gaddr)
        if not self._resident(page, WRITE):
            yield from self.runtime.fault(self.node_id, page, write=True)
        yield ACCESS_NS
        self.node.memory.write_word(addr, value)

    # -- test/verification access (zero simulated time) -----------------------

    def peek(self, gaddr):
        """The authoritative value of a shared word: the copy held by the
        current owner if any, else the home's memory copy."""
        page = self.layout.page_of(gaddr)
        home = self.layout.home_of(page)
        owner = self.runtime._dirs[home].owner(page)
        holder = home if owner is None else owner
        node = self.runtime.system.nodes[holder]
        return node.memory.read_word(
            self.layout.frame_addr(page) + (gaddr - page * PAGE_SIZE))

    def poke(self, gaddr, value):
        """Test setup: write the home's memory copy directly.  Only safe
        before any node has fetched the page."""
        page = self.layout.page_of(gaddr)
        home = self.layout.home_of(page)
        node = self.runtime.system.nodes[home]
        node.memory.write_word(
            self.layout.frame_addr(page) + (gaddr - page * PAGE_SIZE), value)
