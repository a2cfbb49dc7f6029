"""Per-node memory arenas for packed channel layouts.

A classic :class:`~repro.msg.reliable.ReliableChannel` layout spends
three pages a side, which caps a 128-page datacenter node at a handful of
peers.  The NIPT imposes exactly one scarce resource: a physical page
carries at most :data:`~repro.nic.nipt.NiptEntry.MAX_HALVES` (two)
outgoing mapping halves (paper section 3.2).  Everything else -- the
mapped-in bit, receiver state, application buffers -- packs at word
granularity.

So the arena runs two bump allocators over one node's DRAM:

- **map-out** regions (sender rings, ack source words) grow upward from
  the arena base, two allocations per page, each confined to one page so
  it costs exactly one half;
- **packed** regions (receive rings, ack landing words, receiver state,
  application buffers) grow downward from the arena limit at word
  granularity.

The allocators fail loudly (:class:`ArenaError`) when they meet: channel
construction never silently overlaps regions.  :class:`ChannelArenas`
carves whole channel layouts from one arena per node.
"""

from repro.memsys.address import PAGE_SIZE
from repro.msg.reliable import ChannelLayout
from repro.nic.nipt import NiptEntry


class ArenaError(Exception):
    """Raised when a node's arena cannot satisfy an allocation."""


def _word_align(nbytes):
    return (nbytes + 3) & ~3


class NodeArena:
    """Carves one node's DRAM range ``[base, limit)`` into channel regions."""

    def __init__(self, node_id, base, limit):
        if base % PAGE_SIZE:
            raise ArenaError("arena base %#x is not page aligned" % base)
        if limit <= base:
            raise ArenaError(
                "arena [%#x, %#x) for node %d is empty" % (base, limit, node_id)
            )
        self.node_id = node_id
        self.base = base
        self.limit = limit
        self._mapout_next_page = base
        self._mapout_cursor = None  # next free byte in the current page
        self._mapout_halves = 0  # halves used in the current page
        self._packed_cursor = limit

    def _check_collision(self):
        low = (self._mapout_cursor
               if self._mapout_cursor is not None else self._mapout_next_page)
        if low > self._packed_cursor:
            raise ArenaError(
                "node %d arena exhausted: map-out regions reach %#x, packed "
                "regions reach down to %#x -- too many channel peers for "
                "%d bytes of DRAM"
                % (self.node_id, low, self._packed_cursor,
                   self.limit - self.base)
            )

    def alloc_mapout(self, nbytes):
        """A region that will be established as one outgoing half.

        Confined to a single page; at most ``NiptEntry.MAX_HALVES``
        allocations share a page.
        """
        nbytes = _word_align(nbytes)
        if not 0 < nbytes <= PAGE_SIZE:
            raise ArenaError("map-out region of %d bytes" % nbytes)
        fits_current = (
            self._mapout_cursor is not None
            and self._mapout_halves < NiptEntry.MAX_HALVES
            and self._mapout_cursor + nbytes
            <= self._mapout_next_page  # current page's end
        )
        if not fits_current:
            addr = self._mapout_next_page
            self._mapout_next_page = addr + PAGE_SIZE
            self._mapout_cursor = addr + nbytes
            self._mapout_halves = 1
        else:
            addr = self._mapout_cursor
            self._mapout_cursor = addr + nbytes
            self._mapout_halves += 1
        self._check_collision()
        return addr

    def alloc_packed(self, nbytes):
        """A word-aligned region with no outgoing-half cost (mapped-in
        targets, receiver state, application buffers)."""
        nbytes = _word_align(nbytes)
        if nbytes <= 0:
            raise ArenaError("packed region of %d bytes" % nbytes)
        self._packed_cursor -= nbytes
        addr = self._packed_cursor
        self._check_collision()
        return addr

    def __repr__(self):
        return "NodeArena(node=%d, mapout=%#x, packed=%#x)" % (
            self.node_id, self._mapout_next_page, self._packed_cursor,
        )


class ChannelArenas:
    """Packed channel layouts over one :class:`NodeArena` per node,
    each spanning ``[base, limit)`` and built on the node's first use."""

    def __init__(self, base, limit):
        self.base = base
        self.limit = limit
        self._arenas = {}

    def _arena(self, node_id):
        arena = self._arenas.get(node_id)
        if arena is None:
            arena = NodeArena(node_id, self.base, self.limit)
            self._arenas[node_id] = arena
        return arena

    def layout(self, src, dst, window_slots, payload_words, wrap_words):
        """The layout of one ``src -> dst`` channel with a ``wrap_words``
        application buffer, its six regions allocated in a fixed order."""
        # The channel's frame ring: head, nwords, payload, tail per slot.
        ring_bytes = window_slots * (payload_words + 3) * 4
        src_arena = self._arena(src)
        dst_arena = self._arena(dst)
        return ChannelLayout(
            src_ring=src_arena.alloc_mapout(ring_bytes),
            ack_dest_addr=src_arena.alloc_packed(4),
            dest_ring=dst_arena.alloc_packed(ring_bytes),
            ack_src_addr=dst_arena.alloc_mapout(4),
            state_addr=dst_arena.alloc_packed(8),
            app_base=dst_arena.alloc_packed(4 * wrap_words),
            app_wrap_words=wrap_words,
        )
