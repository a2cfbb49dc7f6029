"""DSM memory layout and DRAM-resident state codecs.

Everything the protocol must remember across a node crash lives in node
DRAM, laid out identically on every node so a :class:`~repro.ckpt.system.
NodeCheckpoint` rolls it back for free and the per-node memory digests in
a run fingerprint cover it:

- **frames** -- every node reserves one frame per *global* shared page at
  the same local address (``frame_addr(g) = dsm_base + g * PAGE_SIZE``).
  A node's frame for page ``g`` holds its cached copy; the home node's
  frame doubles as the memory copy.  The identity layout means a data
  transfer is a page-sized deliberate-update DMA between equal addresses,
  with no translation table to keep coherent.
- **page-state table** -- one word per global page
  (:data:`INVALID`/:data:`READ`/:data:`WRITE`/:data:`FETCHING`): this
  node's rights to the page.  The software half of the access fast path
  (the hardware half is the NIPT ``dsm_resident`` bit).
- **directory** -- at the home node only (but allocated uniformly): the
  current writer (``owner``) and a bitmap of read-copy holders per page.
  Homes are assigned by the machine-wide :class:`~repro.machine.addrmap.
  AddrMap`, one tile per page.

The layout is a pure function of ``(node_count, pages_per_node,
dram_bytes)``, so the same machine always gets bit-identical placement.
"""

from repro.machine.addrmap import make_addr_map
from repro.memsys.address import PAGE_SIZE, WORD_SIZE, page_number

#: Page-state values, ordered so that ``pstate >= READ`` means readable
#: and ``pstate >= WRITE`` means writable.  FETCHING sorts *below* READ:
#: it is not an access right, just a marker that a grant (and its data
#: deposit) is in flight, which the write guard must admit deposits for.
INVALID = 0
FETCHING = 1
READ = 2
WRITE = 3

#: Directory owner word encoding: 0 means "no writer", else node id + 1.
NO_OWNER = 0

#: Words reserved per node for application scratch (restart counters of
#: crash-restartable apps -- see repro.workload.dsm_apps).
SCRATCH_WORDS = 16


class DsmError(Exception):
    """Raised for invalid DSM configuration or protocol violations."""


class DsmLayout:
    """Where DSM state lives in every node's DRAM.

    The region sits at the top of DRAM: frames highest, metadata (page
    states, directory, scratch) just below, leaving ``[0, meta_base)``
    for programs and channel arenas.
    """

    def __init__(self, node_count, pages_per_node, dram_bytes,
                 addr_map="blocked"):
        if node_count < 1 or pages_per_node < 1:
            raise DsmError("need at least one node and one page per node")
        self.node_count = node_count
        self.pages_per_node = pages_per_node
        self.npages = node_count * pages_per_node
        self.space_bytes = self.npages * PAGE_SIZE
        self.addr_map_kind = addr_map
        self.addr_map = make_addr_map(addr_map, node_count,
                                      log2_tile_size=12,
                                      tiles_per_node=pages_per_node)
        self.readers_words = (node_count + 31) // 32
        # Per page: owner word, readers bitmap, last-grant record (packed
        # node/write word + token word -- the duplicate-request filter).
        self.dir_stride = WORD_SIZE * (1 + self.readers_words + 2)

        self.dsm_base = (dram_bytes - self.space_bytes) // PAGE_SIZE * PAGE_SIZE
        meta_bytes = (
            self.npages * WORD_SIZE            # page-state table
            + self.npages * self.dir_stride    # directory
            + SCRATCH_WORDS * WORD_SIZE        # app scratch
        )
        meta_pages = -(-meta_bytes // PAGE_SIZE)
        self.meta_base = self.dsm_base - meta_pages * PAGE_SIZE
        if self.meta_base < PAGE_SIZE:
            raise DsmError(
                "DSM region (%d pages + %d metadata pages) does not fit in "
                "%d bytes of DRAM" % (self.npages, meta_pages, dram_bytes)
            )
        self.pstate_base = self.meta_base
        self.dir_base = self.pstate_base + self.npages * WORD_SIZE
        self.scratch_base = self.dir_base + self.npages * self.dir_stride

    # -- address arithmetic ----------------------------------------------------

    def check_page(self, page):
        if not 0 <= page < self.npages:
            raise DsmError("no shared page %r among %d" % (page, self.npages))
        return page

    def frame_addr(self, page):
        """Local frame address of global page ``page`` (same on all nodes)."""
        return self.dsm_base + self.check_page(page) * PAGE_SIZE

    def frame_page(self, page):
        """Local physical page number of the frame for ``page``."""
        return page_number(self.frame_addr(page))

    def page_of(self, gaddr):
        """Global page index of a global DSM byte address."""
        if not 0 <= gaddr < self.space_bytes:
            raise DsmError(
                "address %#x outside the %d-byte shared space"
                % (gaddr, self.space_bytes)
            )
        return gaddr // PAGE_SIZE

    def home_of(self, page):
        """Home node of a global page (the AddrMap placement decision)."""
        return self.addr_map.node_of(self.check_page(page) * PAGE_SIZE)

    def pstate_addr(self, page):
        return self.pstate_base + self.check_page(page) * WORD_SIZE

    def dir_addr(self, page):
        return self.dir_base + self.check_page(page) * self.dir_stride

    def scratch_addr(self, index):
        if not 0 <= index < SCRATCH_WORDS:
            raise DsmError("no scratch word %r" % (index,))
        return self.scratch_base + index * WORD_SIZE

    def contains_frame(self, addr):
        """True when ``addr`` falls inside the frame region."""
        return self.dsm_base <= addr < self.dsm_base + self.space_bytes


class PageStateTable:
    """This node's page-state words, read/written functionally.

    Functional (zero-time) DRAM access is the established driver idiom
    (the reliable channel's receiver state works the same way): the state
    stays in the checkpoint and the fingerprint, while access *timing* is
    charged where it matters -- on the data path.
    """

    def __init__(self, layout, node):
        self.layout = layout
        self.memory = node.memory

    def get(self, page):
        return self.memory.read_word(self.layout.pstate_addr(page))

    def set(self, page, state):
        self.memory.write_word(self.layout.pstate_addr(page), state)


class Directory:
    """The home node's per-page directory: writer + readers bitmap."""

    def __init__(self, layout, node):
        self.layout = layout
        self.memory = node.memory

    def owner(self, page):
        raw = self.memory.read_word(self.layout.dir_addr(page))
        return None if raw == NO_OWNER else raw - 1

    def set_owner(self, page, node_id):
        raw = NO_OWNER if node_id is None else node_id + 1
        self.memory.write_word(self.layout.dir_addr(page), raw)

    def readers(self, page):
        """Sorted reader node ids -- the deterministic walk order the
        section 4.4 invalidation pass relies on."""
        base = self.layout.dir_addr(page) + WORD_SIZE
        found = []
        for word_index in range(self.layout.readers_words):
            word = self.memory.read_word(base + word_index * WORD_SIZE)
            bit = 0
            while word:
                if word & 1:
                    found.append(word_index * 32 + bit)
                word >>= 1
                bit += 1
        return found

    def add_reader(self, page, node_id):
        addr = (self.layout.dir_addr(page) + WORD_SIZE
                + (node_id // 32) * WORD_SIZE)
        word = self.memory.read_word(addr)
        self.memory.write_word(addr, word | (1 << (node_id % 32)))

    def discard_reader(self, page, node_id):
        addr = (self.layout.dir_addr(page) + WORD_SIZE
                + (node_id // 32) * WORD_SIZE)
        word = self.memory.read_word(addr)
        self.memory.write_word(addr, word & ~(1 << (node_id % 32)))

    def is_reader(self, page, node_id):
        addr = (self.layout.dir_addr(page) + WORD_SIZE
                + (node_id // 32) * WORD_SIZE)
        return bool(self.memory.read_word(addr) & (1 << (node_id % 32)))

    def clear_readers(self, page):
        base = self.layout.dir_addr(page) + WORD_SIZE
        for word_index in range(self.layout.readers_words):
            self.memory.write_word(base + word_index * WORD_SIZE, 0)

    # -- last-grant record -----------------------------------------------------
    #
    # The (requester, write, token) of the newest grant issued for the
    # page.  Tokens are monotonic per node, so this identifies one
    # request *instance*: a request matching the record exactly is a
    # duplicate delivery of an already-granted fault (an app-level retry
    # that raced the grant), not a new fault -- re-granting it would
    # re-push the home's copy over everything the owner wrote since.
    # Lives in DRAM so a home crash rolls it back with the directory.

    def _grant_addr(self, page):
        return (self.layout.dir_addr(page)
                + WORD_SIZE * (1 + self.layout.readers_words))

    def last_grant(self, page):
        """(node_id, write, token) of the newest grant, or None."""
        base = self._grant_addr(page)
        raw = self.memory.read_word(base)
        if raw == 0:
            return None
        token = self.memory.read_word(base + WORD_SIZE)
        return ((raw >> 1) - 1, bool(raw & 1), token)

    def set_last_grant(self, page, node_id, write, token):
        base = self._grant_addr(page)
        self.memory.write_word(base, ((node_id + 1) << 1) | int(write))
        self.memory.write_word(base + WORD_SIZE, token)

    def clear_last_grant(self, page):
        """Erase the record: after a directory rebuild finds no claimant
        for a page, no request instance can be a duplicate of a grant
        that no longer has a holder."""
        base = self._grant_addr(page)
        self.memory.write_word(base, 0)
        self.memory.write_word(base + WORD_SIZE, 0)
