"""The Network Interface Page Table (NIPT).

"The NIPT has one entry for each page of physical memory on the node, and
contains information about whether, and how, the page is mapped.  Each page
table entry specifies the destination node and physical page number which
is mapped to, and includes various bits to control how data is sent and
received." (paper section 4)

Page-split mappings (section 3.2): any physical page can be split between
two separate outgoing mappings at a configurable offset, which lets the
system accommodate mappings that are not page-aligned.  An entry therefore
holds up to two :class:`OutgoingHalf` records covering disjoint byte ranges
of the page.
"""

from repro.ckpt.protocol import Checkpointable
from repro.memsys.address import PAGE_SIZE, WORD_SIZE


class NiptError(Exception):
    """Raised for invalid NIPT configuration."""


class MappingMode:
    """Transfer strategies for an outgoing mapping (paper sections 2, 4)."""

    AUTO_SINGLE = "auto-single"  # every write becomes a packet immediately
    AUTO_BLOCKED = "auto-blocked"  # consecutive writes merge into one packet
    DELIBERATE = "deliberate"  # data moves only on an explicit send command

    ALL = (AUTO_SINGLE, AUTO_BLOCKED, DELIBERATE)
    AUTOMATIC = (AUTO_SINGLE, AUTO_BLOCKED)


class OutgoingHalf:
    """One outgoing mapping covering ``[src_start, src_end)`` of a page.

    ``dest_addr`` is the destination *physical* byte address corresponding
    to ``src_start``; the NIC computes each packet's destination address as
    ``dest_addr + (offset - src_start)``.
    """

    __slots__ = ("src_start", "src_end", "dest_node", "dest_addr", "mode")

    def __init__(self, src_start, src_end, dest_node, dest_addr, mode):
        if mode not in MappingMode.ALL:
            raise NiptError("unknown mapping mode %r" % (mode,))
        if not (0 <= src_start < src_end <= PAGE_SIZE):
            raise NiptError(
                "bad half range [%d, %d) in a %d-byte page"
                % (src_start, src_end, PAGE_SIZE)
            )
        if src_start % WORD_SIZE or src_end % WORD_SIZE or dest_addr % WORD_SIZE:
            raise NiptError("half boundaries and dest_addr must be word aligned")
        self.src_start = src_start
        self.src_end = src_end
        self.dest_node = dest_node
        self.dest_addr = dest_addr
        self.mode = mode

    def covers(self, offset):
        return self.src_start <= offset < self.src_end

    def dest_addr_for(self, offset):
        if not self.covers(offset):
            raise NiptError("offset %d outside half [%d,%d)" % (
                offset, self.src_start, self.src_end))
        return self.dest_addr + (offset - self.src_start)

    def overlaps(self, other):
        return self.src_start < other.src_end and other.src_start < self.src_end

    def __repr__(self):
        return "OutgoingHalf([%d,%d) -> node%d@%#x, %s)" % (
            self.src_start,
            self.src_end,
            self.dest_node,
            self.dest_addr,
            self.mode,
        )


class NiptEntry:
    """Per-physical-page state held by the network interface.

    ``dsm_resident`` is the DSM resident bit (:mod:`repro.dsm`): set when
    the page holds a granted shared-memory copy, cleared by invalidation
    and recall.  It is the hardware half of the DSM access fast path --
    non-DSM machines never set it, so it costs nothing when DSM is off.
    """

    __slots__ = ("halves", "mapped_in", "interrupt_on_arrival",
                 "dsm_resident")

    MAX_HALVES = 2  # a page can be split between two mappings (section 3.2)

    def __init__(self):
        self.halves = []
        self.mapped_in = False
        self.interrupt_on_arrival = False
        self.dsm_resident = False

    @property
    def mapped_out(self):
        return bool(self.halves)

    def add_half(self, half):
        if len(self.halves) >= self.MAX_HALVES:
            raise NiptError("page already split between two mappings")
        for existing in self.halves:
            if existing.overlaps(half):
                raise NiptError("%r overlaps %r" % (half, existing))
        self.halves.append(half)

    def lookup(self, offset):
        """Mapping half covering byte ``offset``, or None."""
        for half in self.halves:
            if half.covers(offset):
                return half
        return None

    def clear_outgoing(self):
        self.halves = []

    def remove_half(self, half):
        """Remove one specific mapping half (kernel unmap of one mapping
        that shares a split page with another)."""
        try:
            self.halves.remove(half)
        except ValueError:
            raise NiptError("half %r not present" % (half,))

    def set_mode(self, offset, mode):
        """Change the transfer mode of the half covering ``offset``."""
        half = self.lookup(offset)
        if half is None:
            raise NiptError("no outgoing mapping covers offset %d" % offset)
        if mode not in MappingMode.ALL:
            raise NiptError("unknown mapping mode %r" % (mode,))
        half.mode = mode


class Nipt(Checkpointable):
    """The table: one :class:`NiptEntry` per page of local physical memory.

    An entry is built on the first :meth:`entry` call for its page and
    kept in a dict by page number; a page without one reads as a default
    entry (no halves, not mapped in, no interrupt or resident bit).  A
    machine that touches a few pages per node so pays for a few entries,
    not one slot per page.  Enumerations walk the built pages in page
    order, as a scan of the full table would.
    """

    CKPT_SKIP = {"entries": "encoded by ckpt_capture: the entries that "
                            "differ from the default"}

    def __init__(self, dram_pages):
        self._pages = dram_pages
        self.entries = {}  # page -> NiptEntry, built on first use

    def __len__(self):
        return self._pages

    def entry(self, page):
        if not 0 <= page < self._pages:
            raise NiptError("no NIPT entry for page %r" % (page,))
        entry = self.entries.get(page)
        if entry is None:
            entry = self.entries[page] = NiptEntry()
        return entry

    def _built(self):
        """``(page, entry)`` for every built entry, in page order."""
        entries = self.entries
        return [(page, entries[page]) for page in sorted(entries)]

    def map_out(self, page, half):
        self.entry(page).add_half(half)

    def unmap_out(self, page):
        self.entry(page).clear_outgoing()

    def map_in(self, page):
        self.entry(page).mapped_in = True

    def unmap_in(self, page):
        entry = self.entry(page)
        entry.mapped_in = False
        entry.interrupt_on_arrival = False

    def lookup_out(self, page, offset):
        return self.entry(page).lookup(offset)

    def is_mapped_in(self, page):
        return self.entry(page).mapped_in

    def set_dsm_resident(self, page, resident):
        """Set/clear the DSM resident bit (see :mod:`repro.dsm`)."""
        self.entry(page).dsm_resident = bool(resident)

    def is_dsm_resident(self, page):
        return self.entry(page).dsm_resident

    def mapped_out_pages(self):
        return [page for page, entry in self._built() if entry.mapped_out]

    def mapped_in_pages(self):
        return [page for page, entry in self._built() if entry.mapped_in]

    # -- checkpoint protocol (see repro.ckpt) ---------------------------------

    def ckpt_capture(self):
        """Sparse capture: only entries differing from the freshly built
        default (no halves, not mapped in, no interrupt or resident bit).
        The ``dsm_resident`` key is likewise emitted only when set, so
        non-DSM checkpoints are byte-identical to the pre-DSM format."""
        state = super().ckpt_capture()
        pages = state["pages"] = []
        for page, entry in self._built():
            if not (entry.halves or entry.mapped_in
                    or entry.interrupt_on_arrival or entry.dsm_resident):
                continue
            entry_state = {
                "halves": [
                    {
                        "src_start": half.src_start,
                        "src_end": half.src_end,
                        "dest_node": half.dest_node,
                        "dest_addr": half.dest_addr,
                        "mode": half.mode,
                    }
                    for half in entry.halves
                ],
                "mapped_in": entry.mapped_in,
                "interrupt_on_arrival": entry.interrupt_on_arrival,
            }
            if entry.dsm_resident:
                entry_state["dsm_resident"] = True
            pages.append([page, entry_state])
        return state

    def ckpt_restore(self, state):
        super().ckpt_restore(state)
        self.entries = {}
        for page, entry_state in state["pages"]:
            entry = self.entry(page)
            for half_state in entry_state["halves"]:
                entry.add_half(OutgoingHalf(
                    half_state["src_start"],
                    half_state["src_end"],
                    half_state["dest_node"],
                    half_state["dest_addr"],
                    half_state["mode"],
                ))
            entry.mapped_in = entry_state["mapped_in"]
            entry.interrupt_on_arrival = entry_state["interrupt_on_arrival"]
            entry.dsm_resident = entry_state.get("dsm_resident", False)
