"""Virtual memory: page tables and mapping-plan computation.

Page-table entries carry the per-page caching policy ("memory can be
cached as write-through or write-back on a per-virtual-page basis, as
specified in process page tables" -- paper section 3), which is how the
``map`` call forces mapped-out pages to write-through.

:func:`plan_mapping` converts a byte-granularity mapping request into NIPT
halves: each source page gets at most two halves (the section 3.2 split),
because a word-aligned source page overlaps at most two destination pages
when offsets differ.
"""

from repro.memsys.address import (
    PAGE_SIZE,
    WORD_SIZE,
    page_number,
    page_offset,
)
from repro.cpu.core import PageFault
from repro.memsys.cache import CachePolicy
from repro.nic.nipt import OutgoingHalf


class VmError(Exception):
    """Raised for invalid virtual-memory operations."""


class Pte:
    """One page-table entry."""

    __slots__ = ("ppage", "policy", "writable", "present", "pinned")

    def __init__(self, ppage, policy=CachePolicy.WRITE_BACK, writable=True):
        self.ppage = ppage
        self.policy = policy
        self.writable = writable
        self.present = True
        self.pinned = False


class PageTable:
    """A process's virtual address space.

    Implements the MMU protocol the CPU expects (:meth:`translate`), so
    the scheduler installs a process simply by assigning
    ``cpu.mmu = process.page_table``.
    """

    def __init__(self, name="pt"):
        self.name = name
        self._entries = {}

    def map_page(self, vpage, ppage, policy=CachePolicy.WRITE_BACK,
                 writable=True):
        if vpage in self._entries:
            raise VmError("%s: vpage %d already mapped" % (self.name, vpage))
        self._entries[vpage] = Pte(ppage, policy, writable)

    def unmap_page(self, vpage):
        if vpage not in self._entries:
            raise VmError("%s: vpage %d not mapped" % (self.name, vpage))
        del self._entries[vpage]

    def entry(self, vpage):
        return self._entries.get(vpage)

    def set_policy(self, vpage, policy):
        pte = self._require(vpage)
        pte.policy = policy

    def set_writable(self, vpage, writable):
        pte = self._require(vpage)
        pte.writable = writable

    def set_present(self, vpage, present):
        pte = self._require(vpage)
        pte.present = present

    def _require(self, vpage):
        pte = self._entries.get(vpage)
        if pte is None:
            raise VmError("%s: vpage %d not mapped" % (self.name, vpage))
        return pte

    def mapped_vpages(self):
        return sorted(self._entries)

    # -- the MMU protocol ------------------------------------------------------

    def translate(self, vaddr, access):
        vpage = page_number(vaddr)
        pte = self._entries.get(vpage)
        if pte is None:
            raise PageFault(vaddr, access, "not-present")
        if not pte.present:
            raise PageFault(vaddr, access, "not-present")
        if access == "write" and not pte.writable:
            raise PageFault(vaddr, access, "write-protected")
        return pte.ppage * PAGE_SIZE + page_offset(vaddr), pte.policy

    def translate_nofault(self, vaddr):
        """Kernel-internal translation; returns None instead of faulting."""
        pte = self._entries.get(page_number(vaddr))
        if pte is None or not pte.present:
            return None
        return pte.ppage * PAGE_SIZE + page_offset(vaddr)


def plan_mapping(src_addr, nbytes, dest_frames, dest_first_offset,
                 dest_node_id, mode):
    """Compute the NIPT halves implementing one mapping.

    ``src_addr`` is the source *physical* byte address; ``dest_frames`` is
    the list of destination physical page base addresses covering the
    destination range in order; ``dest_first_offset`` is the byte offset
    of the mapping's start within the first destination page.

    Returns a list of ``(src_page, OutgoingHalf)`` pairs.  Each run is
    maximal subject to staying inside one source page *and* one
    destination page, so a source page yields at most two halves whenever
    source and destination offsets agree modulo word size -- the paper's
    section 3.2 split is exactly sufficient.
    """
    if nbytes <= 0 or nbytes % WORD_SIZE:
        raise VmError("mapping size must be a positive word multiple")
    if src_addr % WORD_SIZE or dest_first_offset % WORD_SIZE:
        raise VmError("mapping addresses must be word aligned")
    expected_frames = (dest_first_offset + nbytes + PAGE_SIZE - 1) // PAGE_SIZE
    if len(dest_frames) != expected_frames:
        raise VmError(
            "need %d destination frames, got %d"
            % (expected_frames, len(dest_frames))
        )
    halves = []
    consumed = 0
    while consumed < nbytes:
        src_cursor = src_addr + consumed
        dest_linear = dest_first_offset + consumed
        frame_index = dest_linear // PAGE_SIZE
        dest_offset = dest_linear % PAGE_SIZE
        src_room = PAGE_SIZE - page_offset(src_cursor)
        dest_room = PAGE_SIZE - dest_offset
        take = min(src_room, dest_room, nbytes - consumed)
        half = OutgoingHalf(
            src_start=page_offset(src_cursor),
            src_end=page_offset(src_cursor) + take,
            dest_node=dest_node_id,
            dest_addr=dest_frames[frame_index] + dest_offset,
            mode=mode,
        )
        halves.append((page_number(src_cursor), half))
        consumed += take
    return halves
