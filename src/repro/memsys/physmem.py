"""Word-addressable physical DRAM."""

import hashlib
import mmap
import struct

from repro.memsys.address import (
    WORD_SIZE,
    WORD_MASK,
    AddressError,
    require_word_aligned,
)


def _zeroed(size_bytes):
    """A zero-filled, writable anonymous mapping of ``size_bytes``.

    The OS commits each host page on its first write, and untouched pages
    read as zeros, so a node costs host memory only for the DRAM the
    simulation writes.  Transparent huge pages are declined: with THP
    ``always`` one written word would commit 2 MiB.
    """
    region = mmap.mmap(-1, size_bytes)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        region.madvise(mmap.MADV_NOHUGEPAGE)
    return region


class PhysicalMemory:
    """A node's DRAM as a flat little-endian byte array.

    All accesses are word (4-byte) granularity, matching the bus models.
    This object is purely functional; access *timing* is charged by the bus
    that routes transactions here.  The bytes live in an anonymous mapping
    (see :func:`_zeroed`), so untouched DRAM costs no host memory.
    """

    def __init__(self, size_bytes):
        if size_bytes <= 0 or size_bytes % WORD_SIZE != 0:
            raise AddressError("memory size must be a positive word multiple")
        self.size_bytes = size_bytes
        self._data = _zeroed(size_bytes)
        self.read_count = 0
        self.write_count = 0
        # Optional write hook (configuration, not state -- not captured by
        # checkpoints).  The DSM runtime (repro.dsm) arms it to assert that
        # nothing scribbles over a coherence-managed page it does not hold
        # write ownership of; None (the default) keeps the access fast path
        # a single pointer test.
        self.write_guard = None
        # simlint: ignore[SL201] addr -> callbacks run after any write
        # covering that word and after a restore: the wake sources of
        # folded polls (repro.sim.poll), which a safepoint never holds
        self._watches = {}
        # simlint: ignore[SL201] lazy read_count charges (folded polls'
        # slept-through reads) that ckpt_capture brings up to date first;
        # a tuple, so an idle node shares the empty one
        self._settlers = ()

    def _check(self, addr, nwords=1):
        require_word_aligned(addr)
        if addr < 0 or addr + nwords * WORD_SIZE > self.size_bytes:
            raise AddressError(
                "access [%#x, +%d words) outside memory of %d bytes"
                % (addr, nwords, self.size_bytes)
            )

    def read_word(self, addr):
        self._check(addr)
        self.read_count += 1
        return int.from_bytes(self._data[addr : addr + WORD_SIZE], "little")

    def write_word(self, addr, value):
        self._check(addr)
        if self.write_guard is not None:
            self.write_guard(addr, 1)
        self.write_count += 1
        self._data[addr : addr + WORD_SIZE] = (value & WORD_MASK).to_bytes(
            WORD_SIZE, "little"
        )
        if self._watches and addr in self._watches:
            for callback in self._watches[addr]:
                callback()

    def read_words(self, addr, nwords):
        self._check(addr, nwords)
        self.read_count += nwords
        return list(struct.unpack_from("<%dI" % nwords, self._data, addr))

    def write_words(self, addr, values):
        nwords = len(values)
        self._check(addr, nwords)
        if self.write_guard is not None:
            self.write_guard(addr, nwords)
        self.write_count += nwords
        struct.pack_into("<%dI" % nwords, self._data, addr,
                         *[value & WORD_MASK for value in values])
        if self._watches:
            end = addr + nwords * WORD_SIZE
            for watched, callbacks in self._watches.items():
                if addr <= watched < end:
                    for callback in callbacks:
                        callback()

    def watch(self, addr, callback):
        """Call ``callback()`` after every later write covering word
        ``addr`` and after :meth:`ckpt_restore`."""
        self._watches.setdefault(addr, []).append(callback)

    def unwatch(self, addr, callback):
        callbacks = self._watches[addr]
        callbacks.remove(callback)
        if not callbacks:
            del self._watches[addr]

    def add_settler(self, callback):
        """Call ``callback()`` before every :meth:`ckpt_capture`: it
        charges reads ``read_count`` is owed (a folded poll's)."""
        self._settlers += (callback,)

    def remove_settler(self, callback):
        settlers = list(self._settlers)
        settlers.remove(callback)
        self._settlers = tuple(settlers)

    def load_bytes(self, addr, data):
        """Bulk functional initialisation (no accounting); for test setup."""
        if addr < 0 or addr + len(data) > self.size_bytes:
            raise AddressError("load outside memory")
        self._data[addr : addr + len(data)] = data

    def dump_bytes(self, addr, length):
        if addr < 0 or addr + length > self.size_bytes:
            raise AddressError("dump outside memory")
        return bytes(self._data[addr : addr + length])

    def sha256(self):
        """Hex SHA-256 over the whole DRAM, hashed in place (no copy)."""
        return hashlib.sha256(self._data).hexdigest()

    # -- checkpoint protocol (see repro.ckpt) ---------------------------------

    _CKPT_CHUNK = 4096

    def ckpt_capture(self):
        """Sparse capture: only chunks containing a nonzero byte are stored
        (as hex strings), since simulated DRAM is overwhelmingly zero."""
        for settle in self._settlers:
            settle()
        chunks = []
        data = self._data
        chunk = self._CKPT_CHUNK
        for offset in range(0, self.size_bytes, chunk):
            piece = data[offset : offset + chunk]
            if any(piece):
                chunks.append([offset, piece.hex()])
        return {
            "size_bytes": self.size_bytes,
            "chunks": chunks,
            "read_count": self.read_count,
            "write_count": self.write_count,
        }

    def ckpt_restore(self, state):
        if state["size_bytes"] != self.size_bytes:
            from repro.ckpt.protocol import CkptError

            raise CkptError(
                "memory size mismatch: checkpoint has %d bytes, node has %d"
                % (state["size_bytes"], self.size_bytes)
            )
        # A fresh mapping reads as zeros without committing a page; zeroing
        # the old one in place would commit all of it.
        data = self._data = _zeroed(self.size_bytes)
        for offset, hexdata in state["chunks"]:
            piece = bytes.fromhex(hexdata)
            data[offset : offset + len(piece)] = piece
        self.read_count = state["read_count"]
        self.write_count = state["write_count"]
        for callbacks in list(self._watches.values()):
            for callback in list(callbacks):
                callback()
