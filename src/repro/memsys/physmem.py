"""Word-addressable physical DRAM, stored as the blocks a run writes.

A node's DRAM is a dict of fixed-size blocks (:data:`BLOCK_SIZE` bytes
each, one ``bytearray`` per block) keyed by block index.  A block is
allocated, zero-filled, when a write first puts a nonzero byte in it;
every byte of an absent block reads as zero.  So a node costs the host
about one block per 256 bytes of DRAM the simulation has written, not a
host page per written word, and a read of untouched DRAM allocates
nothing.

256 bytes is one DSM transfer chunk (64 words, the NIC's largest
packet payload) and a whole number of cache lines, so the hot accesses
-- one-word NIC deposits, line fills and write-backs, poll words --
each touch a single block and take a one-``struct``-call fast path.
Page-sized transfers cost one ``struct`` call or one slice per block.
"""

import hashlib
import struct

from repro.ckpt.protocol import SCALAR, Checkpointable
from repro.memsys.address import (
    PAGE_SIZE,
    WORD_SIZE,
    WORD_MASK,
    AddressError,
    require_word_aligned,
)

_BLOCK_SHIFT = 8
BLOCK_SIZE = 1 << _BLOCK_SHIFT
_BLOCK_MASK = BLOCK_SIZE - 1
_BLOCK_WORDS = BLOCK_SIZE // WORD_SIZE

#: ``_WORDS[n]`` packs and unpacks ``n`` little-endian words: every
#: run that fits in one block.
_WORDS = tuple(struct.Struct("<%dI" % n) for n in range(_BLOCK_WORDS + 1))
_read_word = _WORDS[1].unpack_from
_write_word = _WORDS[1].pack_into

#: The one zero source: the gaps :meth:`~PhysicalMemory.sha256` hashes
#: and :meth:`~PhysicalMemory.dump_bytes` returns, and the all-zero test
#: of a piece (at most one checkpoint chunk, a page).
_ZEROS = bytes(PAGE_SIZE)


def _is_zero(piece):
    """True when the bytes-like ``piece`` (at most a page) holds no
    nonzero byte."""
    return _ZEROS.startswith(piece)


def _hash_zeros(digest, length):
    """Feed ``length`` zero bytes to ``digest`` from :data:`_ZEROS`."""
    zeros = memoryview(_ZEROS)
    while length > 0:
        step = min(length, len(zeros))
        digest.update(zeros[:step])
        length -= step


def _packed(values):
    """``values`` as little-endian words, each taken modulo 2**32.

    The mask runs only when some value is out of range, so the common
    call is one ``struct`` call.
    """
    nwords = len(values)
    layout = (_WORDS[nwords] if nwords <= _BLOCK_WORDS
              else struct.Struct("<%dI" % nwords))
    try:
        return layout.pack(*values)
    except struct.error:
        return layout.pack(*[value & WORD_MASK for value in values])


def _spans(addr, length):
    """``(block index, offset in block, length, offset in range)`` for
    each block the byte range ``[addr, addr + length)`` touches."""
    pos = 0
    while pos < length:
        at = addr + pos
        offset = at & _BLOCK_MASK
        step = min(BLOCK_SIZE - offset, length - pos)
        yield at >> _BLOCK_SHIFT, offset, step, pos
        pos += step


class PhysicalMemory(Checkpointable):
    """A node's DRAM: a little-endian byte array held as written blocks.

    All accesses are word (4-byte) granularity, matching the bus models;
    :meth:`load_bytes` and :meth:`dump_bytes` move raw bytes.  This object
    is purely functional; access *timing* is charged by the bus that
    routes transactions here.  Only blocks holding written data take host
    memory (see the module docstring), so untouched DRAM costs nothing.
    """

    CKPT_STATE = (("size_bytes", SCALAR), ("read_count", SCALAR),
                  ("write_count", SCALAR))
    CKPT_SKIP = {
        "_blocks": "encoded by ckpt_capture: the chunks holding a nonzero "
                   "byte",
        "_watches": "addr -> callbacks run after any write covering that "
                    "word and after a restore: the wake sources of folded "
                    "polls (repro.sim.poll), which a safepoint never holds",
        "_settlers": "lazy read_count charges (folded polls' slept-through "
                     "reads) that ckpt_capture brings up to date first",
    }

    def __init__(self, size_bytes):
        if size_bytes <= 0 or size_bytes % WORD_SIZE != 0:
            raise AddressError("memory size must be a positive word multiple")
        self.size_bytes = size_bytes
        # block index -> bytearray(BLOCK_SIZE); an absent block is zeros
        self._blocks = {}
        self.read_count = 0
        self.write_count = 0
        # Optional write hook (configuration, not state -- not captured by
        # checkpoints).  The DSM runtime (repro.dsm) arms it to assert that
        # nothing scribbles over a coherence-managed page it does not hold
        # write ownership of; None (the default) keeps the access fast path
        # a single pointer test.
        self.write_guard = None
        self._watches = {}
        # A tuple, so an idle node shares the empty one.
        self._settlers = ()

    def _check(self, addr, nwords=1):
        """Raise :class:`AddressError` for a misaligned, negative-length
        or out-of-range word access.  The accessors test the same bounds
        inline and call this only to raise."""
        require_word_aligned(addr)
        if nwords < 0:
            raise AddressError("negative word count %r" % (nwords,))
        if addr < 0 or addr + nwords * WORD_SIZE > self.size_bytes:
            raise AddressError(
                "access [%#x, +%d words) outside memory of %d bytes"
                % (addr, nwords, self.size_bytes)
            )

    def read_word(self, addr):
        if addr & 3 or addr < 0 or addr >= self.size_bytes:
            self._check(addr)
        self.read_count += 1
        block = self._blocks.get(addr >> _BLOCK_SHIFT)
        if block is None:
            return 0
        return _read_word(block, addr & _BLOCK_MASK)[0]

    def write_word(self, addr, value):
        if addr & 3 or addr < 0 or addr >= self.size_bytes:
            self._check(addr)
        if self.write_guard is not None:
            self.write_guard(addr, 1)
        self.write_count += 1
        block = self._blocks.get(addr >> _BLOCK_SHIFT)
        if block is not None:
            _write_word(block, addr & _BLOCK_MASK, value & WORD_MASK)
        else:
            self._store(addr, _packed((value,)))
        if self._watches and addr in self._watches:
            for callback in self._watches[addr]:
                callback()

    def read_words(self, addr, nwords):
        end = addr + nwords * WORD_SIZE
        if addr & 3 or addr < 0 or not addr <= end <= self.size_bytes:
            self._check(addr, nwords)
        self.read_count += nwords
        offset = addr & _BLOCK_MASK
        if offset + nwords * WORD_SIZE > BLOCK_SIZE:
            return self._read_span(addr, nwords)
        block = self._blocks.get(addr >> _BLOCK_SHIFT)
        if block is None:
            return [0] * nwords
        return list(_WORDS[nwords].unpack_from(block, offset))

    def _read_span(self, addr, nwords):
        """:meth:`read_words` of a run that crosses blocks."""
        words = []
        blocks = self._blocks
        for index, offset, length, _pos in _spans(addr, nwords * WORD_SIZE):
            block = blocks.get(index)
            if block is None:
                words += [0] * (length // WORD_SIZE)
            else:
                words += _WORDS[length // WORD_SIZE].unpack_from(block, offset)
        return words

    def write_words(self, addr, values):
        nwords = len(values)
        end = addr + nwords * WORD_SIZE
        if addr & 3 or addr < 0 or end > self.size_bytes:
            self._check(addr, nwords)
        if self.write_guard is not None:
            self.write_guard(addr, nwords)
        self.write_count += nwords
        offset = addr & _BLOCK_MASK
        block = self._blocks.get(addr >> _BLOCK_SHIFT)
        if block is None or offset + nwords * WORD_SIZE > BLOCK_SIZE:
            self._store(addr, _packed(values))
        else:
            try:
                _WORDS[nwords].pack_into(block, offset, *values)
            except struct.error:  # a value outside [0, 2**32): mask all
                block[offset : offset + nwords * WORD_SIZE] = _packed(values)
        if self._watches:
            for watched, callbacks in self._watches.items():
                if addr <= watched < end:
                    for callback in callbacks:
                        callback()

    def _store(self, addr, data):
        """Copy the bytes-like ``data`` in at byte ``addr``, one slice per
        block.  An absent block is allocated only for a piece that holds
        a nonzero byte: writing zeros to untouched DRAM allocates
        nothing and reads back the same."""
        blocks = self._blocks
        view = memoryview(data)
        for index, offset, length, pos in _spans(addr, len(view)):
            piece = view[pos : pos + length]
            block = blocks.get(index)
            if block is None:
                if _is_zero(piece):
                    continue
                block = blocks[index] = bytearray(BLOCK_SIZE)
            block[offset : offset + length] = piece

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
        self._store(addr, data)

    def dump_bytes(self, addr, length):
        if addr < 0 or addr + length > self.size_bytes:
            raise AddressError("dump outside memory")
        pieces = []
        blocks = self._blocks
        for index, offset, step, _pos in _spans(addr, length):
            block = blocks.get(index)
            if block is None:
                pieces.append(_ZEROS[:step])
            else:
                pieces.append(block if step == BLOCK_SIZE
                              else block[offset : offset + step])
        return b"".join(pieces)

    def sha256(self):
        """Hex SHA-256 over the whole DRAM byte stream: the written
        blocks in address order, with every gap fed from one shared
        zero buffer (nothing is allocated per gap)."""
        digest = hashlib.sha256()
        blocks = self._blocks
        size = self.size_bytes
        pos = 0
        for index in sorted(blocks):
            start = index << _BLOCK_SHIFT
            _hash_zeros(digest, start - pos)
            pos = min(start + BLOCK_SIZE, size)
            digest.update(memoryview(blocks[index])[: pos - start])
        _hash_zeros(digest, size - pos)
        return digest.hexdigest()

    # -- checkpoint protocol (see repro.ckpt) ---------------------------------

    _CKPT_CHUNK = 4096

    def ckpt_capture(self):
        """Sparse capture: only chunks containing a nonzero byte are stored
        (as hex strings), since simulated DRAM is overwhelmingly zero.
        Only the chunks that hold a written block are scanned."""
        for settle in self._settlers:
            settle()
        state = super().ckpt_capture()
        chunks = state["chunks"] = []
        chunk = self._CKPT_CHUNK
        per_chunk = chunk // BLOCK_SIZE
        for first in sorted({index // per_chunk for index in self._blocks}):
            offset = first * chunk
            piece = self.dump_bytes(offset, min(chunk, self.size_bytes - offset))
            if not _is_zero(piece):
                chunks.append([offset, piece.hex()])
        return state

    def ckpt_refusal(self, state):
        if state is not None and state["size_bytes"] != self.size_bytes:
            return ("memory size mismatch: checkpoint has %d bytes, node has "
                    "%d" % (state["size_bytes"], self.size_bytes))
        return None

    def ckpt_restore(self, state):
        super().ckpt_restore(state)
        # Rebuild from no blocks: only a chunk's nonzero blocks come back.
        self._blocks = {}
        for offset, hexdata in state["chunks"]:
            self._store(offset, bytes.fromhex(hexdata))
        for callbacks in list(self._watches.values()):
            for callback in list(callbacks):
                callback()
