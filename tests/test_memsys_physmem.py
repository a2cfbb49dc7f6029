"""Unit tests for physical DRAM."""

import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.memsys import PhysicalMemory
from repro.memsys.address import AddressError


def test_initially_zero():
    mem = PhysicalMemory(4096)
    assert mem.read_word(0) == 0
    assert mem.read_word(4092) == 0


def test_write_read_round_trip():
    mem = PhysicalMemory(4096)
    mem.write_word(16, 0xDEADBEEF)
    assert mem.read_word(16) == 0xDEADBEEF


def test_word_values_truncate_to_32_bits():
    mem = PhysicalMemory(4096)
    mem.write_word(0, 0x1_0000_0001)
    assert mem.read_word(0) == 1


def test_little_endian_layout():
    mem = PhysicalMemory(4096)
    mem.write_word(0, 0x11223344)
    assert mem.dump_bytes(0, 4) == bytes([0x44, 0x33, 0x22, 0x11])


def test_bulk_words():
    mem = PhysicalMemory(4096)
    mem.write_words(8, [1, 2, 3])
    assert mem.read_words(8, 3) == [1, 2, 3]
    assert mem.read_word(8 + 8) == 3


def test_misaligned_rejected():
    mem = PhysicalMemory(4096)
    with pytest.raises(AddressError):
        mem.read_word(2)
    with pytest.raises(AddressError):
        mem.write_word(5, 0)


def test_out_of_range_rejected():
    mem = PhysicalMemory(4096)
    with pytest.raises(AddressError):
        mem.read_word(4096)
    with pytest.raises(AddressError):
        mem.write_words(4092, [1, 2])
    with pytest.raises(AddressError):
        mem.read_word(-4)


def test_bad_size_rejected():
    with pytest.raises(AddressError):
        PhysicalMemory(0)
    with pytest.raises(AddressError):
        PhysicalMemory(10)


def test_load_and_dump_bytes():
    mem = PhysicalMemory(4096)
    mem.load_bytes(100, b"hello world!")
    assert mem.dump_bytes(100, 12) == b"hello world!"
    with pytest.raises(AddressError):
        mem.load_bytes(4090, b"too long!")


def test_access_counters():
    mem = PhysicalMemory(4096)
    mem.write_words(0, [1, 2, 3])
    mem.read_words(0, 2)
    assert mem.write_count == 3
    assert mem.read_count == 2


@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=255),
            st.integers(min_value=0, max_value=0xFFFFFFFF),
        ),
        max_size=60,
    )
)
def test_memory_behaves_like_dict(writes):
    """Property: memory matches a reference model of last-write-wins words."""
    mem = PhysicalMemory(1024)
    model = {}
    for word_index, value in writes:
        mem.write_word(word_index * 4, value)
        model[word_index] = value
    for word_index, value in model.items():
        assert mem.read_word(word_index * 4) == value


# -- the lazily committed DRAM against a dense reference ----------------------

LAZY_PAGES = 4
LAZY_BYTES = LAZY_PAGES * 4096

# Addresses cluster around page boundaries so ranges straddle pages.
_near_boundary = st.builds(
    lambda page, delta: min(max(page * 4096 + delta, 0), LAZY_BYTES - 4),
    st.integers(min_value=0, max_value=LAZY_PAGES),
    st.integers(min_value=-64, max_value=64),
)
_byte_addr = st.one_of(
    _near_boundary, st.integers(min_value=0, max_value=LAZY_BYTES - 4))
_word_addr = _byte_addr.map(lambda addr: addr - addr % 4)
_word = st.integers(min_value=0, max_value=(1 << 36) - 1)

_ops = st.one_of(
    st.tuples(st.just("write_word"), _word_addr, _word),
    st.tuples(st.just("write_words"), _word_addr,
              st.lists(_word, min_size=1, max_size=24)),
    st.tuples(st.just("load_bytes"), _byte_addr, st.one_of(
        st.binary(min_size=1, max_size=96),
        st.integers(min_value=1, max_value=96).map(bytes))),
    st.tuples(st.just("read_words"), _word_addr,
              st.integers(min_value=1, max_value=24)),
    st.tuples(st.just("dump_bytes"), _byte_addr,
              st.integers(min_value=0, max_value=96)),
)


def _apply(mem, ref, op):
    """Run one op on ``mem`` and the dense ``ref``; check any result."""
    kind, addr, arg = op
    if kind == "write_word":
        mem.write_word(addr, arg)
        ref[addr:addr + 4] = (arg & 0xFFFFFFFF).to_bytes(4, "little")
    elif kind == "write_words":
        arg = arg[:(LAZY_BYTES - addr) // 4]
        mem.write_words(addr, arg)
        for i, value in enumerate(arg):
            a = addr + 4 * i
            ref[a:a + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")
    elif kind == "load_bytes":
        arg = arg[:LAZY_BYTES - addr]
        mem.load_bytes(addr, arg)
        ref[addr:addr + len(arg)] = arg
    elif kind == "read_words":
        nwords = min(arg, (LAZY_BYTES - addr) // 4)
        assert mem.read_words(addr, nwords) == [
            int.from_bytes(ref[a:a + 4], "little")
            for a in range(addr, addr + 4 * nwords, 4)
        ]
    else:
        length = min(arg, LAZY_BYTES - addr)
        assert mem.dump_bytes(addr, length) == bytes(ref[addr:addr + length])


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_ops, max_size=40),
       elsewhere=st.lists(st.tuples(_word_addr, _word),
                          min_size=1, max_size=8))
# Negative and wider-than-32-bit words, written across a page boundary:
# the stored word is the value modulo 2**32.
@example(ops=[("write_words", 4088, [-1, (1 << 40) | 7, -(1 << 33) - 3,
                                     1 << 32, 0x1_2345_6789]),
              ("read_words", 4084, 7),
              ("write_word", 0, -2),
              ("dump_bytes", 4084, 28)],
         elsewhere=[(4092, 5)])
def test_lazy_memory_matches_dense_reference(ops, elsewhere):
    """Property: the anonymously mapped DRAM behaves exactly like a dense
    zero-filled ``bytearray`` -- reads, dumps, digest, and a checkpoint
    round trip into a memory that already holds other writes."""
    mem = PhysicalMemory(LAZY_BYTES)
    ref = bytearray(LAZY_BYTES)
    for op in ops:
        _apply(mem, ref, op)
    assert mem.dump_bytes(0, LAZY_BYTES) == bytes(ref)
    assert mem.sha256() == hashlib.sha256(ref).hexdigest()

    state = mem.ckpt_capture()
    other = PhysicalMemory(LAZY_BYTES)
    for addr, value in elsewhere:
        other.write_word(addr, value)
    other.ckpt_restore(state)
    assert other.dump_bytes(0, LAZY_BYTES) == bytes(ref)
    assert other.sha256() == mem.sha256()
    assert (other.read_count, other.write_count) == (
        mem.read_count, mem.write_count)
    assert other.ckpt_capture() == state
