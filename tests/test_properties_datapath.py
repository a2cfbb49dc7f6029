"""Property-based end-to-end tests of the NIC datapath.

These drive the full system (CPU -> cache -> bus -> NIC -> mesh -> NIC ->
EISA -> DRAM) with randomised workloads and check the one invariant that
matters: destination memory ends up exactly as if the sender's stores had
been applied there directly, regardless of transfer mode, offsets, sizes
or merge behaviour.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cpu import Asm, Context, Mem, R0, R1
from repro.faults import CorruptEveryNth
from repro.machine import ShrimpSystem, mapping
from repro.memsys.address import PAGE_SIZE
from repro.nic.nipt import MappingMode
from repro.sim import Process

SRC, DST = 0x10000, 0x20000
STACK = 0x3F000


def run_writer(system, node, asm):
    proc = Process(
        system.sim,
        node.cpu.run_to_halt(asm.build(), Context(stack_top=STACK)),
        "writer",
    ).start()
    system.run()
    assert proc.finished


@settings(max_examples=25, deadline=None)
@given(
    mode=st.sampled_from([MappingMode.AUTO_SINGLE, MappingMode.AUTO_BLOCKED]),
    stores=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=255),  # word offset in page
            st.integers(min_value=0, max_value=0xFFFFFFFF),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_automatic_update_mirrors_any_store_pattern(mode, stores):
    """Random (possibly repeated, unordered) stores mirror exactly --
    including through the blocked-write merge machinery."""
    system = ShrimpSystem(2, 1)
    system.start()
    a, b = system.nodes
    mapping.establish(a, SRC, b, DST, PAGE_SIZE, mode)
    asm = Asm("w")
    model = {}
    for offset_words, value in stores:
        asm.mov(Mem(disp=SRC + 4 * offset_words), value)
        model[offset_words] = value
    asm.halt()
    run_writer(system, a, asm)
    for offset_words, value in model.items():
        assert b.memory.read_word(DST + 4 * offset_words) == value
    # No packets lost or spuriously created.
    assert a.nic.packets_injected.value == b.nic.packets_delivered.value


@settings(max_examples=20, deadline=None)
@given(
    offset_words=st.integers(min_value=0, max_value=1023),
    nwords=st.integers(min_value=1, max_value=2048),
    dest_offset_words=st.integers(min_value=0, max_value=1023),
)
# Whole-page transfers of one page and of 16 (64 KB, the bandwidth
# curve's saturated end) always run.
@example(offset_words=0, nwords=1024, dest_offset_words=0)
@example(offset_words=0, nwords=16384, dest_offset_words=0)
def test_deliberate_transfer_any_geometry(offset_words, nwords,
                                          dest_offset_words):
    """Random base offsets and sizes (spanning pages, unaligned to the
    destination) transfer exactly via per-page DMA commands."""
    src = SRC + 4 * offset_words
    dst = DST + 4 * dest_offset_words
    nbytes = 4 * nwords
    system = ShrimpSystem(2, 1)
    system.start()
    a, b = system.nodes
    mapping.establish(a, src, b, dst, nbytes, MappingMode.DELIBERATE)
    payload = [(i * 2654435761) & 0xFFFFFFFF for i in range(nwords)]
    a.memory.write_words(src, payload)

    from repro.memsys.address import split_words
    from repro.nic.command import dma_start_word

    def arm_all():
        for page, page_off, count in split_words(src, nwords):
            base = page * PAGE_SIZE + page_off
            cmd = a.command_addr(base)
            while True:
                _old, swapped = yield from a.bus.cmpxchg(
                    cmd, 0, dma_start_word(count), "cpu"
                )
                if swapped:
                    break
                yield from a.bus.read(cmd, 1, "cpu")

    Process(system.sim, arm_all(), "arm").start()
    system.run()
    assert b.memory.read_words(dst, nwords) == payload


@settings(max_examples=15, deadline=None)
@given(corrupt_every=st.integers(min_value=1, max_value=5))
def test_corruption_never_delivers_bad_data(corrupt_every):
    """Corrupt every Nth packet: corrupted ones are dropped and counted;
    every delivered word is correct (CRC catches all single-bit flips)."""
    system = ShrimpSystem(2, 1)
    system.start()
    a, b = system.nodes
    mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
    CorruptEveryNth(a.nic, corrupt_every)
    nstores = 20
    asm = Asm("w")
    for i in range(nstores):
        asm.mov(Mem(disp=SRC + 4 * i), i + 1)
    asm.halt()
    run_writer(system, a, asm)
    dropped = b.nic.crc_drops.value
    delivered = b.nic.packets_delivered.value
    assert dropped == nstores // corrupt_every
    assert dropped + delivered == nstores
    for i in range(nstores):
        got = b.memory.read_word(DST + 4 * i)
        assert got in (0, i + 1)  # either dropped (never written) or exact


@settings(max_examples=10, deadline=None)
@given(
    split=st.integers(min_value=1, max_value=1023),
)
def test_page_split_at_any_offset(split):
    """Section 3.2: a page split at ANY word-aligned offset routes each
    half to its own destination, exactly."""
    system = ShrimpSystem(3, 1)
    system.start()
    a, b, c = system.nodes
    split_bytes = 4 * split
    mapping.establish(a, SRC, b, DST, split_bytes, MappingMode.AUTO_SINGLE)
    mapping.establish(a, SRC + split_bytes, c, DST, PAGE_SIZE - split_bytes,
                      MappingMode.AUTO_SINGLE)
    asm = Asm("w")
    # One store on each side of the split boundary.
    low = max(0, split - 1)
    asm.mov(Mem(disp=SRC + 4 * low), 0xB)
    asm.mov(Mem(disp=SRC + 4 * split), 0xC)
    asm.halt()
    run_writer(system, a, asm)
    assert b.memory.read_word(DST + 4 * low) == 0xB
    assert c.memory.read_word(DST) == 0xC
