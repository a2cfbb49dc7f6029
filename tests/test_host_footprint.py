"""What building a machine costs the host, checked without timing it.

Wall time and RSS move with the host; the number of objects the garbage
collector tracks does not.  Link buffers, cache sets, NIPT entries,
signal waiter lists and registry entries are built on first use, so a
started machine that has not run yet holds few of them.  This guard
fails when a change brings back a container per node, link or metric.
The collector does not see strings, so a second guard bounds the bytes
``tracemalloc`` traces per node: it fails when a change brings back a
name string per metric, or an instance dict, an empty deque or a name
string per link, port or queue.  The objects built once per link, port
or queue are slotted, and their names are built when read, which the
tests below also check.
An assembled instruction is one slotted object holding its decoded
operands, so a program of stores costs the host about one object per
store; the guards below fail when instructions grow instance dicts or
per-operand objects again.  DRAM holds only the blocks a run has written
nonzero data to, counted from the block store itself.
"""

import gc
import sys
import tracemalloc

import pytest

from repro.cpu import Asm, Mem, isa
from repro.memsys import PAGE_SIZE, PhysicalMemory
from repro.memsys.physmem import BLOCK_SIZE
from repro.machine import ShrimpSystem
from repro.machine.config import datacenter
from repro.mesh.link import Link
from repro.mesh.router import _OutputPort
from repro.mesh.topology import EAST
from repro.nic.fifo import PacketFifo
from repro.sim.process import Process, Signal
from repro.sim.resources import BoundedQueue, Mutex

#: GC-tracked objects one node of a started 8x8 ``datacenter()`` build
#: adds: 162.4 with metrics named on read (182.8 with a probe closure and
#: its cell per probe, 332 when every container was built up front),
#: plus about 10% headroom.
MAX_OBJECTS_PER_NODE = 179

#: Bytes ``tracemalloc`` traces per node of the same build: 19,504 with
#: slotted links, ports, mutexes and FIFOs, list queues and signal names
#: built on read (24,785 with an instance dict, a deque or a joined name
#: string each; 29,641 with a name string per metric as well), plus
#: about 5% headroom.
MAX_TRACED_BYTES_PER_NODE = 20_500


def _objects_per_node(width, height):
    gc.collect()
    before = len(gc.get_objects())
    system = ShrimpSystem(width, height, params_factory=datacenter)
    system.start()
    gc.collect()
    added = len(gc.get_objects()) - before
    return added / system.node_count


def test_started_datacenter_build_objects_per_node():
    _objects_per_node(2, 1)  # warm up: lazy imports and module caches
    per_node = _objects_per_node(8, 8)
    assert per_node <= MAX_OBJECTS_PER_NODE, (
        "a started 8x8 build tracks %.1f objects per node (bound %d)"
        % (per_node, MAX_OBJECTS_PER_NODE))


def _traced_bytes_per_node(width, height):
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    system = ShrimpSystem(width, height, params_factory=datacenter)
    system.start()
    gc.collect()
    added = tracemalloc.get_traced_memory()[0] - before
    if started:
        tracemalloc.stop()
    return added / system.node_count


def test_started_datacenter_build_traced_bytes_per_node():
    _traced_bytes_per_node(2, 1)  # warm up: lazy imports and module caches
    per_node = _traced_bytes_per_node(8, 8)
    assert per_node <= MAX_TRACED_BYTES_PER_NODE, (
        "a started 8x8 build traces %.0f bytes per node (bound %d)"
        % (per_node, MAX_TRACED_BYTES_PER_NODE))


@pytest.mark.parametrize("cls", [Link, _OutputPort, Mutex, Signal, Process,
                                 PacketFifo, BoundedQueue],
                         ids=lambda cls: cls.__name__)
def test_per_link_port_and_queue_classes_have_no_instance_dict(cls):
    """A 32x32 machine builds thousands of each of these."""
    assert cls.__dictoffset__ == 0


def test_names_built_on_read_name_owner_and_role():
    system = ShrimpSystem(2, 2)
    port = system.backplane.routers[(0, 0)].outputs[EAST]
    link = port.link
    assert link.name == "link(0,0)->(1,0)"
    assert repr(link._not_full) == "Signal(link(0,0)->(1,0).not_full, 0 waiting)"
    assert repr(link._not_empty) == (
        "Signal(link(0,0)->(1,0).not_empty, 0 waiting)")
    assert port.name == "router(0,0).east"
    assert repr(port.mutex) == "Mutex(router(0,0).east.alloc, free)"
    assert repr(port.mutex._released) == (
        "Signal(router(0,0).east.alloc.released, 0 waiting)")
    nic = system.nodes[0].nic
    assert repr(nic.outgoing_fifo._changed) == (
        "Signal(%s.changed, 0 waiting)" % nic.outgoing_fifo.name)
    assert repr(nic.kernel_inbox._not_empty) == (
        "Signal(%s.not_empty, 0 waiting)" % nic.kernel_inbox.name)


def test_releasing_an_unlocked_port_mutex_names_the_port():
    system = ShrimpSystem(2, 2)
    mutex = system.backplane.routers[(1, 0)].outputs[EAST].mutex
    with pytest.raises(RuntimeError, match=r"router\(1,0\)\.east\.alloc"):
        mutex.release()


#: GC-tracked objects one assembled ``mov [abs], imm`` adds, counting
#: the caller's ``Mem``: that Mem and the instruction (9 when each
#: instruction carried an instance dict, an ``Imm`` and operand closures).
MAX_OBJECTS_PER_STORE = 3


def test_assembled_absolute_store_objects():
    count = 1000
    gc.collect()
    before = len(gc.get_objects())
    mems = [Mem(disp=0x10000 + 4 * i) for i in range(count)]
    asm = Asm("stores")
    for i, mem in enumerate(mems):
        asm.mov(mem, 0x12340000 + i)
    program = asm.build()
    gc.collect()
    per_store = (len(gc.get_objects()) - before) / count
    assert len(program) == count
    assert per_store <= MAX_OBJECTS_PER_STORE, (
        "one assembled mov [abs], imm tracks %.2f objects (bound %d)"
        % (per_store, MAX_OBJECTS_PER_STORE))


def _instruction_classes(cls=isa.Instruction):
    yield cls
    for sub in cls.__subclasses__():
        yield from _instruction_classes(sub)


def test_instruction_classes_have_no_instance_dict():
    """Every instruction class, the per-operand-form classes built for
    each mnemonic included, is slotted all the way up."""
    classes = [cls for cls in _instruction_classes()
               if cls.__module__ == isa.__name__]
    assert isa.Mov(Mem(disp=0), 1).__class__ in classes
    with_dict = [cls.__name__ for cls in classes if cls.__dictoffset__]
    assert with_dict == []


#: Host bytes one written DRAM block may cost: its ``BLOCK_SIZE`` bytes
#: plus the bytearray header and its share of the store's dict, with
#: headroom; a host page is 4096.
MAX_BYTES_PER_BLOCK = BLOCK_SIZE + 160


def _store_bytes(memory):
    """Host bytes the DRAM block store holds: its dict and its blocks."""
    blocks = memory._blocks
    return sys.getsizeof(blocks) + sum(
        sys.getsizeof(block) for block in blocks.values())


def test_reading_untouched_dram_allocates_nothing():
    memory = PhysicalMemory(1 << 20)
    for addr in range(0, memory.size_bytes, PAGE_SIZE):
        assert memory.read_words(addr, PAGE_SIZE // 4)[-1] == 0
        assert memory.read_word(addr) == 0
    assert memory.dump_bytes(0, memory.size_bytes) == bytes(memory.size_bytes)
    memory.sha256()
    assert memory.ckpt_capture()["chunks"] == []
    memory.write_words(0, [0] * 64)  # zeros into untouched DRAM, too
    assert memory._blocks == {}


def test_one_written_word_costs_one_block():
    memory = PhysicalMemory(1 << 20)
    memory.write_word(0x1234 * 4, 0xDEADBEEF)
    assert len(memory._blocks) == 1
    assert _store_bytes(memory) <= 2 * MAX_BYTES_PER_BLOCK


def test_strided_words_cost_a_block_each_not_a_page():
    """One word in each 4 KiB page of 1 MiB of DRAM (the pattern that
    committed a host page per word) holds 256 blocks: under a tenth of
    the 1 MiB those pages cost."""
    memory = PhysicalMemory(1 << 20)
    pages = memory.size_bytes // PAGE_SIZE
    for page in range(pages):
        memory.write_word(page * PAGE_SIZE + 4 * (page % 64), page + 1)
    assert len(memory._blocks) == pages
    assert _store_bytes(memory) <= pages * MAX_BYTES_PER_BLOCK
    assert _store_bytes(memory) < memory.size_bytes // 10


def test_page_push_costs_its_own_bytes():
    """A written 4 KiB page is PAGE_SIZE // BLOCK_SIZE blocks."""
    memory = PhysicalMemory(1 << 20)
    memory.write_words(3 * PAGE_SIZE, list(range(1, PAGE_SIZE // 4 + 1)))
    assert len(memory._blocks) == PAGE_SIZE // BLOCK_SIZE
    assert _store_bytes(memory) <= (
        PAGE_SIZE // BLOCK_SIZE * MAX_BYTES_PER_BLOCK)
