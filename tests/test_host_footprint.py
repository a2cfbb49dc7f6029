"""What building a machine costs the host, checked without timing it.

Wall time and RSS move with the host; the number of objects the garbage
collector tracks does not.  Link buffers, cache sets, NIPT entries,
signal waiter lists and registry entries are built on first use, so a
started machine that has not run yet holds few of them.  This guard
fails when a change brings back a container per node, link or metric.
An assembled instruction is one slotted object holding its decoded
operands, so a program of stores costs the host about one object per
store; the guards below fail when instructions grow instance dicts or
per-operand objects again.
"""

import gc

from repro.cpu import Asm, Mem, isa
from repro.machine import ShrimpSystem
from repro.machine.config import datacenter

#: GC-tracked objects one node of a started 8x8 ``datacenter()`` build
#: adds: 199 with containers built on first use (332 when every one was
#: built up front), plus about 10% headroom.
MAX_OBJECTS_PER_NODE = 220


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
