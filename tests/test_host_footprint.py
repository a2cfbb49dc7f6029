"""What building a machine costs the host, checked without timing it.

Wall time and RSS move with the host; the number of objects the garbage
collector tracks does not.  Link buffers, cache sets, NIPT entries,
signal waiter lists and registry entries are built on first use, so a
started machine that has not run yet holds few of them.  This guard
fails when a change brings back a container per node, link or metric.
"""

import gc

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
